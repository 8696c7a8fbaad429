import ast
from pathlib import Path

from equicast import harness

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equicast"


def _referenced_names(node) -> set[str]:
    """Names `node` uses: plain names, attribute names and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    # `__init__` only re-exports: an export is not a use, so it is not scanned
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    statements = [(stmt, _referenced_names(stmt)) for module in modules for stmt in module.body]
    unused = []
    for stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in names for other, names in statements if other is not stmt):
            unused.append(stmt.name)
    assert unused == [], f"public names no code in src/equicast uses: {unused}"


def test_every_import_is_used():
    # an import that nothing uses is a leftover of deleted code; a line marked
    # `# noqa: F401` keeps a binding for a caller outside the package
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        module = ast.parse("\n".join(lines))
        used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        for stmt in ast.walk(module):
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[stmt.lineno - 1 : stmt.end_lineno]):
                continue
            unused += [f"{path.name}: {alias.asname or alias.name}" for alias in stmt.names
                       if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == [], f"imports nothing in src/equicast uses: {unused}"


def test_every_dataclass_field_is_read():
    # a field that nothing reads is state kept for no one; a read is an
    # attribute load anywhere in src/equicast, or a config field that `harness`
    # hands a generator as the parameter of the same name.  An output record
    # is written out whole: its `as_dict` hands `self` to `asdict`, which
    # reads every field.  Only the classes named here count as one, so a dead
    # knob added to a config class still fails
    output_records = {"RunSummary"}
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for module in modules for node in ast.walk(module)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= {name for app in harness._APPLICATIONS.values() for name in app.fields}
    unread = []
    for module in modules:
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef) or not any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in cls.decorator_list
            ):
                continue
            if cls.name in output_records and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
                and [getattr(arg, "id", None) for arg in node.args] == ["self"] for node in ast.walk(cls)
            ):
                continue
            unread += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read]
    assert unread == [], f"dataclass fields no code in src/equicast reads: {unread}"


def _string_set(node) -> set[str]:
    """The strings of a set, list or tuple display whose every element is a string; else empty."""
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
    ):
        return {e.value for e in node.elts}
    return set()


def test_no_module_keeps_a_dataclass_field_list():
    # a hand-kept copy of a dataclass's field names, or of some of them, goes
    # stale when a field is added or renamed: `errors.check_fields` reads them
    # from the type hints, and `harness` reads a generator's from its signature
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    dataclass_fields = {}
    for module in modules.values():
        for cls in ast.walk(module):
            if isinstance(cls, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in cls.decorator_list
            ):
                dataclass_fields[cls.name] = {stmt.target.id for stmt in cls.body
                                              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    copies = []
    for name, module in modules.items():
        for stmt in module.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in map(ast.unparse, targets):
                # the value itself, and each value of a dict display
                found = [(target, stmt.value)]
                if isinstance(stmt.value, ast.Dict):
                    found += [(f"{target}[{ast.unparse(k)}]", v) for k, v in zip(stmt.value.keys, stmt.value.values)
                              if k is not None]
                for where, node in found:
                    strings = _string_set(node)
                    copies += [f"{name}: {where} = {sorted(strings)}, {cls}'s fields" for cls, fields in dataclass_fields.items()
                               if len(strings) >= 2 and strings <= fields]
    assert copies == [], f"module-level copies of a dataclass's field names: {copies}"


def test_config_choices_live_in_one_place():
    # `ExperimentConfig` refuses a value outside `harness._CHOICES` before any
    # generator runs; a copy of some of the choices elsewhere re-checks them
    choices = [set(values) for values in harness._CHOICES.values()]
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "harness.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            strings = _string_set(node)
            if len(strings) >= 2 and any(strings <= values for values in choices):
                copies.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert copies == [], f"copies of a config field's choices outside harness: {copies}"


def test_only_errors_decodes_an_input_file():
    # `errors.read_text` and `read_object` refuse undecodable text, invalid
    # syntax and a document that is not an object as a usage error naming the
    # file; a module that decodes a file itself skips those checks.  A call
    # is a decoder when it names a parser (`json.loads`, a TOML `loads`, or
    # the bare name imported) or reads a file's contents (`Path.read_text`)
    decoders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr in ("load", "loads", "read_text", "read_bytes")
                or isinstance(node.func, ast.Name) and node.func.id in ("load", "loads")
            ):
                decoders.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert decoders == [], f"input files decoded outside errors.py: {decoders}"


def test_objective_is_a_function_of_the_model_outputs():
    # the objective's ops return a cotangent on the outputs; the one vjp of a
    # step runs in `training.train`, so `objective` never reaches the network
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "objective.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any(name == "predictor" or name.endswith(".predictor") for name in imported), sorted(imported)
