import json
import warnings

import pytest

from equicast import cli, harness, predictor, training, verify
from equicast.errors import ConfigError
from equicast.harness import config_from_dict


def tiny_config(**overrides):
    doc = {
        "application": "datacenter",
        "n_agents": 3,
        "heterogeneity": "different",
        "lambda_scheme": "grid",
        "length": 80,
        "lookback": 6,
        "hidden": 4,
        "seed": 0,
        "train": {"mode": "plain", "lr": 0.05, "epochs": 2, "batch_size": 16},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_json_and_toml_agree(tmp_path):
    doc = tiny_config()
    json_path = write_config(tmp_path, doc)
    toml_lines = [
        'application = "datacenter"', "n_agents = 3", 'heterogeneity = "different"',
        'lambda_scheme = "grid"', "length = 80", "lookback = 6", "hidden = 4", "seed = 0",
        "[train]", 'mode = "plain"', "lr = 0.05", "epochs = 2", "batch_size = 16",
    ]
    toml_path = tmp_path / "config.toml"
    toml_path.write_text("\n".join(toml_lines) + "\n")
    assert cli.load_config(json_path) == cli.load_config(toml_path)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"applicaton": "datacenter"})
    with pytest.raises(ConfigError, match="unknown train config"):
        config_from_dict({"train": {"learning_rate": 0.1}})


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1


def test_generate_writes_pool_files(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "agents.json").exists()
    assert (out / "signal.csv").exists()
    assert (out / "workloads.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["application"] == "datacenter"
    assert "config_hash" in meta and "heterogeneity_summary" in meta
    pool = json.loads((out / "agents.json").read_text())
    assert len(pool["agents"]) == 3


def test_generate_agent_counts_scale(tmp_path):
    dc = write_config(tmp_path, tiny_config(n_agents=50, length=40, lookback=4), "dc.json")
    out = tmp_path / "dc"
    assert cli.main(["generate", "--config", dc, "--out", str(out)]) == 0
    assert len(json.loads((out / "agents.json").read_text())["agents"]) == 50

    ev = write_config(
        tmp_path,
        tiny_config(application="charging", n_agents=70, length=40, lookback=4, horizon=6),
        "ev.json",
    )
    out = tmp_path / "ev"
    assert cli.main(["generate", "--config", ev, "--out", str(out)]) == 0
    assert len(json.loads((out / "agents.json").read_text())["agents"]) == 70


def test_generate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["generate", "--config", cfg, "--out", str(out_a)])
    cli.main(["generate", "--config", cfg, "--out", str(out_b)])
    for name in ("agents.json", "signal.csv", "workloads.csv", "target_m001.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_emits_outputs_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    assert cli.main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    summary = json.loads((out_a / "summary.json").read_text())
    for key in ("variance", "mean", "c95_minus_c5", "mse", "entropy"):
        assert key in summary["summary"]
    assert summary["config_hash"] == harness.config_hash(cli.load_config(cfg))
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
    # the step log's squared error is in normalized units, unlike summary.json's mse
    assert (out_a / "steps.csv").read_text().splitlines()[1] == "step,lr,equitable,mse_norm,combined"
    params, meta = predictor.load_checkpoint(out_a / "checkpoint.json")
    assert params.values.size > 0 and meta["lookback"] == 6


def test_train_on_generated_files_roundtrip(tmp_path):
    cfg_doc = tiny_config()
    cfg = write_config(tmp_path, cfg_doc)
    data_dir = tmp_path / "data"
    cli.main(["generate", "--config", cfg, "--out", str(data_dir)])

    cfg_doc["data_dir"] = str(data_dir)
    cfg_file = write_config(tmp_path, cfg_doc, "config_files.json")
    out = tmp_path / "run_files"
    assert cli.main(["train", "--config", cfg_file, "--out", str(out)]) == 0
    # in-memory pool and file-loaded pool give the same summary
    out_mem = tmp_path / "run_mem"
    cli.main(["train", "--config", cfg, "--out", str(out_mem)])
    mem = json.loads((out_mem / "summary.json").read_text())["summary"]
    files = json.loads((out / "summary.json").read_text())["summary"]
    assert mem["per_agent_regret"] == pytest.approx(files["per_agent_regret"], rel=1e-9)


def test_train_refuses_data_dir_of_another_pool(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    # these trained the files' 3-agent, 80-row data-center pool under another config
    for override in ({"application": "charging"}, {"n_agents": 7}, {"length": 500}, {"lambda_scheme": "same"}):
        cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir), **override), "other.json")
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert next(iter(override)) in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_train_refuses_non_positive_realized_intensity(tmp_path, capsys):
    cfg_doc = tiny_config()
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, cfg_doc), "--out", str(data_dir)]) == 0
    target = data_dir / "target_m001.csv"
    lines = target.read_text().splitlines()
    rows = [line.split(",")[0] + ",0.0" if line[:1].isdigit() else line for line in lines]
    target.write_text("\n".join(rows) + "\n")
    cfg_doc["data_dir"] = str(data_dir)
    # the pool scores every row's hindsight when it is built: every mode is
    # refused before step 0, at the first part it scores
    for mode in ("chain", "pg", "plain"):
        cfg_doc["train"]["mode"] = mode
        cfg = write_config(tmp_path, cfg_doc, f"{mode}.json")
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / mode)]) == 1
        err = capsys.readouterr().err
        assert "error: data-center agent 1, train split: realized intensity must be positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / mode / "checkpoint.json").exists()


def test_plain_train_refuses_a_zero_intensity_in_one_training_row(tmp_path, capsys):
    # plain training used to accept it: it never scored a training row, and
    # the evaluation that followed scored the test rows only
    cfg_doc = tiny_config(chronological=True)
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, cfg_doc), "--out", str(data_dir)]) == 0
    target = data_dir / "target_m001.csv"
    lines = target.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    at = first + cfg_doc["lookback"]  # the realized intensity of window 0, a training row
    lines[at] = lines[at].split(",")[0] + ",0.0"
    target.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, dict(cfg_doc, data_dir=str(data_dir)), "files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error: data-center agent 1, train split: realized intensity must be positive, got 0.0" in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_train_charging_and_mixed(tmp_path):
    ev = write_config(
        tmp_path,
        tiny_config(application="charging", n_agents=4, horizon=6, length=90,
                    train={"mode": "pg", "lr": 0.01, "epochs": 2, "batch_size": 16,
                           "pg_samples": 2, "std": 0.3}),
        "ev.json",
    )
    assert cli.main(["train", "--config", ev, "--out", str(tmp_path / "ev_run")]) == 0
    mixed = write_config(
        tmp_path,
        tiny_config(application="mixed", n_agents=6, horizon=6, length=90,
                    train={"mode": "pg", "lr": 0.01, "epochs": 2, "batch_size": 16,
                           "pg_samples": 2, "std": 0.3}),
        "mixed.json",
    )
    assert cli.main(["train", "--config", mixed, "--out", str(tmp_path / "mx_run")]) == 0


def test_train_mixed_pool_from_its_files(tmp_path):
    # mixed pools used to be refused by generate, so no data_dir could hold one
    doc = tiny_config(application="mixed", n_agents=6, horizon=6, length=90)
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, doc), "--out", str(data_dir)]) == 0
    assert (data_dir / "outcome_m005.csv").exists() and not (data_dir / "workloads.csv").exists()
    cfg = write_config(tmp_path, {**doc, "data_dir": str(data_dir)}, "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "from_files")]) == 0
    assert cli.main(["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "memory")]) == 0
    from_files = json.loads((tmp_path / "from_files" / "summary.json").read_text())["summary"]
    memory = json.loads((tmp_path / "memory" / "summary.json").read_text())["summary"]
    assert from_files == memory


def test_corrupt_meta_json_is_a_schema_error(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    (data_dir / "meta.json").write_text('{"application": "datacenter",')  # used to end in a JSONDecodeError traceback
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "meta.json: not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("config", [1, 2], "meta.json: 'config' must be an object"),  # used to end in an AttributeError traceback
    ("outcome_refs", [1, 2, 3], "meta.json: 'outcome_refs' must be null or a list of 3 file names"),  # a TypeError
])
def test_malformed_meta_json_is_a_schema_error(tmp_path, capsys, key, value, message):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    meta = json.loads((data_dir / "meta.json").read_text())
    (data_dir / "meta.json").write_text(json.dumps({**meta, key: value}))
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_workloads_of_other_agent_ids_are_a_schema_error(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    path = data_dir / "workloads.csv"  # agent 2's rows relabelled as agent 7 used to train
    path.write_text("\n".join(
        line.replace(",2,", ",7,") if line[:1].isdigit() else line for line in path.read_text().splitlines()
    ) + "\n")
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "workloads.csv has agent ids [0, 1, 7] but agents.json has [0, 1, 2]" in err and "Traceback" not in err


def test_non_integer_workload_agent_id_is_a_schema_error(tmp_path, capsys):
    # int() read agent 1.5 as agent 1, and the pool trained
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    path = data_dir / "workloads.csv"
    lines = [line.replace(",1,", ",1.5,") if line[:1].isdigit() else line for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    first = next(n for n, line in enumerate(lines, start=1) if ",1.5," in line)
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {path}:{first}: column 'agent_id' is not an integer: '1.5'\n"
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_datacenter_data_dir_without_workloads_is_refused(tmp_path, capsys):
    # each agent used to train on its constant median workload
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    (data_dir / "workloads.csv").unlink()
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data_dir / "workloads.csv") in err and "Traceback" not in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_context_workload_other_than_its_workload_row_is_a_schema_error(tmp_path, capsys):
    # a data-center pool takes each row's workload from workloads.csv, so an
    # edited context workload used to train silently
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    path = data_dir / "agents.json"
    doc = json.loads(path.read_text())
    median = doc["agents"][1]["context"]["workload"]
    path.write_text(json.dumps(_entry(doc, 1, context={**doc["agents"][1]["context"], "workload": 12345.0})))
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}: agent 1 has context workload 12345.0 "
                   f"but the median of its row in workloads.csv is {median!r}\n")
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_series_too_short_for_one_window_is_a_usage_error(tmp_path, capsys):
    # used to end in a ValueError traceback: 12 values hold no window of
    # lookback 12 and one step ahead
    cfg = write_config(tmp_path, tiny_config(length=12, lookback=12))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: series of length 12 is too short for lookback 12 + horizon 1\n"


def _replaced(d, fields):
    """`d` with `fields` replaced; a value of `...` drops the field."""
    return {k: v for k, v in {**d, **fields}.items() if v is not ...}


def _entry(doc, i, **fields):
    agents = list(doc["agents"])
    agents[i] = _replaced(agents[i], fields)
    return {"agents": agents}


def _context(doc, **fields):
    return _entry(doc, 0, context=_replaced(doc["agents"][0]["context"], fields))


# the object was iterated by its keys, the repeated id, a float or bool id,
# an unknown key and a non-finite number trained; the others ended in
# ValueError or TypeError tracebacks
@pytest.mark.parametrize("edit, message", [
    (lambda doc: {"agents": {str(a["agent_id"]): a for a in doc["agents"]}}, "expected an object with an 'agents' list"),
    (lambda doc: {"agents": [doc["agents"][0], 7, doc["agents"][2]]}, "agent entry 1 is not an object"),
    (lambda doc: {"agents": [{**a, "context": [1, 2]} for a in doc["agents"]]},
     "agent entry 0: agent field 'context' must be an object, got [1, 2]"),
    (lambda doc: {"agents": [{**a, "context": {**a["context"], "workload": "5"}} for a in doc["agents"]]},
     "agent entry 0: datacenter context field 'workload' must be float, got '5'"),
    (lambda doc: {"agents": [a if a["agent_id"] < 2 else {**a, "agent_id": 1} for a in doc["agents"]]},
     "agent entry 2 repeats agent_id 1"),
    (lambda doc: _entry(doc, 0, agent_id="x"), "agent entry 0: agent field 'agent_id' must be int, got 'x'"),
    (lambda doc: _entry(doc, 2, agent_id=2.5), "agent entry 2: agent field 'agent_id' must be int, got 2.5"),
    (lambda doc: _entry(doc, 2, agent_id=True), "agent entry 2: agent field 'agent_id' must be int, got True"),
    (lambda doc: _entry(doc, 0, colour="red"), "agent entry 0: unknown agent keys: ['colour']"),
    (lambda doc: _context(doc, latency_weight=...),
     "agent entry 0: DataCenterContext.__init__() missing 1 required positional argument: 'latency_weight'"),
    (lambda doc: _entry(doc, 0, data_ref=None), "agent 0 has no 'data_ref' file name"),
    (lambda doc: _entry(doc, 0, data_ref=...), "agent 0 has no 'data_ref' file name"),
    (lambda doc: _entry(doc, 0, data_ref=5), "agent entry 0: agent field 'data_ref' must be str, got 5"),
    (lambda doc: _context(doc, workload=float("nan")),
     "agent entry 0: datacenter context field 'workload' must be finite, got nan"),
    (lambda doc: _context(doc, workload=float("inf")),
     "agent entry 0: datacenter context field 'workload' must be finite, got inf"),
    (lambda doc: _context(doc, latency_weight=float("inf")),
     "agent entry 0: datacenter context field 'latency_weight' must be finite, got inf"),
])
def test_malformed_agents_json_is_a_schema_error(tmp_path, capsys, edit, message):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    path = data_dir / "agents.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("initial", -1.0, "initial charge must be nonnegative, got -1.0"),
    ("rate", 0.0, "charge rate must be positive, got 0.0"),
    ("horizon", 0, "horizon must be >= 1, got 0"),
    ("water_weight", -0.5, "mixing weights must be nonnegative"),
    ("price_weight", -0.5, "mixing weights must be nonnegative"),
])
def test_malformed_charging_context_is_a_schema_error(tmp_path, capsys, field, value, message):
    doc = tiny_config(application="charging", horizon=5)
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, doc), "--out", str(data_dir)]) == 0
    path = data_dir / "agents.json"
    path.write_text(json.dumps(_context(json.loads(path.read_text()), **{field: value})))
    cfg = write_config(tmp_path, dict(doc, data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {path}: agent entry 0: {message}\n"


@pytest.mark.parametrize("slots", [20, 5])
def test_charging_horizon_other_than_the_pools_is_a_config_error(tmp_path, capsys, slots):
    # 20 slots ended in an InfeasibleActionError traceback from the slot ranking,
    # 5 slots in another message from the trainer: one fault, two outcomes
    doc = tiny_config(application="charging")
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", write_config(tmp_path, doc), "--out", str(data_dir)]) == 0
    path = data_dir / "agents.json"
    ctx = json.loads(path.read_text())["agents"][0]["context"]
    path.write_text(json.dumps(_context(json.loads(path.read_text()), horizon=24,
                                        demand=ctx["initial"] + slots * ctx["rate"])))
    cfg = write_config(tmp_path, dict(doc, data_dir=str(data_dir)), "from_files.json")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: charging agent 0 has horizon 24 but the pool's targets have 12 values per row\n"


@pytest.mark.parametrize("application, override", [
    ("charging", {"lambda_scheme": "bogus"}),
    ("mixed", {"heterogeneity": "bogus"}),
    ("mixed", {"predict_target": "nonsense"}),
    ("datacenter", {"predict_target": "nonsense"}),
])
def test_enum_typo_is_a_usage_error(tmp_path, capsys, application, override):
    # each trained with exit 0: the application's generator does not read the field
    cfg = write_config(tmp_path, tiny_config(application=application, horizon=5, **override))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{next(iter(override))} must be one of" in err and "Traceback" not in err


def test_corrupt_checkpoint_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    (run / "checkpoint.json").write_text("{")  # used to end in a JSONDecodeError traceback
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "checkpoint.json: not valid JSON" in err and "Traceback" not in err


# each used to end in a traceback: UnicodeDecodeError (a byte that is not
# UTF-8), TOMLDecodeError (invalid TOML), ValueError (json's limit on an
# integer's digits) or RecursionError (nesting deeper than json recurses);
# a document that is not an object is refused as well
@pytest.mark.parametrize("name, edit, message", [
    ("config.json", lambda b: b + b"\xff", "not UTF-8 text"),
    ("config.json", lambda b: b'{"seed": ' + b"1" * 5000 + b"}", "not valid JSON"),
    ("config.json", lambda b: b"[" * 100000, "not valid JSON"),
    ("config.toml", lambda b: b"seed = 0  # \xff\n", "not UTF-8 text"),
    ("config.toml", lambda b: b"seed = \n", "not valid TOML"),
    ("checkpoint.json", lambda b: b + b"\xff", "not UTF-8 text"),
    ("meta.json", lambda b: b + b"\xff", "not UTF-8 text"),
    ("agents.json", lambda b: b + b"\xff", "not UTF-8 text"),
    ("target_m001.csv", lambda b: b + b"\xff", "not UTF-8 text"),
    ("config.json", lambda b: b"[1, 2]", "expected an object, got list"),
    ("checkpoint.json", lambda b: b'"values"', "expected an object, got str"),
    ("meta.json", lambda b: b"[]", "expected an object, got list"),
], ids=["json-bytes", "json-digits", "json-depth", "toml-bytes", "toml-syntax", "checkpoint", "meta", "agents", "series-csv",
        "json-array", "checkpoint-string", "meta-array"])
def test_undecodable_input_file_is_a_usage_error(tmp_path, capsys, name, edit, message):
    data_dir, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["generate", "--config", write_config(tmp_path, tiny_config()), "--out", str(data_dir)]) == 0
    cfg = write_config(tmp_path, tiny_config(data_dir=str(data_dir)))
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    path = (tmp_path if name.startswith("config") else run if name == "checkpoint.json" else data_dir) / name
    path.write_bytes(edit(path.read_bytes() if path.exists() else b""))
    args = ["evaluate", "--checkpoint", str(path)] if name == "checkpoint.json" else ["train"]
    args += ["--config", str(path) if name.startswith("config") else cfg, "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err


# each used to end in a traceback, or (the numeric string) to evaluate
@pytest.mark.parametrize("key, edit, message", [
    ("values", lambda v: v[:-1], "layer sizes [6, 4, 1] need (33,)"),
    ("values", lambda v: [repr(v[0])] + v[1:], "'values' must be a list of numbers"),
    ("values", lambda v: [float("nan")] + v[1:], "non-finite"),
    ("layer_sizes", lambda s: [6], "architecture needs an input and an output size, got [6]"),
    ("layer_sizes", lambda s: 6, "layer sizes must be a list of integers, got 6"),
])
def test_malformed_checkpoint_is_a_usage_error(tmp_path, capsys, key, edit, message):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    doc = json.loads((run / "checkpoint.json").read_text())
    (run / "checkpoint.json").write_text(json.dumps({**doc, key: edit(doc[key])}))
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'checkpoint.json'}: ") and message in err and "Traceback" not in err


# the strings trained as true, the other floats were accepted or ended in a
# TypeError traceback
@pytest.mark.parametrize("train, field, value, wanted", [
    (False, "chronological", "false", "bool"),
    (True, "pg_baseline", "no", "bool"),
    (False, "repeats", 1.5, "int"),
    (True, "lr_step", 1.5, "int"),
    (False, "n_agents", 2.5, "int"),
    (False, "lookback", 3.5, "int"),
    (False, "seed", 1.5, "int"),
    (True, "epochs", 1.5, "int"),
    (True, "batch_size", 4.5, "int"),
    (True, "pg_samples", 2.5, "int"),
    (False, "hidden", True, "int"),
    (False, "train_fraction", True, "float"),
    (True, "lr", "0.05", "float"),
    (False, "data_dir", 5, "str"),  # a TypeError traceback
    (False, "train", 5, "an object"),  # a TypeError traceback
    (False, "train", [1], "an object"),
    (False, "sweep_q_plus_1", 2.0, "a list of numbers"),  # a TypeError traceback
    (False, "sweep_q_plus_1", ["2"], "a list of numbers"),
    (False, "sweep_beta", [True], "a list of numbers"),  # trained as 1
    (False, "sweep_beta", 0.5, "a list of numbers"),  # a TypeError traceback
    (False, "sweep_q_plus_1", [10**400], "finite"),  # an OverflowError traceback
])
def test_config_field_of_another_type_is_a_usage_error(tmp_path, capsys, train, field, value, wanted):
    doc = tiny_config()
    (doc["train"] if train else doc)[field] = value
    assert cli.main(["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"field '{field}' must be {wanted}, got {value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


# NaN ended in a ValueError traceback (the charging signal mixes in the
# weight), an int too large for a float in an OverflowError
@pytest.mark.parametrize("name, text, shown", [
    ("config.json", json.dumps(tiny_config(application="charging", horizon=5, water_weight=float("nan"))), "nan"),
    ("config.toml", 'application = "charging"\nn_agents = 3\nhorizon = 5\nlength = 80\nlookback = 6\n'
                    'water_weight = nan\n[train]\nepochs = 2\n', "nan"),
    ("config.json", json.dumps(tiny_config(application="charging", horizon=5, water_weight=10**400)), repr(10**400)),
], ids=["json", "toml", "int-past-float"])
def test_nonfinite_config_float_is_a_usage_error(tmp_path, capsys, name, text, shown):
    (tmp_path / name).write_text(text)
    assert cli.main(["train", "--config", str(tmp_path / name), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field 'water_weight' must be finite, got {shown}\n") and "Traceback" not in err


def test_config_types_hold_for_toml_too(tmp_path, capsys):
    path = tmp_path / "config.toml"
    path.write_text('n_agents = 3\nlength = 80\nlookback = 6.0\n[train]\nepochs = 2\n')
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "config field 'lookback' must be int, got 6.0" in capsys.readouterr().err


def test_config_takes_ints_for_floats_and_null_where_none_is_the_default():
    doc = tiny_config(water_weight=2, train={"lr": 1, "std": None, "grad_clip": None, "q": 0})
    config = config_from_dict(doc)
    assert config.water_weight == 2 and config.train.lr == 1 and config.train.std is None
    assert config_from_dict(tiny_config(data_dir=None)).data_dir is None


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys, monkeypatch, jobs):
    # these used to exit 0 after quietly running one worker
    pools = []
    monkeypatch.setattr(harness, "build_pool", lambda *a: pools.append(a))
    rc = cli.main(["sweep", "--config", write_config(tmp_path, tiny_config()), "--jobs", jobs,
                   "--out", str(tmp_path / "sweep")])
    assert rc == 1
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert pools == [] and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("field, value, message", [
    ("sweep_q_plus_1", [], "sweep grids must be nonempty"),
    ("sweep_beta", [], "sweep grids must be nonempty"),
    ("repeats", 0, "repeats must be >= 1, got 0"),  # no seed axis
    # two cells labelled alike wrote two equal sweep.csv keys, and the second's regret file overwrote the first's
    ("sweep_q_plus_1", [1.0, 1.0000001],
     "sweep_q_plus_1 values [1.0, 1.0000001] print as ['1', '1'] in sweep files: each must print apart"),
    ("sweep_q_plus_1", [2, 2], "sweep_q_plus_1 values [2, 2] print as ['2', '2'] in sweep files: each must print apart"),
    ("sweep_beta", [0.5, 0.1, 0.1000001],
     "sweep_beta values [0.5, 0.1, 0.1000001] print as ['0.5', '0.1', '0.1'] in sweep files: each must print apart"),
], ids=["sweep_q_plus_1", "sweep_beta", "repeats", "sweep_q_plus_1_alike", "sweep_q_plus_1_repeated", "sweep_beta_alike"])
def test_sweep_refuses_an_empty_grid_before_it_makes_out(tmp_path, capsys, field, value, message):
    # this exited 1 but left an empty --out behind
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_config(tmp_path, tiny_config(**{field: value})), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("optimizer", "rmsprop", "optimizer must be one of ('sgd', 'adam'), got 'rmsprop'"),
    ("lr_step", 0, "lr_step must be >= 1, got 0"),
    ("epochs", 0, "epochs must be >= 1, got 0"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
], ids=["optimizer", "lr_step", "epochs", "batch_size"])
def test_train_config_refusal_is_a_usage_error(tmp_path, capsys, field, value, message):
    doc = tiny_config()
    doc["train"][field] = value
    assert cli.main(["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_evaluate_uses_checkpoint(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    cli.main(["train", "--config", cfg, "--out", str(run)])
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(out)])
    assert rc == 0
    trained = json.loads((run / "summary.json").read_text())["summary"]
    evaluated = json.loads((out / "summary.json").read_text())["summary"]
    assert trained["per_agent_regret"] == pytest.approx(evaluated["per_agent_regret"], rel=1e-12)


@pytest.mark.parametrize("override, message", [
    ({"hidden": 5}, "layer sizes [6, 4, 1]"),  # used to evaluate silently
    ({"lookback": 8}, "lookback 6"),  # used to die with a raw ValueError
])
def test_evaluate_refuses_mismatched_checkpoint(tmp_path, capsys, override, message):
    run = tmp_path / "run"
    cli.main(["train", "--config", write_config(tmp_path, tiny_config()), "--out", str(run)])
    cfg = write_config(tmp_path, tiny_config(**override), name="other.json")
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_evaluate_refuses_other_pools_target_stats(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    meta = json.loads((run / "checkpoint.json").read_text())["extra"]
    assert {"target_mean", "target_scale"} <= set(meta)
    # another seed synthesizes another pool; its stats used to de-normalize silently
    rc = cli.main(["evaluate", "--config", cfg, "--seed", "1", "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert "checkpoint target_mean" in capsys.readouterr().err


def test_evaluate_refuses_another_configs_checkpoint(tmp_path, capsys):
    # same pool, same layer sizes: the q=0 summary used to describe a q=4 model
    trained = tiny_config(train={**tiny_config()["train"], "q": 4.0})
    run = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path, trained), "--out", str(run)]) == 0
    cfg = write_config(tmp_path, tiny_config(), name="other.json")
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    hashes = (harness.config_hash(cli.load_config(cfg)), json.loads((run / "checkpoint.json").read_text())["extra"]["config_hash"])
    assert all(h in err for h in hashes) and "Traceback" not in err
    assert not (tmp_path / "eval" / "summary.json").exists()


def test_checkpoint_stores_the_pools_target_stats(tmp_path):
    # one public model, one output calibration: the mean and std of every
    # agent's raw training targets pooled, not any one agent's
    cfg = write_config(tmp_path, tiny_config())
    pool = harness.build_pool(cli.load_config(cfg), seed=0)
    train = pool.splits.train.rows
    stats = (pool.splits.mean, pool.splits.scale)
    assert stats == (float(train.y_raw.ravel().mean()), float(train.y_raw.ravel().std()))
    assert stats[0] != float(train.y_raw[: len(train.y_raw) // train.n_agents].mean())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    extra = json.loads((run / "checkpoint.json").read_text())["extra"]
    assert (extra["target_mean"], extra["target_scale"]) == stats


def test_evaluate_accepts_checkpoint_without_target_stats(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    doc = json.loads((run / "checkpoint.json").read_text())
    for key in ("target_mean", "target_scale"):
        del doc["extra"][key]
    (run / "checkpoint.json").write_text(json.dumps(doc))
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 0


@pytest.mark.parametrize("header, message", [
    ({"std": "abc"}, "'std' must be a finite number > 0, got 'abc'"),  # used to end in a ValueError
    ({"std": -1.0}, "'std' must be a finite number > 0, got -1.0"),  # used to load
    ({"std": float("nan")}, "'std' must be a finite number > 0, got nan"),  # used to load
    ({"lookback": "x"}, "'lookback' must be an integer >= 1, got 'x'"),  # used to end in a ValueError
    ({"lookback": True}, "'lookback' must be an integer >= 1, got True"),  # used to load as 1
    ({"extra": [1]}, "'extra' must be an object, got [1]"),  # used to end in a TypeError
    # `extra` used to override the header: its lookback 6 hid the header's 7
    ({"lookback": 7, "extra": {"lookback": 6}}, "checkpoint lookback 7 does not match the config's 6"),
], ids=["std-text", "std-negative", "std-nan", "lookback-text", "lookback-bool", "extra-list", "extra-override"])
def test_evaluate_refuses_a_malformed_checkpoint_header(tmp_path, capsys, header, message):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    doc = json.loads((run / "checkpoint.json").read_text())
    doc.update(header)
    (run / "checkpoint.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_negative_grad_clip_is_a_usage_error(tmp_path, capsys):
    # a negative clip used to train uphill without any error
    doc = tiny_config(train={"mode": "plain", "lr": 0.05, "epochs": 2, "batch_size": 16, "grad_clip": -1})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "grad_clip" in err and "Traceback" not in err


def test_divergence_exits_2(tmp_path, capsys):
    doc = tiny_config(train={"mode": "plain", "lr": 1e12, "epochs": 10, "batch_size": 16})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    # the message names the agent that went non-finite first
    err = capsys.readouterr().err
    assert err.startswith("training diverged: non-finite loss or gradient at step ") and err.endswith(" (agent 0)\n")


def test_non_finite_update_exits_2(tmp_path, capsys):
    # lr=1e308 overflows the parameters in the first update; this used to
    # end in a ValueError traceback with exit code 1
    doc = tiny_config(train={"mode": "plain", "lr": 1e308, "epochs": 2, "batch_size": 16})
    assert cli.main(["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "non-finite parameters after the update at step 0" in err and "Traceback" not in err


def test_non_finite_evaluation_exits_2(tmp_path, capsys):
    # one step at lr=1e300 leaves finite parameters whose test squared error
    # overflows: summary.json used to record "mse": Infinity, not valid JSON,
    # and the run exited 0; later numpy warned "overflow encountered in
    # square" on the way, and the message read "training diverged"
    doc = {"application": "datacenter", "n_agents": 3, "length": 60, "hidden": 4, "train": {"epochs": 1, "lr": 1e300}}
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "evaluation diverged: non-finite evaluation summary fields: mse" in err
        assert "training diverged" not in err and "Traceback" not in err
        assert not (tmp_path / "run" / "summary.json").exists()
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 2
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[-1].endswith(",failed")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "sweep", "verify"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # --seed -1 used to end in numpy's ValueError traceback (generate, train,
    # evaluate), or in a failed suite or sweep cell with exit 2 (verify, sweep)
    cfg = write_config(tmp_path, tiny_config())
    args = [command, "--config", cfg, "--seed", "-1"]
    if command == "evaluate":
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        args += ["--checkpoint", str(tmp_path / "run" / "checkpoint.json")]
    if command != "verify":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err


@pytest.mark.parametrize("override", [{"seed": -5}, {"train": {"mode": "plain", "seed": -5}}], ids=["top", "train"])
def test_negative_config_seed_is_a_usage_error(tmp_path, capsys, override):
    # a top-level "seed": -5 used to end in a traceback; a train seed of -5 was accepted
    cfg = write_config(tmp_path, tiny_config(**override))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -5" in err and "Traceback" not in err


def test_train_seed_is_a_usage_error(tmp_path, capsys):
    # trained at the top-level seed 0 and exited 0
    cfg = write_config(tmp_path, tiny_config(train={"mode": "plain", "seed": 3}))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "train.seed must be 0, got 3" in err and "'seed'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "sweep", "verify"])
def test_train_fraction_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # generate wrote a pool and verify passed, both with exit 0, while train refused the same file
    monkeypatch.setattr(verify, "run_all", lambda seed=0: [])
    cfg = write_config(tmp_path, tiny_config(train_fraction=1.5))
    args = [command, "--config", cfg]
    if command == "evaluate":
        args += ["--checkpoint", str(tmp_path / "checkpoint.json")]
    if command != "verify":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "train fraction must lie in (0, 1), got 1.5" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "meta.json").exists()


# each used to end in an OSError traceback: FileExistsError, IsADirectoryError, NotADirectoryError
@pytest.mark.parametrize("case", [
    "generate-out-is-a-file", "train-out-is-a-file", "evaluate-out-is-a-file",
    "config-is-a-directory", "checkpoint-is-a-directory", "data-dir-is-a-file",
])
def test_path_error_is_a_usage_error(tmp_path, capsys, case):
    cfg = write_config(tmp_path, tiny_config())
    a_file, a_dir, run = tmp_path / "a_file", tmp_path / "a_dir", str(tmp_path / "run")
    a_file.write_text("")
    a_dir.mkdir()
    args = {
        "generate-out-is-a-file": ["generate", "--config", cfg, "--out", str(a_file)],
        "train-out-is-a-file": ["train", "--config", cfg, "--out", str(a_file)],
        "evaluate-out-is-a-file": ["evaluate", "--config", cfg, "--checkpoint", str(a_dir), "--out", str(a_file)],
        "config-is-a-directory": ["train", "--config", str(a_dir), "--out", run],
        "checkpoint-is-a-directory": ["evaluate", "--config", cfg, "--checkpoint", str(a_dir), "--out", run],
        "data-dir-is-a-file": ["train", "--config", write_config(tmp_path, tiny_config(data_dir=str(a_file)), "files.json"),
                               "--out", run],
    }[case]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    named = a_file if "file" in case else a_dir
    assert err.startswith("error: ") and str(named) in err and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_refuses_an_out_it_cannot_make_before_it_trains(tmp_path, capsys, monkeypatch, jobs):
    # a file at --out used to end in a FileExistsError traceback after the whole sweep had trained
    sweeps, run_sweep = [], harness.run_sweep
    monkeypatch.setattr(harness, "run_sweep", lambda *a, **k: sweeps.append(a) or run_sweep(*a, **k))
    out = tmp_path / "sweep"
    out.write_text("")
    cfg = write_config(tmp_path, tiny_config(repeats=1, sweep_q_plus_1=[1, 2], sweep_beta=[0.0]))
    assert cli.main(["sweep", "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert sweeps == []


def test_sweep_rows_and_regret_files(tmp_path):
    doc = tiny_config(repeats=3, sweep_q_plus_1=[1, 2, 5], sweep_beta=[0.0])
    doc["train"].update({"mode": "pg", "pg_samples": 2, "std": 0.3, "lr": 0.01,
                         "optimizer": "adam", "grad_clip": 5.0, "pg_baseline": True})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "q_plus_1,beta,seed,variance,mean,c95_minus_c5,mse,status"
    rows = lines[2:]
    assert len(rows) == 9  # 3 q values x 1 beta x 3 repeats
    regret_files = sorted(out.glob("regrets_*.csv"))
    assert len(regret_files) == 9
    body = regret_files[0].read_text().splitlines()
    assert body[1] == "agent_id,mean_regret"
    assert len(body) == 2 + 3  # comment + header + one row per agent


def test_sweep_records_failures_and_continues(tmp_path, monkeypatch):
    doc = tiny_config(repeats=1, sweep_q_plus_1=[1, 2], sweep_beta=[0.0])
    cfg = write_config(tmp_path, doc)

    real = training.evaluate

    def flaky(params, agents, data, q=0.0, beta=0.0, seed=0):
        if q == 1.0:
            raise RuntimeError("injected failure")
        return real(params, agents, data, q=q, beta=beta, seed=seed)

    monkeypatch.setattr(training, "evaluate", flaky)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    lines = (out / "sweep.csv").read_text().splitlines()[2:]
    statuses = [line.split(",")[7] for line in lines]
    assert statuses == ["ok", "failed"]


def test_sweep_fails_every_cell_of_a_task_whose_pool_cannot_be_built(tmp_path, monkeypatch):
    # an error that is not a user error fails the task's cells, and the sweep writes its table
    def broken(config, seed):
        raise RuntimeError("injected pool failure")

    monkeypatch.setattr(harness, "build_pool", broken)
    cfg = write_config(tmp_path, tiny_config(repeats=2, sweep_q_plus_1=[1, 2], sweep_beta=[0.0]))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 2
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[2:]
    assert rows == [f"{qp1},0,{seed},,,,,failed" for qp1 in (1, 2) for seed in (0, 1)]


def test_sweep_cell_with_a_user_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a cell whose own outcome is a config error ends the sweep, as a task's does
    real = training.evaluate

    def refusing(params, agents, data, q=0.0, beta=0.0, seed=0):
        if q == 1.0:
            raise ConfigError("injected cell refusal")
        return real(params, agents, data, q=q, beta=beta, seed=seed)

    monkeypatch.setattr(training, "evaluate", refusing)
    cfg = write_config(tmp_path, tiny_config(repeats=1, sweep_q_plus_1=[1, 2], sweep_beta=[0.0]))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 1
    assert capsys.readouterr().err == "error: injected cell refusal\n"
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


# a user error in a cell ends the sweep with exit 1, as it ends `train`; it
# used to be recorded as a failed cell with exit 2
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("override, message", [
    ({"train_fraction": 1.0}, "train fraction must lie in (0, 1), got 1.0"),
    ({"application": "mixed", "n_agents": 6, "horizon": 6, "length": 90,
      "train": {"mode": "chain", "epochs": 2, "batch_size": 16}}, "chain mode needs differentiable costs"),
], ids=["train-fraction", "chain-on-mixed"])
def test_sweep_user_error_is_a_usage_error(tmp_path, capsys, jobs, override, message):
    doc = tiny_config(repeats=1, sweep_q_plus_1=[1, 2], sweep_beta=[0.0], **override)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert cli.main(["sweep", "--config", cfg, "--jobs", jobs, "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert err.count(message) == 2 and "Traceback" not in err
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_missing_data_dir_is_a_usage_error(tmp_path, capsys, jobs):
    # a missing data_dir used to be a failed cell in a sweep (exit 2) while `train` exits 1
    missing = tmp_path / "no_such_data"
    cfg = write_config(tmp_path, tiny_config(repeats=1, sweep_q_plus_1=[1, 2], sweep_beta=[0.0], data_dir=str(missing)))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert cli.main(["sweep", "--config", cfg, "--jobs", jobs, "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert err.count(str(missing / "meta.json")) == 2 and "Traceback" not in err
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [verify.SuiteResult("alpha", True, "fine")]
    monkeypatch.setattr(verify, "run_all", lambda seed=0: ok)
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] alpha" in out

    bad = [verify.SuiteResult("alpha", True, "fine"), verify.SuiteResult("beta", False, "broken")]
    monkeypatch.setattr(verify, "run_all", lambda seed=0: bad)
    assert cli.main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] beta" in out


def test_verify_runs_at_the_config_seed(tmp_path, monkeypatch, capsys):
    # --config used to be ignored: a missing file ran every suite at seed 0 and exited 0
    seeds = []
    monkeypatch.setattr(verify, "run_all", lambda seed=0: seeds.append(seed) or [verify.SuiteResult("a", True, "ok")])
    cfg = write_config(tmp_path, tiny_config(seed=5))
    assert cli.main(["verify"]) == 0
    assert cli.main(["verify", "--config", cfg]) == 0
    assert cli.main(["verify", "--config", cfg, "--seed", "3"]) == 0
    assert seeds == [0, 5, 3]
    assert cli.main(["verify", "--config", str(tmp_path / "nonexistent.json")]) == 1
    assert cli.main(["verify", "--config", write_config(tmp_path, {"sead": 1}, name="bad.json")]) == 1
    assert seeds == [0, 5, 3]
    assert "unknown config keys: ['sead']" in capsys.readouterr().err


def test_verify_negative_control(monkeypatch):
    # an injected oracle bug must be caught by the suite
    from equicast import agents as agents_module

    real = agents_module.dc_optimal

    def broken(ctx, c):
        p, cost = real(ctx, c)
        return p, cost - 0.01
    monkeypatch.setattr(agents_module, "dc_optimal", broken)
    result = verify.check_decision_oracles(n_cases=5, seed=0)
    assert not result.passed


def test_sweep_parallel_jobs_match_serial(tmp_path):
    doc = tiny_config(repeats=2, sweep_q_plus_1=[1, 2], sweep_beta=[0.0])
    cfg = write_config(tmp_path, doc)
    out_s, out_p = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out_s)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out_p), "--jobs", "2"]) == 0
    strip = lambda p: (p / "sweep.csv").read_text()
    assert strip(out_s) == strip(out_p)
