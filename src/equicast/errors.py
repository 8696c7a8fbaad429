"""Exception types shared across the package; `read_text` and `read_object`, the
one reader of input files; and `check_fields`: the type check of a JSON object
(a config, an `agents.json` entry) against the dataclass it builds."""

import dataclasses
import json
import sys
import typing
from pathlib import Path


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleActionError(ValueError):
    """An action violates the feasibility constraints of its decision problem."""


class SchemaError(ValueError):
    """An input file does not match its declared schema."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, gradient or parameters, or evaluation a non-finite summary.

    Carries enough context (phase, step, agent) to locate the blow-up; the
    message names the agent, when one is known, and an evaluation's message
    its non-finite summary fields.
    """

    def __init__(self, message, step=None, agent_id=None, phase="training"):
        super().__init__(message if agent_id is None else f"{message} (agent {agent_id})")
        self.phase = phase  # "training" or "evaluation"
        self.step = step
        self.agent_id = agent_id


# the errors a command reports as a usage error (exit 1): a bad config or
# input file, or a path that cannot be read or written
USER_ERRORS = (ConfigError, SchemaError, OSError)


def read_text(path, error) -> str:
    """The text of a UTF-8 file; other bytes raise `error` naming the file (a missing one is an `OSError`)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc


def read_object(path, error) -> dict:
    """The object a `.toml` file, or any other file as JSON, holds; else raises `error` naming the file."""
    text = read_text(path, error)
    if Path(path).suffix.lower() == ".toml":
        try:  # imported here: a command that reads no TOML file does not pay for the import
            import tomllib as toml
        except ModuleNotFoundError:  # python < 3.11
            import tomli as toml
        kind, parse = "TOML", toml.loads
    else:
        kind, parse = "JSON", json.loads
    try:
        doc = parse(text)
    except (ValueError, RecursionError) as exc:  # a syntax error, too deep a nesting, or too long an integer
        raise error(f"{path}: not valid {kind} ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected an object, got {type(doc).__name__}")
    return doc


def check_fields(cls, doc: dict, what: str) -> None:
    """Refuse unknown keys, and a field of `cls` given a value of another type.

    A bool, int, float or str field takes that JSON type (an int is a float;
    null fits `X | None`), a dataclass field an object, and a tuple field a
    list of numbers (not bools); a float and each number of a tuple must be
    finite.  Raises `ConfigError`; a file's reader words it as its own error.
    """
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for name, value in doc.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        want = kinds[0]
        if value is None and type(None) in kinds:
            continue
        if dataclasses.is_dataclass(want):
            ok, wanted = isinstance(value, dict), "an object"
        elif want is tuple:
            ok, wanted = isinstance(value, list) and all(type(v) in (int, float) for v in value), "a list of numbers"
        else:  # bool, int, float or str: every other field type of the checked dataclasses
            ok, wanted = type(value) is want or (want is float and type(value) is int), want.__name__
        numbers = value if want is tuple else [value] if want is float else []
        if ok and not all(abs(v) <= sys.float_info.max for v in numbers):  # NaN, inf, an int past float
            ok, wanted = False, "finite"
        if not ok:
            raise ConfigError(f"{what} field '{name}' must be {wanted}, got {value!r}")
