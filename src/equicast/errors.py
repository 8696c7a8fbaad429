"""Exception types shared across the package, and `check_fields`: the type check of a
JSON object (a config, an `agents.json` entry) against the dataclass it builds."""

import dataclasses
import sys
import typing


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleActionError(ValueError):
    """An action violates the feasibility constraints of its decision problem."""


class SchemaError(ValueError):
    """An input file does not match its declared schema."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, gradient or parameters, or evaluation a non-finite summary.

    Carries enough context (phase, step, agent, offending values) to locate the
    blow-up; an evaluation's message names its non-finite summary fields.
    """

    def __init__(self, message, step=None, agent_id=None, values=None, phase="training"):
        super().__init__(message)
        self.phase = phase  # "training" or "evaluation"
        self.step = step
        self.agent_id = agent_id
        self.values = values


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
        elif want in (bool, int, float, str):
            ok, wanted = type(value) is want or (want is float and type(value) is int), want.__name__
        else:
            continue
        numbers = value if want is tuple else [value] if want is float else []
        if ok and not all(abs(v) <= sys.float_info.max for v in numbers):  # NaN, inf, an int past float
            ok, wanted = False, "finite"
        if not ok:
            raise ConfigError(f"{what} field '{name}' must be {wanted}, got {value!r}")
