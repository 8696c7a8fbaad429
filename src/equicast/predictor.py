"""Windowed feedforward forecaster with hand-rolled reverse-mode derivatives.

The network maps a flattened lookback window to a prediction vector through
tanh hidden layers and a linear output layer.  A model is one flat float64
vector, each layer's weight matrix row by row then its biases, and the layer
sizes [n_in, h_1, ..., n_out] (`ParamVector`), so optimizers, checkpoints
and gradient checks all see one array.  Construction checks both and builds
each layer's (weight, bias) pair once as views into the vector, which an
in-place update keeps current.  The network runs on (B, n_in) batches only:
`forward_batch` evaluates it and `vjp_batch` backpropagates a cotangent on
its outputs, which is all the three gradient routes need (the score-function
route's Gaussian head lives in `objective.pg_grad`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, read_object


def _checked_sizes(layer_sizes) -> tuple[int, ...]:
    """The layer sizes as a tuple of ints: at least two, each >= 1."""
    try:
        sizes = tuple(operator.index(n) for n in layer_sizes)
    except TypeError as exc:
        raise ConfigError(f"layer sizes must be a list of integers, got {layer_sizes!r}") from exc
    if len(sizes) < 2:
        raise ConfigError(f"architecture needs an input and an output size, got {list(sizes)}")
    if any(n < 1 for n in sizes):
        raise ConfigError(f"layer sizes must be >= 1, got {list(sizes)}")
    return sizes


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat parameter vector plus the layer sizes that shape it; `layers` holds its (weight, bias) views."""

    values: np.ndarray
    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _checked_sizes(self.layer_sizes)
        values = np.asarray(self.values, dtype=float)
        shapes = list(zip(sizes[1:], sizes[:-1]))
        expected = sum(rows * (cols + 1) for rows, cols in shapes)
        if values.shape != (expected,):
            raise ConfigError(f"parameter vector has shape {values.shape}, layer sizes {list(sizes)} need ({expected},)")
        if not np.all(np.isfinite(values)):
            raise ConfigError("parameter vector contains non-finite entries")
        layers, offset = [], 0
        for rows, cols in shapes:
            w = values[offset : offset + rows * cols].reshape(rows, cols)
            offset += rows * cols
            layers.append((w, values[offset : offset + rows]))
            offset += rows
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values=values, layer_sizes=self.layer_sizes)


def init_params(arch, seed: int) -> ParamVector:
    """Fan-in uniform weights, zero biases; deterministic for a fixed seed."""
    sizes = _checked_sizes(arch)
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        chunks += [rng.uniform(-bound, bound, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return ParamVector(values=np.concatenate(chunks), layer_sizes=sizes)


class Activations(NamedTuple):
    """One forward pass's activations [X, h1, ..., output] and the parameter values it ran with."""

    values: np.ndarray
    layers: list[np.ndarray]


def forward_batch(params: ParamVector, X, keep: bool = False):
    """Deterministic forward pass over a (B, n_in) batch of windows.

    With `keep` it returns (outputs, activations), the activations being
    what `vjp_batch` needs to backpropagate through this pass.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        raise ValueError(f"expected batch of shape (B, {params.n_inputs}), got {X.shape}")
    acts = [X]
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        z = acts[-1] @ w.T
        z += b
        acts.append(z if i == last else np.tanh(z, out=z))
    return (acts[-1], Activations(params.values, acts)) if keep else acts[-1]


def vjp_batch(params: ParamVector, X, cotangents, acts: Activations) -> np.ndarray:
    """Sum over the batch of cotangent^T * d(output)/d(params), as a flat vector.

    `acts` are the activations `forward_batch(params, X, keep=True)`
    returned; activations of other parameter values (another array object)
    or of another batch are refused.  Each layer's weight and bias gradients
    are written into their views of one new flat vector, laid out as the
    parameters are.
    """
    X = np.asarray(X, dtype=float)
    cot = np.asarray(cotangents, dtype=float)
    if acts.values is not params.values:
        raise ValueError("activations were not computed with these parameter values")
    layers, kept = params.layers, acts.layers
    # X must be the batch `forward_batch` checked, so it has its (B, n_in) shape
    if len(kept) != len(layers) + 1 or not (kept[0] is X or np.array_equal(kept[0], X)):
        raise ValueError("activations were not computed from this batch")
    if cot.shape != (X.shape[0], params.n_outputs):
        raise ValueError(f"expected cotangents of shape ({X.shape[0]}, {params.n_outputs}), got {cot.shape}")
    grad = np.empty(params.values.size)
    end, delta = grad.size, cot
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        start = end - w.size - b.size  # layer i's weights, row by row, then its biases
        np.matmul(delta.T, kept[i], out=grad[start : start + w.size].reshape(w.shape))
        delta.sum(axis=0, out=grad[start + w.size : end])
        end = start
        if i > 0:
            dtanh = np.square(kept[i])  # tanh' = 1 - h^2, in one work array
            np.subtract(1.0, dtanh, out=dtanh)
            delta = delta @ w
            delta *= dtanh
    return grad


# ---------------------------------------------------------------------------
# Checkpoint format: a single JSON document.  Floats round-trip bit-exactly
# because json serializes doubles via repr.


def save_checkpoint(path, params: ParamVector, std: float, lookback: int, extra: dict | None = None) -> None:
    doc = {
        "layer_sizes": params.layer_sizes,
        "std": float(std),
        "lookback": int(lookback),
        "values": [float(v) for v in params.values],
    }
    if extra:
        doc["extra"] = extra
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path) -> tuple[ParamVector, dict]:
    """The parameters and the header {"std", "lookback", "extra"} of a checkpoint; a malformed one is refused."""
    doc = read_object(path, ConfigError)
    for key in ("layer_sizes", "std", "lookback", "values"):
        if key not in doc:
            raise ConfigError(f"{path}: checkpoint missing field '{key}'")
    if not (isinstance(doc["values"], list) and all(type(v) in (int, float) for v in doc["values"])):
        raise ConfigError(f"{path}: 'values' must be a list of numbers")
    try:
        params = ParamVector(values=doc["values"], layer_sizes=doc["layer_sizes"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    std, lookback, extra = doc["std"], doc["lookback"], doc.get("extra", {})
    if type(std) not in (int, float) or not (math.isfinite(std) and std > 0):
        raise ConfigError(f"{path}: 'std' must be a finite number > 0, got {std!r}")
    if type(lookback) is not int or lookback < 1:
        raise ConfigError(f"{path}: 'lookback' must be an integer >= 1, got {lookback!r}")
    if not isinstance(extra, dict):
        raise ConfigError(f"{path}: 'extra' must be an object, got {extra!r}")
    # `extra` keeps its own key, so it can never stand in for a header field
    return params, {"std": float(std), "lookback": lookback, "extra": extra}
