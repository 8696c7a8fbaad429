"""Windowed feedforward forecaster with hand-rolled reverse-mode derivatives.

The network maps a flattened lookback window to a prediction vector through
tanh hidden layers and a linear output layer.  Parameters live in a single
flat float64 vector (`ParamVector`) so optimizers, checkpoints, and gradient
checks all see one array.  The network runs on (B, n_in) batches only:
`forward_batch` evaluates it and `vjp_batch` backpropagates a cotangent on
its outputs, which is all the three gradient routes need (the score-function
route's Gaussian head lives in `objective.pg_grad`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat parameter vector plus the (layer, rows, cols, bias) layout that shapes it."""

    values: np.ndarray
    layout: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        expected = sum(r * c + b for (_, r, c, b) in self.layout)
        if self.values.shape != (expected,):
            raise ValueError(
                f"parameter vector has length {self.values.size}, layout needs {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite entries")

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.layout[0][2]]
        sizes.extend(shape[1] for shape in self.layout)
        return sizes

    @property
    def n_inputs(self) -> int:
        return self.layout[0][2]

    @property
    def n_outputs(self) -> int:
        return self.layout[-1][1]

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values=np.asarray(values, dtype=float), layout=self.layout)


def init_params(arch, seed: int) -> ParamVector:
    """Fan-in uniform weights, zero biases; deterministic for a fixed seed."""
    arch = [int(n) for n in arch]
    if len(arch) < 2:
        raise ConfigError(f"architecture needs an input and an output size, got {arch}")
    if any(n < 1 for n in arch):
        raise ConfigError(f"layer sizes must be >= 1, got {arch}")
    rng = np.random.default_rng(seed)
    chunks = []
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(arch[:-1], arch[1:])):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
        layout.append((i, fan_out, fan_in, fan_out))
    return ParamVector(values=np.concatenate(chunks), layout=tuple(layout))


def unpack(params: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into (weight matrix, bias vector) pairs."""
    out = []
    offset = 0
    for (_, rows, cols, blen) in params.layout:
        w = params.values[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
        b = params.values[offset : offset + blen]
        offset += blen
        out.append((w, b))
    return out


class Activations(NamedTuple):
    """One forward pass's activations [X, h1, ..., output] and the parameter values it ran with."""

    values: np.ndarray
    layers: list[np.ndarray]


def _forward_cached(params: ParamVector, X: np.ndarray) -> list[np.ndarray]:
    """Return activations [X, h1, ..., output] for a (B, n_in) batch."""
    layers = unpack(params)
    acts = [X]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        acts.append(z if i == len(layers) - 1 else np.tanh(z))
    return acts


def forward_batch(params: ParamVector, X, keep: bool = False):
    """Deterministic forward pass over a (B, n_in) batch of windows.

    With `keep` it returns (outputs, activations), the activations being
    what `vjp_batch` needs to backpropagate through this pass.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        raise ValueError(f"expected batch of shape (B, {params.n_inputs}), got {X.shape}")
    acts = _forward_cached(params, X)
    return (acts[-1], Activations(params.values, acts)) if keep else acts[-1]


def vjp_batch(params: ParamVector, X, cotangents, acts: Activations) -> np.ndarray:
    """Sum over the batch of cotangent^T * d(output)/d(params), as a flat vector.

    `acts` are the activations `forward_batch(params, X, keep=True)`
    returned; activations of other parameter values (another array object)
    or of another batch are refused.
    """
    X = np.asarray(X, dtype=float)
    cot = np.asarray(cotangents, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        raise ValueError(f"expected batch of shape (B, {params.n_inputs}), got {X.shape}")
    if cot.shape != (X.shape[0], params.n_outputs):
        raise ValueError(
            f"expected cotangents of shape ({X.shape[0]}, {params.n_outputs}), got {cot.shape}"
        )
    if acts.values is not params.values:
        raise ValueError("activations were not computed with these parameter values")
    layers = unpack(params)
    kept = acts.layers
    if len(kept) != len(layers) + 1 or not (kept[0] is X or np.array_equal(kept[0], X)):
        raise ValueError("activations were not computed from this batch")
    grads = [None] * len(layers)
    delta = cot
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = delta.T @ kept[i]
        gb = delta.sum(axis=0)
        grads[i] = (gw, gb)
        if i > 0:
            delta = (delta @ w) * (1.0 - kept[i] ** 2)
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a checkpoint object")
    for key in ("layer_sizes", "std", "lookback", "values"):
        if key not in doc:
            raise ConfigError(f"checkpoint missing field '{key}'")
    sizes = [int(n) for n in doc["layer_sizes"]]
    layout = tuple(
        (i, sizes[i + 1], sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)
    )
    params = ParamVector(values=np.asarray(doc["values"], dtype=float), layout=layout)
    meta = {"std": float(doc["std"]), "lookback": int(doc["lookback"])}
    meta.update(doc.get("extra", {}))
    return params, meta
