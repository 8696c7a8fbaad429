"""Statistics over per-agent outcomes: spread, percentile gap, entropy, MSE.

All functions operate on the vector of per-agent mean regrets (or any
nonnegative per-agent score) and are pure.
"""

from __future__ import annotations

import numpy as np


def variance(values) -> float:
    """Population variance (divide by M, not M-1) of the per-agent scores."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("variance of an empty vector is undefined")
    return float(np.mean((v - v.mean()) ** 2))


def _percentile(sorted_values: np.ndarray, p: float) -> float:
    # linear interpolation at fractional rank (M-1)*p
    rank = (sorted_values.size - 1) * p
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    if lo == hi:
        return float(sorted_values[lo])
    frac = rank - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


def percentile_gap(values) -> float:
    """Difference between the 95th and 5th percentiles (linear interpolation)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("percentile gap of an empty vector is undefined")
    return _percentile(v, 0.95) - _percentile(v, 0.05)


def norm_entropy(values, exponent: float = 1.0):
    """Entropy of the scores raised to `exponent` and normalized to a distribution.

    Reduces over the last axis: a 1-D vector (or a scalar, a vector of one)
    gives a float, an (..., M) array one entropy per row.  Uses natural log
    and the 0*log(0) = 0 convention.  An all-zero row maps to log(M): zero
    regret everywhere counts as perfectly uniform.  A row holding a NaN or an
    infinity (also one that raising to `exponent` overflows to) maps to NaN.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("entropy of an empty vector is undefined")
    if np.any(v < 0):
        raise ValueError("entropy requires nonnegative entries")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    w = (v**exponent).reshape(-1, v.shape[-1])
    total = w.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = w / total
        h = -np.sum(p * np.log(p), axis=1)
    # a row with a share that is not positive sums its positive shares only,
    # in order, so that it is summed as the 1-D form always summed it; a row
    # with a NaN or infinite value keeps the NaN entropy computed above
    for i in np.flatnonzero(~np.all(p > 0, axis=1) & np.all(np.isfinite(w), axis=1)):
        nz = p[i][p[i] > 0]
        h[i] = np.log(v.shape[-1]) if total[i, 0] == 0.0 else -np.sum(nz * np.log(nz))
    return float(h[0]) if v.ndim == 1 else h.reshape(v.shape[:-1])


def mse(preds, targets) -> float:
    """Sum over agents of the per-agent mean squared residual norm.

    `preds` and `targets` are per-agent sequences of arrays shaped (N_m,) or
    (N_m, O); the squared error of a sample is the squared euclidean norm of
    its residual vector.
    """
    if len(preds) != len(targets):
        raise ValueError(f"got {len(preds)} prediction groups vs {len(targets)} target groups")
    total = 0.0
    for p, t in zip(preds, targets):
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        if p.shape != t.shape:
            raise ValueError(f"prediction shape {p.shape} != target shape {t.shape}")
        if p.shape[0] == 0:
            raise ValueError("empty agent group in mse")
        resid = (p - t).reshape(p.shape[0], -1)
        total += float(np.mean(np.sum(resid**2, axis=1)))
    return total
