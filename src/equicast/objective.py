"""The fairness-weighted training objective and its two gradient routes.

The loss aggregates per-agent mean regrets r_m as sum_m r_m^(q+1).  Raising
q shifts weight onto the worst-off agents; q = 0 recovers the plain sum.  A
mixing weight beta in [0, 1] blends in the forecaster's own squared error,
trading fairness against accuracy.

Both gradient routes are pure functions of the model outputs: each returns
the (R, O) cotangent dL/dy_hat, and the trainer backpropagates it with the
network's one vjp.

* `chain_grad` is exact: each row's derivative of its regret with respect
  to the model output (adapter, policy and cost derivatives chained, built
  as arrays by the caller) is weighted by its agent's share of the loss
  gradient and blended with the squared-error residual.  The caller passes
  the agents' mean regrets, which it already holds for the loss, and the
  batch size b: the rows are M agents' blocks of b rows, and the op repeats
  each agent's regret weight over its block.  It needs every factor to
  exist (differentiable costs only).
* `pg_grad` is the score-function estimator the trainer applies: D draws
  eps_d of the Gaussian head, each weighted by its loss minus its baseline,
  fold into one cotangent sum_d w_d * eps_d per row (a draw's log-density
  gradient is the vjp of eps_d / std, and the vjp is linear in its
  cotangent).  It only needs cost *values*, so it covers discrete actions.
"""

from __future__ import annotations

import numpy as np

from .agents import REGRET_TOLERANCE


def _clean_regrets(mean_regrets) -> np.ndarray:
    r = np.asarray(mean_regrets, dtype=float)
    if r.size == 0:
        raise ValueError("need at least one agent")
    if (r < -REGRET_TOLERANCE).any():
        raise ValueError(f"mean regret below -{REGRET_TOLERANCE}: {r.min()}")
    return r.clip(0.0, None)


def equitable_loss(mean_regrets, q: float) -> float | np.ndarray:
    """sum_m r_m^(q+1) over per-agent mean regrets, the last axis.

    A float for an (M,) vector, and one loss per row, (D,), for (D, M): the
    pg step scores its D draws in one call.
    """
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    r = _clean_regrets(mean_regrets)
    loss = (r ** (q + 1.0)).sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def chain_grad(y_hat, y, means, slope, b: int, q: float, beta: float) -> np.ndarray:
    """The cotangent dL/dy_hat of the blended objective along the differentiable path.

    The R = M*b rows come in agent order, b rows of each of the M agents.
    `y_hat` and `y` are the model's outputs and targets on its own
    (normalized) scale, `means` (M,) the agents' mean regrets rbar_m over
    their rows and `slope` (R, O) each row's derivative of its regret with
    respect to the model output (`means` sets M; neither its values nor
    `slope` are read at beta = 1).  Row i of agent m gets the cotangent
        (1-beta) * (q+1) * rbar_m^q / b * slope_i + beta * (2/b) * (y_hat_i - y_i).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if len(means) * b != len(y_hat):
        raise ValueError(f"{len(means)} agents of {b} rows for {len(y_hat)} rows")
    if beta == 1.0:  # assigned, not added to zeros, which would turn a -0.0 into +0.0
        return beta * (2.0 / b) * (y_hat - y)
    rbar = np.clip(means, 0.0, None)
    weight = (1.0 - beta) * ((q + 1.0) * rbar**q / b)
    cots = np.zeros_like(y_hat)
    cots += np.repeat(weight, b)[:, None] * slope
    if beta > 0.0:
        cots += beta * (2.0 / b) * (y_hat - y)
    return cots


def pg_grad(eps, losses, baseline, std: float) -> np.ndarray:
    """The score-function cotangent on the outputs, averaged over D draws of the Gaussian head.

    `eps` (D, R, O) holds the standard-normal draws behind the sampled
    outputs y_hat + std * eps of R rows, `losses` (D,) each draw's batch loss
    and `baseline` a scalar or (D,) array subtracted from it; a draw's
    baseline must not depend on that draw.  Returns the (R, O) cotangent
        sum_d (losses_d - baseline_d) / (D * std) * eps_d,
    whose vjp is the mean over draws of the per-draw estimates.  It is folded
    by the one `np.dot` that `np.tensordot(weights, eps, axes=1)` runs.
    """
    n_draws, rows, n_out = eps.shape
    weights = (losses - baseline) / (n_draws * std)
    return np.dot(weights.reshape(1, -1), eps.reshape(n_draws, -1)).reshape(rows, n_out)


# ---------------------------------------------------------------------------
# Dual-norm identity


def holder_max_value(mean_regrets, q: float) -> float | np.ndarray:
    """max over ||v||_p <= 1 of sum_m v_m r_m with 1/p + 1/(q+1) = 1, over the last axis.

    Computed through the explicit maximizer v_m proportional to r_m^q
    (v = all-ones when q = 0, where p is infinite).  A float for an (M,)
    vector, and one value per row, (K,), for (K, M); an all-zero row's value
    is 0.
    """
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    r = _clean_regrets(mean_regrets)
    if q == 0:
        value = r.sum(axis=-1)
    else:
        p = (q + 1.0) / q
        # the maximizer is invariant to scaling r, so normalize before the q-th
        # power to keep tiny regrets from underflowing; an all-zero row's w
        # and norm are 0, and its v stays 0
        top = r.max(axis=-1, keepdims=True)
        w = (r / np.where(top > 0.0, top, 1.0)) ** q
        # each row's root is a scalar power: numpy's array `**` may round it otherwise
        norm = np.array([s ** (1.0 / p) for s in np.ravel(np.sum(w**p, axis=-1)).tolist()]).reshape(top.shape)
        value = np.sum(w / np.where(norm > 0.0, norm, 1.0) * r, axis=-1)
    return float(value) if value.ndim == 0 else value
