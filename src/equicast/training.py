"""Training loops and evaluation for the shared forecaster.

One step, three cotangents.  Every step gathers each agent's batch from
arrays stacked once per call (agents in order, b_m = min(batch_size, n_m)
rows of agent m), runs one forward over the M*b rows, builds a cotangent on
the model output and calls the vjp once.  The modes differ only in that
cotangent:

* plain: (2/b_m) * (y_hat - y), the squared-error gradient alone (the
  accuracy-first baseline; the beta = 1 slice of chain).
* chain: exact gradient through loss -> regret -> action -> forecast.  One
  batched data-center regret call also returns each row's d regret / d c_hat
  in closed form; times d c_hat / d y_hat (the target scale on output 0 for
  the `direct` adapter, target scale / O on every output for `window_mean`)
  it is weighted by (1-beta) * (q+1) * rbar_m^q / b_m and blended with
  beta * (2/b_m) * (y_hat - y) by `objective.chain_grad`.  Valid only when
  every agent's decision is differentiable (data-center family).
* pg: score-function estimator: sample forecasts from the Gaussian head and
  weight the log-density gradients by the batch loss.  Works for discrete
  decisions (charging schedules).  One batched regret call per agent family
  scores all D draws; the step picks each draw's baseline and
  `objective.pg_grad` (the op `verify` checks) folds the draws, each
  weighted by its loss minus its baseline, into one cotangent
  sum_d w_d * eps_d per row for one vjp.

What does not depend on the parameters stays out of the step.  Per call:
the stacked rows, each charging row's hindsight-optimal cost
(`agents.ev_optimal_batch`, passed to `ev_regret_batch` as `best`; also in
`evaluate`) and, in pg, the gather index that turns the step's flat
Gaussian draw into (D, rows, O).  Per epoch: the agents' permutations and,
from them, every step's batch rows as one (steps, rows) array.

A charging agent whose horizon differs from the model's output width is
refused before step 0 in every mode.  Updates are theta <- theta - lr_t * g
with lr_t = lr * decay^floor(t/step); SGD (optionally with momentum) is the
default, Adam is available for runs that mix very different loss scales.
Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, objective, predictor
from .agents import AgentSpec, dc_regret_batch, ev_optimal_batch, ev_regret_batch, required_slots
from .agents import dc_act, dc_act_jacobian, dc_cost_grad_action, regret  # noqa: F401  (bench/tracing.py wraps these bindings)
from .data import WindowSplit
from .errors import ConfigError, DivergenceError
from .predictor import ParamVector

MODES = ("plain", "chain", "pg")
OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "plain"
    q: float = 0.0
    beta: float = 0.0
    lr: float = 0.05
    lr_step: int = 50
    lr_decay: float = 0.5
    epochs: int = 30
    batch_size: int = 128
    std: float | None = None  # None -> 0.1 * std of the (scaled) training targets
    seed: int = 0
    optimizer: str = "sgd"
    momentum: float = 0.0
    grad_clip: float | None = None
    pg_baseline: bool = False
    pg_samples: int = 1  # independent draws of the per-batch estimator to average

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got '{self.optimizer}'")
        if self.q < 0:
            raise ConfigError(f"q must be nonnegative, got {self.q}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.lr < 0:
            raise ConfigError(f"learning rate must be nonnegative, got {self.lr}")
        if self.lr_step < 1:
            raise ConfigError(f"lr_step must be >= 1, got {self.lr_step}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.std is not None and self.std <= 0:
            raise ConfigError(f"std must be positive, got {self.std}")
        if self.pg_samples < 1:
            raise ConfigError(f"pg_samples must be >= 1, got {self.pg_samples}")


@dataclass(frozen=True, eq=False)
class RunSummary:
    per_agent_regret: np.ndarray
    variance: float
    mean: float
    c95_minus_c5: float
    mse: float
    entropy: float
    q: float
    beta: float
    seed: int

    def as_dict(self) -> dict:
        return {
            "per_agent_regret": [float(v) for v in self.per_agent_regret],
            "variance": self.variance,
            "mean": self.mean,
            "c95_minus_c5": self.c95_minus_c5,
            "mse": self.mse,
            "entropy": self.entropy,
            "q": self.q,
            "beta": self.beta,
            "seed": self.seed,
        }


@dataclass(eq=False)
class TrainResult:
    params: ParamVector
    step_log: list[dict] = field(default_factory=list)
    std: float = 0.0


def _check_family_support(config: TrainConfig, agents: list[AgentSpec]) -> None:
    if config.mode == "chain":
        bad = [a.agent_id for a in agents if a.family != "datacenter"]
        if bad:
            raise ConfigError(
                f"chain mode needs differentiable costs; charging agents {bad} are discrete"
            )


class _StackedRows:
    """One part ("train" or "test") of every agent's split, stacked in agent order.

    A batch holds `sizes[m]` rows of agent m, agents in order; `epoch_index`
    maps an epoch's per-agent permutations to the stacked rows of each of its
    batches, and `regrets` scores a batch's forecasts with one batched call
    per agent family (`dc_regrets` also gives the data-center rows'
    derivatives) against the realized rows and their hindsight costs
    (`ev_best`, computed here once).
    """

    def __init__(self, agents: list[AgentSpec], splits: list[WindowSplit], part: str, sizes, n_outputs: int):
        for agent in agents:
            if agent.family == "charging" and agent.context.horizon != n_outputs:
                raise ConfigError(
                    f"charging agent {agent.agent_id} has horizon {agent.context.horizon} "
                    f"but the model emits {n_outputs} values"
                )
        self.sizes = np.asarray(sizes)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.x = np.concatenate([getattr(s, f"{part}_x") for s in splits])
        self.y = np.concatenate([getattr(s, f"{part}_y") for s in splits])
        counts = np.array([len(getattr(s, f"{part}_x")) for s in splits])
        self.offsets = np.repeat(np.cumsum(counts) - counts, self.sizes)
        # realized decision inputs per stacked row: the signal window of a
        # charging agent, the intensity and workload of a data-center agent
        realized_e, realized_c, workload = [], [], []
        for agent, split, n in zip(agents, splits, counts):
            outcome, ctx = getattr(split, f"{part}_outcome"), getattr(split, f"{part}_ctx")
            charging = agent.family == "charging"
            realized_e.append(outcome if charging else np.zeros((n, n_outputs)))
            realized_c.append(outcome[:, 0])
            if charging or ctx is None:
                ctx = np.full(n, 0.0 if charging else agent.context.workload)
            workload.append(np.asarray(ctx, dtype=float))
        self.realized_e = np.concatenate(realized_e)
        self.realized_c = np.concatenate(realized_c)
        self.workload = np.concatenate(workload)
        ctxs = [a.context for a in agents]
        charging = np.array([a.family == "charging" for a in agents])
        k_agent = np.array([required_slots(c) if ev else 0 for c, ev in zip(ctxs, charging)])
        rate_agent = np.array([c.rate if ev else 0.0 for c, ev in zip(ctxs, charging)])
        # each charging row's hindsight-optimal cost, which no forecast changes
        row_owner = np.repeat(np.arange(len(agents)), counts)
        ev_row = charging[row_owner]
        self.ev_best = np.zeros(len(self.x))
        if ev_row.any():
            own = row_owner[ev_row]
            self.ev_best[ev_row] = ev_optimal_batch(k_agent[own], self.realized_e[ev_row], rate_agent[own])

        owner = np.repeat(np.arange(len(agents)), self.sizes)
        # full (R, O) operands: broadcasting an (R, 1) column over the short
        # output axis is many times slower
        self.t_mean = np.array([s.target_mean for s in splits])[owner, None].repeat(n_outputs, axis=1)
        self.t_scale = np.array([s.target_scale for s in splits])[owner, None].repeat(n_outputs, axis=1)
        # a family that owns every row is addressed by a slice, which keeps
        # the single-family pools free of gather copies
        self.ev_rows = slice(None) if charging.all() else np.flatnonzero(charging[owner])
        self.dc_rows = slice(None) if not charging.any() else np.flatnonzero(~charging[owner])
        ev_owner, dc_owner = owner[self.ev_rows], owner[self.dc_rows]
        self.ev_slots = k_agent[ev_owner]
        self.ev_rates = rate_agent[ev_owner]
        self.dc_lam = np.array([0.0 if ev else c.latency_weight for c, ev in zip(ctxs, charging)])[dc_owner]
        window_mean = np.array([s.predict_adapter == "window_mean" for s in splits])
        self.dc_window_mean = window_mean[dc_owner]
        # d c_hat / d model output: the target scale on output 0 for the
        # direct adapter, spread evenly over the window for window_mean
        adapter = np.zeros((len(splits), n_outputs))
        adapter[:, 0] = [s.target_scale for s in splits]
        adapter[window_mean] = adapter[window_mean, :1] / n_outputs
        self.dc_chat_grad = adapter[dc_owner]

    def epoch_index(self, perms: list[np.ndarray], n_steps: int) -> np.ndarray:
        """(steps, R) stacked rows of an epoch's batches: step k takes rows k*b_m .. (k+1)*b_m - 1 of perm m."""
        return np.concatenate(
            [perm[: n_steps * b].reshape(n_steps, b) for perm, b in zip(perms, self.sizes)], axis=1
        ) + self.offsets

    def draw_index(self, n_draws: int, n_outputs: int) -> np.ndarray:
        """(D, R, O) positions in a flat draw that holds each agent's (D, b_m, O) block in agent order.

        Agent m's block starts at D*O*start_m; in it, draw d of its row i,
        output o, sits at (d*b_m + i)*O + o.
        """
        size = np.repeat(self.sizes, self.sizes)
        start = np.repeat(self.starts, self.sizes)
        first = (n_draws * start + np.arange(len(size)) - start) * n_outputs
        step = np.arange(n_draws)[:, None] * size * n_outputs
        return (first + step)[:, :, None] + np.arange(n_outputs)

    def to_raw(self, normalized: np.ndarray) -> np.ndarray:
        return self.t_mean + self.t_scale * normalized

    def regrets(self, raws: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """(D, R) regrets of (D, R, O) raw forecasts for the batch at stacked rows `idx`."""
        n_draws, _, n_out = raws.shape
        values = np.empty(raws.shape[:2])
        if len(self.ev_slots):
            at = idx[self.ev_rows]
            values[:, self.ev_rows] = ev_regret_batch(
                self.ev_slots, raws[:, self.ev_rows].reshape(-1, n_out),
                self.realized_e[at], self.ev_rates, self.ev_best[at],
            ).reshape(n_draws, -1)
        if len(self.dc_lam):
            values[:, self.dc_rows] = self.dc_regrets(raws, idx)[0]
        return values

    def dc_regrets(self, raws: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(D, R_dc) regrets of the data-center rows and their derivatives by the forecast c_hat."""
        n_draws = len(raws)
        sub, at = raws[:, self.dc_rows], idx[self.dc_rows]
        c_hat = np.where(self.dc_window_mean, sub.mean(axis=2), sub[:, :, 0])
        values, slopes = dc_regret_batch(
            np.tile(self.workload[at], n_draws), np.tile(self.dc_lam, n_draws), c_hat.ravel(),
            np.tile(self.realized_c[at], n_draws),
        )
        return values.reshape(n_draws, -1), slopes.reshape(n_draws, -1)

    def agent_means(self, values: np.ndarray) -> np.ndarray:
        """Per-agent means over the last (row) axis."""
        return np.add.reduceat(values, self.starts, axis=-1) / self.sizes


def default_std(config: TrainConfig, data: list[WindowSplit]) -> float:
    if config.std is not None:
        return config.std
    pooled = np.concatenate([d.train_y.ravel() for d in data])
    return 0.1 * max(float(pooled.std()), 1e-6)


def train(config: TrainConfig, params: ParamVector, agents: list[AgentSpec], data: list[WindowSplit]) -> TrainResult:
    """Run epochs of per-batch updates; returns final parameters and a step log."""
    if len(agents) != len(data):
        raise ConfigError(f"{len(agents)} agents but {len(data)} data splits")
    if not agents:
        raise ConfigError("empty agent pool")
    for a, d in zip(agents, data):
        if d.train_x.shape[0] == 0:
            raise ConfigError(f"agent {a.agent_id} has an empty training split")
    _check_family_support(config, agents)

    rng = np.random.default_rng(config.seed)
    std = default_std(config, data)
    theta = params.values.copy()
    velocity = np.zeros_like(theta)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    step_log: list[dict] = []

    counts = [d.train_x.shape[0] for d in data]
    batch_sizes = [min(config.batch_size, n) for n in counts]
    steps_per_epoch = min(n // b for n, b in zip(counts, batch_sizes))
    baseline_ema: float | None = None  # tracks past batch losses only
    rows = _StackedRows(agents, data, "train", batch_sizes, params.n_outputs)
    mse_scale = np.repeat(2.0 / rows.sizes, rows.sizes)[:, None]
    if config.mode == "pg":
        eps_index = rows.draw_index(config.pg_samples, params.n_outputs)

    t = 0
    for _ in range(config.epochs):
        perms = [rng.permutation(n) for n in counts]
        epoch = rows.epoch_index(perms, steps_per_epoch)
        for idx in epoch:
            current = params.with_values(theta)
            eq_term = math.nan
            X, Y = rows.x[idx], rows.y[idx]
            # non-finite values are detected explicitly below; numpy's
            # overflow warnings on the way there are just noise
            with np.errstate(over="ignore", invalid="ignore"):
                preds = predictor.forward_batch(current, X)
                # agent_terms holds the per-agent batch terms (per draw in pg);
                # a divergence is blamed on the first agent with a non-finite one
                if config.mode != "pg":
                    agent_terms = rows.agent_means(np.sum((preds - Y) ** 2, axis=1))
                    mse_term = float(agent_terms.sum())
                if config.mode == "plain":
                    grad = predictor.vjp_batch(current, X, mse_scale * (preds - Y))
                    combined = mse_term
                elif config.mode == "chain":
                    # every row is a data-center row (checked above)
                    values, dvalues = rows.dc_regrets(rows.to_raw(preds)[None], idx)
                    slope = dvalues[0][:, None] * rows.dc_chat_grad
                    grad = objective.chain_grad(
                        current, X, preds, Y, values[0], slope, rows.sizes, config.q, config.beta
                    )
                    agent_terms = rows.agent_means(values[0])
                    eq_term = objective.equitable_loss(agent_terms, config.q)
                    combined = (1.0 - config.beta) * eq_term + config.beta * mse_term
                else:  # pg
                    n_draws = config.pg_samples
                    # the flat draw holds each agent's (D, b_m, O) block in agent
                    # order, which fixes the RNG stream; restack as (D, rows, O)
                    eps = np.take(rng.standard_normal(n_draws * preds.size), eps_index)
                    sampled = preds + std * eps
                    agent_terms = rows.agent_means(rows.regrets(rows.to_raw(sampled), idx))
                    mse_by_draw = rows.agent_means(np.sum((sampled - Y) ** 2, axis=2)).sum(axis=1)
                    eq_by_draw = np.sum(np.clip(agent_terms, 0.0, None) ** (config.q + 1.0), axis=1)
                    losses = (1.0 - config.beta) * eq_by_draw + config.beta * mse_by_draw
                    # baseline: leave-one-out mean across draws when available,
                    # else an EMA of past batch losses; both are independent of
                    # the draw they are subtracted from
                    if config.pg_baseline and n_draws > 1:
                        base = (losses.sum() - losses) / (n_draws - 1)
                    elif config.pg_baseline and baseline_ema is not None:
                        base = np.full(n_draws, baseline_ema)
                    else:
                        base = np.zeros(n_draws)
                    grad = objective.pg_grad(current, X, eps, losses, base, std)
                    eq_term = float(eq_by_draw.mean())
                    mse_term = float(mse_by_draw.mean())
                    combined = float(losses.mean())
                    if math.isfinite(combined):
                        baseline_ema = (
                            combined if baseline_ema is None else 0.9 * baseline_ema + 0.1 * combined
                        )

            if not math.isfinite(combined) or not np.all(np.isfinite(grad)):
                bad = np.flatnonzero(~np.isfinite(agent_terms).reshape(-1, len(agents)).all(axis=0))
                raise DivergenceError(
                    f"non-finite loss or gradient at step {t}: loss={combined}, "
                    f"|grad|max={np.max(np.abs(grad)) if grad.size else math.nan}",
                    step=t,
                    agent_id=agents[bad[0]].agent_id if bad.size else None,
                    values=(combined,),
                )

            if config.grad_clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > config.grad_clip:
                    grad = grad * (config.grad_clip / norm)

            lr_t = config.lr * config.lr_decay ** (t // config.lr_step)
            if config.optimizer == "sgd":
                velocity = config.momentum * velocity + grad
                theta = theta - lr_t * velocity
            else:
                adam_m = 0.9 * adam_m + 0.1 * grad
                adam_v = 0.999 * adam_v + 0.001 * grad**2
                m_hat = adam_m / (1.0 - 0.9 ** (t + 1))
                v_hat = adam_v / (1.0 - 0.999 ** (t + 1))
                theta = theta - lr_t * m_hat / (np.sqrt(v_hat) + 1e-8)

            step_log.append(
                {"step": t, "lr": lr_t, "equitable": eq_term, "mse_norm": mse_term, "combined": combined}
            )
            t += 1

    return TrainResult(params=params.with_values(theta), step_log=step_log, std=std)


def evaluate(params: ParamVector, agents: list[AgentSpec], data: list[WindowSplit], q: float = 0.0, beta: float = 0.0, seed: int = 0) -> RunSummary:
    """Deterministic (Gaussian-mean) inference on the test split, plus statistics."""
    if len(agents) != len(data):
        raise ConfigError(f"{len(agents)} agents but {len(data)} data splits")
    for agent, split in zip(agents, data):
        if split.test_x.shape[0] == 0:
            raise ConfigError(f"agent {agent.agent_id} has an empty test split")
    rows = _StackedRows(agents, data, "test", [d.test_x.shape[0] for d in data], params.n_outputs)
    raws = rows.to_raw(predictor.forward_batch(params, rows.x))
    values = rows.regrets(raws[None], np.arange(len(rows.x)))
    r = rows.agent_means(values)[0]
    preds_raw = np.split(raws, rows.starts[1:])
    targets_raw = [d.test_y_raw for d in data]
    return RunSummary(
        per_agent_regret=r,
        variance=metrics.variance(r),
        mean=float(r.mean()),
        c95_minus_c5=metrics.percentile_gap(r),
        mse=metrics.mse(preds_raw, targets_raw),
        entropy=metrics.norm_entropy(r),
        q=q,
        beta=beta,
        seed=seed,
    )

