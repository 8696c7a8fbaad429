"""Training loops and evaluation for the shared forecaster.

One step, three cotangents.  Every step gathers each agent's batch from
arrays stacked once per call (agents in order, b_m = min(batch_size, n_m)
rows of agent m), runs one forward over the M*b rows and hands its outputs
and activations to the mode's step function, then checks the loss and the
gradient and applies the optimizer.  A mode is that function, built once per
`train` call: it builds a cotangent on the model output, backpropagates it
with one vjp that reuses the forward's activations (so a step runs the
network forward once), and returns the gradient, the per-agent terms and the
loss parts.  The modes differ only in that cotangent:

* plain: `objective.chain_grad` at beta = 1, the squared-error cotangent
  (2/b_m) * (y_hat - y) alone (the accuracy-first baseline).
* chain: the exact gradient through loss -> regret -> action -> forecast.
  A data-center agent's intensity forecast c_hat is the mean of the model's
  O outputs (the output itself when O = 1).  One batched data-center regret
  call also returns each row's d regret / d c_hat in closed form; times
  d c_hat / d y_hat (the target scale / O on every output) it is the slope
  that `objective.chain_grad` weights by its agent's mean regret and blends
  with the squared error.  Only data-center agents have a differentiable
  decision.
* pg: the score-function estimator, which also covers discrete decisions
  (charging schedules).  Forecasts are sampled from the Gaussian head, one
  batched regret call per agent family scores all D draws, and
  `objective.pg_grad` (the op `verify` checks) folds the draws, each
  weighted by its loss minus its baseline, into one cotangent
  sum_d w_d * eps_d per row.  It holds the gather index of its flat draw,
  the baseline choice (the leave-one-out mean across draws, or an EMA of
  past batch losses) and the EMA.

A pool has one output calibration, `target_stats`: the mean and scale of its
raw training targets.  The stacked targets are normalized with it once per
call, forecasts go back to raw units with it before any regret, and the
default Gaussian std is 0.1 times the std of the normalized targets.

What does not depend on the parameters stays out of the step.  Per call: the
stacked rows, with the batch partition (`sizes` and the row -> agent index
`owner`) and each row's hindsight-optimal cost (`agents.ev_optimal_batch`
for charging rows, `agents.dc_optimal_batch` for data-center rows; also in
`evaluate`), which refuses a realized intensity that is not positive; the
charging ranking of a batch's D draws (`agents.SlotRanking`: each row's
checked slot count and rate, its threshold positions and its work arrays);
and pg's work arrays (the flat draw, its restack, the sampled forecasts and
their raw-unit copy), which every step refills in place.  Per epoch: every
step's batch rows as one (steps, rows) array.

Before step 0 in every mode, and in `evaluate`, the stacked rows refuse a
pool that does not fit the model: another agent count than splits, an
empty part, a charging agent whose horizon differs from the model's output
width, or targets of another width.  The optimizer helper clips the
gradient and updates theta <- theta - lr_t * g with
lr_t = lr * decay^floor(t/step), by SGD (optionally with momentum) or Adam,
in place on the one theta array of the call's parameters; it holds the
velocity or Adam's moments.  A non-finite loss or gradient, or an update
that leaves theta non-finite, raises `DivergenceError` with its step; theta
is checked once per step, after the update.  Everything is deterministic
given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, objective, predictor
from .agents import (
    AgentSpec, SlotRanking, dc_optimal_batch, dc_regret_batch, ev_optimal_batch, ev_regret_batch, required_slots,
)
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
    std: float | None = None  # None -> 0.1 * std of the normalized training targets
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
        if not (math.isfinite(self.q) and self.q >= 0):
            raise ConfigError(f"q must be finite and nonnegative, got {self.q}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and nonnegative, got {self.lr}")
        if self.lr_step < 1:
            raise ConfigError(f"lr_step must be >= 1, got {self.lr_step}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.std is not None and not (math.isfinite(self.std) and self.std > 0):
            raise ConfigError(f"std must be finite and positive, got {self.std}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        # a negative clip would flip every step uphill
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ConfigError(f"grad_clip must be null or finite and positive, got {self.grad_clip}")
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


def target_stats(splits: list[WindowSplit]) -> tuple[float, float]:
    """The pool's one target transform: the mean and scale of all its splits' raw training targets."""
    pooled = np.concatenate([s.train_y_raw.ravel() for s in splits])
    return float(pooled.mean()), max(float(pooled.std()), 1e-9)


class _StackedRows:
    """One part ("train" or "test") of every agent's split, stacked in agent order.

    A batch holds `sizes[m]` = min(batch_size, n_m) rows of agent m (all n_m
    when `batch_size` is None), agents in order, and `owner` names each batch
    row's agent; both are built once here, after the pool is checked against
    the model.  `epoch_index` maps an epoch's per-agent permutations to the
    stacked rows of each of its batches, and `regrets` scores a batch's
    forecasts with one batched call per agent family (`dc_regrets` also gives
    the data-center rows' derivatives) against the realized rows and their
    hindsight costs (`best`, computed here once).  The charging rows of a
    batch are ranked with `ev_ranking`, built here for `n_draws` blocks of
    them: it checks each row's slot count once and holds the ranking's work
    arrays, which every `regrets` call refills; `regrets` returns a new array.
    A data-center agent with a realized intensity that is not positive, and a
    charging agent whose slot count lies outside 1..T, are refused here,
    before any step.  Rows that are never `scored` (plain training) skip all
    of this.  `y` is normalized with the pool's `target_stats`, and `to_raw`
    maps forecasts back with it (into `out` when given).
    """

    def __init__(self, agents: list[AgentSpec], splits: list[WindowSplit], part: str, batch_size: int | None,
                 n_outputs: int, scored: bool = True, n_draws: int = 1):
        if len(agents) != len(splits):
            raise ConfigError(f"{len(agents)} agents but {len(splits)} data splits")
        if not agents:
            raise ConfigError("empty agent pool")
        for agent, split in zip(agents, splits):
            if len(getattr(split, f"{part}_x")) == 0:
                raise ConfigError(f"agent {agent.agent_id} has an empty {part.replace('train', 'training')} split")
            if agent.family == "charging" and agent.context.horizon != n_outputs:
                raise ConfigError(
                    f"charging agent {agent.agent_id} has horizon {agent.context.horizon} "
                    f"but the model emits {n_outputs} values"
                )
            width = getattr(split, f"{part}_y_raw").shape[1]
            if width != n_outputs:
                raise ConfigError(
                    f"agent {agent.agent_id} has {width} target values per row but the model emits {n_outputs}"
                )
        self.counts = counts = np.array([len(getattr(s, f"{part}_x")) for s in splits])
        self.sizes = counts if batch_size is None else np.minimum(batch_size, counts)
        self.n_outputs = n_outputs
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.x = np.concatenate([getattr(s, f"{part}_x") for s in splits])
        self.mean, self.scale = target_stats(splits)
        self.y = (np.concatenate([getattr(s, f"{part}_y_raw") for s in splits]) - self.mean) / self.scale
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
        lam_agent = np.array([0.0 if ev else c.latency_weight for c, ev in zip(ctxs, charging)])
        # each row's hindsight-optimal cost, which no forecast changes
        row_owner = np.repeat(np.arange(len(agents)), counts)
        ev_row = charging[row_owner]
        self.best = np.zeros(len(self.x))
        if scored and ev_row.any():
            own = row_owner[ev_row]
            ranking = SlotRanking(k_agent[own], rate_agent[own], n_outputs)
            self.best[ev_row] = ev_optimal_batch(ranking, self.realized_e[ev_row])
        if scored and not ev_row.all():
            dc_row = ~ev_row
            own = row_owner[dc_row]
            try:
                self.best[dc_row] = dc_optimal_batch(self.workload[dc_row], lam_agent[own], self.realized_c[dc_row])
            except ValueError as exc:
                bad = agents[own[np.argmin(self.realized_c[dc_row] > 0)]].agent_id
                raise ConfigError(f"data-center agent {bad}, {part} split: {exc}") from exc

        # each batch row's agent: with every n_m >= 1 (checked above) the
        # rows split into M nonempty runs, sum_m b_m rows in all
        self.owner = owner = np.repeat(np.arange(len(agents)), self.sizes)
        # a family that owns every row is addressed by a slice, which keeps
        # the single-family pools free of gather copies
        self.ev_rows = slice(None) if charging.all() else np.flatnonzero(charging[owner])
        self.dc_rows = slice(None) if not charging.any() else np.flatnonzero(~charging[owner])
        ev_owner, dc_owner = owner[self.ev_rows], owner[self.dc_rows]
        # the ranking of a batch's n_draws blocks of charging forecasts
        self.ev_ranking = None
        if scored and charging.any():
            self.ev_ranking = SlotRanking(k_agent[ev_owner], rate_agent[ev_owner], n_outputs, n_draws)
        self.dc_lam = lam_agent[dc_owner]
        # d c_hat / d model output: c_hat is the mean of the raw outputs
        self.dc_chat_grad = np.full(n_outputs, self.scale / n_outputs)

    def epoch_index(self, perms: list[np.ndarray], n_steps: int) -> np.ndarray:
        """(steps, R) stacked rows of an epoch's batches: step k takes rows k*b_m .. (k+1)*b_m - 1 of perm m."""
        return np.concatenate(
            [perm[: n_steps * b].reshape(n_steps, b) for perm, b in zip(perms, self.sizes)], axis=1
        ) + self.offsets

    def draw_index(self, n_draws: int) -> np.ndarray:
        """(D, R) rows of O values in a flat draw that holds each agent's (D, b_m, O) block in agent order.

        Agent m's block starts at row D*start_m; in it, draw d of its row i
        sits at row d*b_m + i.
        """
        size = np.repeat(self.sizes, self.sizes)
        start = np.repeat(self.starts, self.sizes)
        return n_draws * start + np.arange(len(size)) - start + np.arange(n_draws)[:, None] * size

    def to_raw(self, normalized: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raw = np.multiply(normalized, self.scale, out=out)
        raw += self.mean
        return raw

    def regrets(self, raws: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """(D, R) regrets, in a new array, of (D, R, O) raw forecasts for the batch at stacked rows `idx`."""
        n_draws, _, n_out = raws.shape
        values = np.empty(raws.shape[:2])
        if self.ev_ranking is not None:
            at = idx[self.ev_rows]
            values[:, self.ev_rows] = ev_regret_batch(
                self.ev_ranking, raws[:, self.ev_rows].reshape(-1, n_out), self.realized_e[at], self.best[at],
            ).reshape(n_draws, -1)
        if len(self.dc_lam):
            values[:, self.dc_rows] = self.dc_regrets(raws, idx)[0]
        return values

    def dc_regrets(self, raws: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(D, R_dc) regrets of the data-center rows and their derivatives by the forecast c_hat."""
        n_draws = len(raws)
        sub, at = raws[:, self.dc_rows], idx[self.dc_rows]
        c_hat = sub[:, :, 0] if self.n_outputs == 1 else sub.mean(axis=2)
        values, slopes = dc_regret_batch(
            self.workload[at], self.dc_lam, c_hat.ravel(), self.realized_c[at], self.best[at]
        )
        return values.reshape(n_draws, -1), slopes.reshape(n_draws, -1)

    def agent_means(self, values: np.ndarray) -> np.ndarray:
        """Per-agent means over the last (row) axis."""
        return np.add.reduceat(values, self.starts, axis=-1) / self.sizes


def _plain(config: TrainConfig, rows: _StackedRows, agents, rng, std: float):
    """The squared-error step: `objective.chain_grad` at beta = 1."""
    def step(current, idx, X, Y, preds, acts):
        agent_terms = rows.agent_means(np.sum((preds - Y) ** 2, axis=1))
        mse_term = float(agent_terms.sum())
        grad = objective.chain_grad(current, X, preds, Y, None, None, rows.sizes, rows.owner, config.q, 1.0, acts)
        return grad, agent_terms, math.nan, mse_term, mse_term
    return step


def _chain(config: TrainConfig, rows: _StackedRows, agents, rng, std: float):
    """The exact step through loss -> regret -> action -> forecast; data-center agents only."""
    bad = [a.agent_id for a in agents if a.family != "datacenter"]
    if bad:
        raise ConfigError(f"chain mode needs differentiable costs; charging agents {bad} are discrete")
    def step(current, idx, X, Y, preds, acts):
        mse_term = float(rows.agent_means(np.sum((preds - Y) ** 2, axis=1)).sum())
        values, dvalues = rows.dc_regrets(rows.to_raw(preds)[None], idx)
        slope = dvalues[0][:, None] * rows.dc_chat_grad
        agent_terms = rows.agent_means(values[0])
        grad = objective.chain_grad(
            current, X, preds, Y, agent_terms, slope, rows.sizes, rows.owner, config.q, config.beta, acts
        )
        eq_term = objective.equitable_loss(agent_terms, config.q)
        return grad, agent_terms, eq_term, mse_term, (1.0 - config.beta) * eq_term + config.beta * mse_term
    return step


def _pg(config: TrainConfig, rows: _StackedRows, agents, rng, std: float):
    """The score-function step over `pg_samples` draws; the baseline of each draw does not depend on it."""
    n_draws = config.pg_samples
    eps_index = rows.draw_index(n_draws)
    # work arrays that every step refills: the flat draw, its restack, the
    # sampled forecasts and their raw-unit copy
    flat = np.empty((eps_index.size, rows.n_outputs))
    eps, sampled, raws = (np.empty(eps_index.shape + (rows.n_outputs,)) for _ in range(3))
    ema = None  # of past batch losses: the baseline of a pg_baseline run with one draw
    def step(current, idx, X, Y, preds, acts):
        nonlocal ema
        # the flat draw holds each agent's (D, b_m, O) block in agent order,
        # which fixes the RNG stream; restack as (D, rows, O)
        np.take(rng.standard_normal(out=flat), eps_index, axis=0, out=eps)
        np.multiply(eps, std, out=sampled)
        np.add(sampled, preds, out=sampled)
        agent_terms = rows.agent_means(rows.regrets(rows.to_raw(sampled, out=raws), idx))
        resid = np.subtract(sampled, Y, out=sampled)
        mse_by_draw = rows.agent_means(np.sum(np.square(resid, out=resid), axis=2)).sum(axis=1)
        eq_by_draw = np.sum(np.clip(agent_terms, 0.0, None) ** (config.q + 1.0), axis=1)
        losses = (1.0 - config.beta) * eq_by_draw + config.beta * mse_by_draw
        if config.pg_baseline and n_draws > 1:  # leave-one-out mean across draws
            base = (losses.sum() - losses) / (n_draws - 1)
        else:
            base = np.full(n_draws, 0.0 if ema is None else ema)
        grad = objective.pg_grad(current, X, eps, losses, base, std, acts)
        combined = float(losses.mean())
        if config.pg_baseline and math.isfinite(combined):
            ema = combined if ema is None else 0.9 * ema + 0.1 * combined
        return grad, agent_terms, float(eq_by_draw.mean()), float(mse_by_draw.mean()), combined
    return step


def _optimizer(config: TrainConfig, theta: np.ndarray):
    """`update(grad, t) -> lr_t`: clip, lr schedule, then SGD (with momentum) or Adam on theta in place."""
    first, second = np.zeros_like(theta), np.zeros_like(theta)  # the velocity, or Adam's moments
    def update(grad, t):
        nonlocal first, second, theta
        if config.grad_clip is not None:
            norm = float(np.linalg.norm(grad))
            if norm > config.grad_clip:
                grad = grad * (config.grad_clip / norm)
        lr_t = config.lr * config.lr_decay ** (t // config.lr_step)
        # a finite gradient times a huge lr can still overflow theta
        with np.errstate(over="ignore", invalid="ignore"):
            if config.optimizer == "sgd":
                first = config.momentum * first + grad
                theta -= lr_t * first
                return lr_t
            first = 0.9 * first + 0.1 * grad
            second = 0.999 * second + 0.001 * grad**2
            m_hat = first / (1.0 - 0.9 ** (t + 1))
            v_hat = second / (1.0 - 0.999 ** (t + 1))
            theta -= lr_t * m_hat / (np.sqrt(v_hat) + 1e-8)
            return lr_t
    return update


def train(config: TrainConfig, params: ParamVector, agents: list[AgentSpec], data: list[WindowSplit]) -> TrainResult:
    """Run epochs of per-batch updates; returns final parameters and a step log."""
    rows = _StackedRows(agents, data, "train", config.batch_size, params.n_outputs, scored=config.mode != "plain",
                        n_draws=config.pg_samples)
    rng = np.random.default_rng(config.seed)
    std = config.std if config.std is not None else 0.1 * max(float(rows.y.std()), 1e-6)
    steps_per_epoch = int(np.min(rows.counts // rows.sizes))
    mode_step = {"plain": _plain, "chain": _chain, "pg": _pg}[config.mode](config, rows, agents, rng, std)
    # the step's parameters, one copy per call: the optimizer updates their
    # values theta in place, so theta's finiteness is checked once per step
    current = params.with_values(params.values.copy())
    theta = current.values
    update = _optimizer(config, theta)
    step_log: list[dict] = []

    for epoch in range(config.epochs):
        perms = [rng.permutation(n) for n in rows.counts]
        for k, idx in enumerate(rows.epoch_index(perms, steps_per_epoch)):
            t = epoch * steps_per_epoch + k
            X, Y = rows.x[idx], rows.y[idx]
            # non-finite values are detected explicitly below; numpy's
            # overflow warnings on the way there are just noise
            with np.errstate(over="ignore", invalid="ignore"):
                preds, acts = predictor.forward_batch(current, X, keep=True)
                grad, agent_terms, eq_term, mse_term, combined = mode_step(current, idx, X, Y, preds, acts)

            if not math.isfinite(combined) or not np.all(np.isfinite(grad)):
                # blame the first agent with a non-finite batch term (in pg, in any draw)
                bad = np.flatnonzero(~np.isfinite(agent_terms).reshape(-1, len(agents)).all(axis=0))
                raise DivergenceError(
                    f"non-finite loss or gradient at step {t}: loss={combined}, "
                    f"|grad|max={np.max(np.abs(grad)) if grad.size else math.nan}",
                    step=t,
                    agent_id=agents[bad[0]].agent_id if bad.size else None,
                    values=(combined,),
                )
            lr_t = update(grad, t)
            if not np.isfinite(theta).all():
                raise DivergenceError(
                    f"non-finite parameters after the update at step {t}: lr={lr_t!r}", step=t, values=(combined,)
                )

            step_log.append(
                {"step": t, "lr": lr_t, "equitable": eq_term, "mse_norm": mse_term, "combined": combined}
            )

    return TrainResult(params=current, step_log=step_log, std=std)


def evaluate(params: ParamVector, agents: list[AgentSpec], data: list[WindowSplit], q: float = 0.0, beta: float = 0.0, seed: int = 0) -> RunSummary:
    """Deterministic (Gaussian-mean) inference on the test split, plus statistics."""
    rows = _StackedRows(agents, data, "test", None, params.n_outputs)
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

