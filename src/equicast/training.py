"""Training loops and evaluation for the shared forecaster.

One step, three cotangents.  A pool part holds M agents x n rows, stacked
once when the pool is built, agents in order.  Every step gathers each
agent's batch of b = min(batch_size, n) rows, runs one forward over the M*b
rows and hands its outputs to the mode's step function, which returns the
cotangent dL/dy_hat, the per-agent terms and the loss parts.  The trainer
backpropagates the cotangent with the step's one vjp, which reuses the
forward's activations, then checks the loss and the gradient and applies
the optimizer.  A mode is that function, built once per run; the modes
differ only in the cotangent:

* plain: `objective.chain_grad` at beta = 1, the squared-error cotangent
  (2/b) * (y_hat - y) alone (the accuracy-first baseline).
* chain: the exact cotangent through loss -> regret -> action -> forecast.
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
  sum_d w_d * eps_d per row.  It reads the step's draw, which the loop
  makes, and holds its sampled forecasts' buffer and the baseline, picked
  once per run: the leave-one-out mean across draws, or with one draw an
  EMA of past batch losses, or none.

A `train` call given a list of K configs, which may differ only in q and
beta, trains K runs in lockstep; given one config, it trains the K = 1
case of the same loop.  Shared per call, because none of it
depends on q, beta or the parameters: the pool's stacked rows, the RNG,
every epoch's permutations and gathered batches, and in pg each step's one
draw and its restack.  Kept per run: a copy of the parameters, the
optimizer and its state, the mode step (so pg's EMA baseline), the step log
and the error that stopped the run.  A run's step only reads what is shared,
so each run is bitwise the run that `train` gives its config alone; a run
whose step raises (a `DivergenceError`, or any other error) stops alone,
and the others go on with the same stream.

The stream (`_stream`): per epoch, each agent's permutation, agents in
order; then in pg, per step, one fill of every agent's (D, b, O) block of
standard normals, agent by agent.  With a second usable core, a pg call
makes each fill ahead on one helper thread (`_ahead`, the rule that
`verify.run_all` shares), an epoch's first while its batches are gathered,
one at a time: the generator makes the same calls in the same order.  The
call joins the thread however its runs end.  Plain and chain calls start no
thread, nor does a pg call in a process that `multiprocessing` started (a
sweep's worker: the workers already fill the cores).  Every bit is the same.

What does not depend on the call is fitted once per pool (`PoolData`): its
one output calibration (the mean and scale of its raw training targets,
with which each batch's targets are normalized as they are gathered and
forecasts go back to raw units before any regret) and each row's
hindsight-optimal cost.  The default Gaussian std is 0.1 times the std of
the normalized training targets.

What does not depend on the parameters stays out of the step.  Per call:
the normalized training targets, how each agent family's batch rows are
addressed (a slice when they form one run, else an index array), the
charging ranking of a batch's D draws (`agents.SlotRanking`: each row's
slot count and rate, its threshold positions and its work arrays), and
pg's work arrays (the draw's buffer, or two when drawn ahead, and its
restack; per run, the sampled forecasts; each run's raw-unit forecasts
reuse the buffer just restacked), which every step refills in place, and
the buffers of an epoch's X and Y batches and of its regret ops' row
inputs.  Per epoch:
every step's batch rows as one (steps, rows) array, and the X and Y
batches and, in chain and pg, the regret ops' row inputs (a charging row's
outcome and hindsight cost, a data-center row's workload, realized
intensity and hindsight cost) gathered with it into their buffers, of
which each step reads its views.  One `np.errstate` around the epoch loop
silences numpy's overflow warnings for every step.
A row's squared errors are summed over its outputs with
`agents.row_sums`: column adds over all rows in numpy's pairwise order,
bitwise what `np.sum` gives by running its pairwise sum once per row.

Before step 0 in every mode, and in `evaluate`, the call refuses agents
other than the pool's (its hindsight costs are theirs) and a model whose
output width is not the pool's (`PoolData.width`).  The optimizer helper
clips the gradient and updates theta <- theta - lr_t * g with
lr_t = lr * decay^floor(t/step), by SGD (optionally with momentum) or Adam,
in place on the one theta array of the run's parameters; it holds the
velocity or Adam's moments and two work arrays, and updates them in place
with the out-of-place formulas' operations, in their order.  A non-finite
loss or gradient, or an update that leaves theta non-finite, raises
`DivergenceError` with its step; theta is checked once per step, after the
update.  Everything is deterministic
given the config seed.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import metrics, objective, predictor
from .agents import (
    AgentSpec, SlotRanking, dc_optimal_batch, dc_regret_batch, ev_optimal_batch, ev_regret_batch, required_slots,
    row_sums,
)
from .agents import dc_act, dc_act_jacobian, dc_cost_grad_action, regret  # noqa: F401  (bench/tracing.py wraps these bindings)
from .data import Part, PoolWindows
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
    seed: int = 0  # set by `train`'s callers; an ExperimentConfig's is 0, and its runs train at its `seed`
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
        if self.momentum and self.optimizer != "sgd":  # Adam has no momentum term to set
            raise ConfigError(f"momentum is for sgd only, got {self.momentum} with optimizer '{self.optimizer}'")
        # a negative clip would flip every step uphill
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ConfigError(f"grad_clip must be null or finite and positive, got {self.grad_clip}")
        if self.pg_samples < 1:
            raise ConfigError(f"pg_samples must be >= 1, got {self.pg_samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
        return asdict(self) | {"per_agent_regret": [float(v) for v in self.per_agent_regret]}


@dataclass(eq=False)
class TrainResult:
    params: ParamVector
    step_log: list[dict] = field(default_factory=list)
    std: float = 0.0


@dataclass(eq=False)
class TrainRuns:
    """What `train` returns for a list of configs: per config, in order, its
    run's TrainResult or the exception that stopped the run."""

    outcomes: list[TrainResult | Exception]
    # every step the call took, run by run, a stopped run's too: the call's
    # work, as a TrainResult's step log is (bench/tracing.py counts it)
    step_log: list[dict] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class ScoredPart:
    """One part of a pool's windows and each of its rows' hindsight-optimal cost, which no forecast changes."""

    rows: Part
    best: np.ndarray


class PoolData:
    """A pool's windows (`data.window_split`) fitted once to its agents.

    It holds the agents and their decision parameters, the output `width`
    (the training targets' values per row, which a model must emit), the
    target transform (`mean`, `scale`: of all raw training targets), and each
    part's rows with their hindsight-optimal costs (`ev_optimal_batch` for
    charging rows, `dc_optimal_batch` on the first outcome step for
    data-center rows).  A pool that cannot be scored (an agent count other
    than the windows', a part whose arrays do not share one row count that
    is a multiple of M, a part whose targets or outcomes are not `width`
    wide, an empty part, a charging agent whose horizon is not `width`, a
    realized intensity that is not positive) is refused here, in every mode.
    """

    def __init__(self, agents: list[AgentSpec], windows: PoolWindows):
        if not agents:
            raise ConfigError("empty agent pool")
        self.width = windows.train.y_raw.shape[1]
        for name, part in (("training", windows.train), ("test", windows.test)):
            if part.n_agents != len(agents):
                raise ConfigError(f"{len(agents)} agents but {part.n_agents} data splits")
            rows = {len(a) for a in (part.x, part.y_raw, part.outcome, part.workload)}
            if len(rows) != 1 or rows.pop() % len(agents):
                raise ConfigError(
                    f"the {name} split's arrays must share one row count, n rows for each of {len(agents)} agents"
                )
            if {part.y_raw.shape[1], part.outcome.shape[1]} != {self.width}:
                raise ConfigError(f"the {name} split's targets and outcomes must have {self.width} values per row")
            if not len(part.x):
                raise ConfigError(f"every agent has an empty {name} split")
        for a in agents:
            if a.family == "charging" and a.context.horizon != self.width:
                raise ConfigError(
                    f"charging agent {a.agent_id} has horizon {a.context.horizon} but the pool's targets have {self.width} values per row"
                )
        self.agents = tuple(agents)
        pooled = windows.train.y_raw.ravel()
        self.mean, self.scale = float(pooled.mean()), max(float(pooled.std()), 1e-9)
        ctxs = [a.context for a in agents]
        self.charging = charging = np.array([a.family == "charging" for a in agents])
        self.slots = np.array([required_slots(c) if ev else 0 for c, ev in zip(ctxs, charging)])
        self.rate = np.array([c.rate if ev else 0.0 for c, ev in zip(ctxs, charging)])
        self.lam = np.array([0.0 if ev else c.latency_weight for c, ev in zip(ctxs, charging)])
        self.train, self.test = self._scored(windows.train, "train"), self._scored(windows.test, "test")

    def _scored(self, rows: Part, name: str) -> ScoredPart:
        owner = np.repeat(np.arange(len(self.agents)), len(rows.x) // len(self.agents))
        ev, dc = self.charging[owner], ~self.charging[owner]
        best = np.zeros(len(rows.x))
        if ev.any():
            own = owner[ev]
            ranking = SlotRanking(self.slots[own], self.rate[own], rows.outcome.shape[1])
            best[ev] = ev_optimal_batch(ranking, rows.outcome[ev])
        if dc.any():
            own, realized = owner[dc], rows.outcome[dc, 0]
            try:
                best[dc] = dc_optimal_batch(rows.workload[dc], self.lam[own], realized)
            except ValueError as exc:
                bad = self.agents[own[np.argmin(realized > 0)]].agent_id
                raise ConfigError(f"data-center agent {bad}, {name} split: {exc}") from exc
        return ScoredPart(rows, best)


def _family_rows(mask: np.ndarray) -> slice | np.ndarray:
    """How to index the batch rows of one agent family, the rows where `mask` holds.

    slice(a, b) when its rows form one run (slice(0, R) when the family owns
    all R rows), else their index array: a slice reads views of the step's
    arrays where an index array copies them.
    """
    at = mask.nonzero()[0]
    if at.size and at[-1] - at[0] == at.size - 1:
        return slice(int(at[0]), int(at[-1]) + 1)
    return at


class _StackedRows:
    """What one `train` or `evaluate` call reads of one part of the pool.

    `agents` must be the pool's own, and the model must emit the pool's
    output width (`PoolData.width`) per row.  The part holds `n`
    rows of each agent, and a batch b = min(batch_size, n) rows of each (all
    n when `batch_size` is None), agents in order: batch rows m*b ..
    (m+1)*b - 1 are agent m's.  `ev_rows` and `dc_rows` address each agent
    family's batch rows: slice(a, b) when its rows form one run (all of
    them when one family owns every row, or as in every built mixed pool,
    which lists its data-center agents first), else their index array; the
    same indexing code reads both.  `epoch_index` maps an epoch's M permutations of
    range(n) to the stacked rows of its batches, and `regret_inputs`
    gathers those rows' inputs to the regret ops.  `regrets` scores a
    batch's forecasts against its regret inputs, in a new array, with one
    batched call per agent family (`dc_regrets` also gives the data-center
    rows' derivatives).  Its charging rows are ranked with `ev_ranking`,
    built here for `n_draws` blocks of them, whose work arrays every call
    refills.  `normalized` gives the part's targets on the model's scale,
    and `to_raw` maps forecasts back to raw units (into `out` when given),
    both with the pool's target transform.
    """

    def __init__(self, agents: list[AgentSpec], data: PoolData, part: ScoredPart, batch_size: int | None,
                 n_outputs: int, n_draws: int = 1):
        if len(agents) != len(data.agents):
            raise ConfigError(f"{len(agents)} agents but {len(data.agents)} data splits")
        for agent, own in zip(agents, data.agents):
            if agent != own:  # the pool's hindsight costs are its own agents'
                raise ConfigError(f"agent {agent.agent_id} differs from the pool's agent {own.agent_id}")
        if n_outputs != data.width:
            raise ConfigError(f"the model emits {n_outputs} values per row but the pool's targets have {data.width}")
        self.agents, self.part, self.mean, self.scale = data.agents, part, data.mean, data.scale
        self.x, self.y_raw = part.rows.x, part.rows.y_raw
        self.realized_c = part.rows.outcome[:, 0]  # a data-center row's realized intensity (a view)
        self.n = len(self.x) // len(agents)  # >= 1, checked by the pool
        self.b = self.n if batch_size is None else min(batch_size, self.n)
        self.n_outputs = n_outputs
        self.starts = np.arange(len(agents)) * self.b  # each agent's first batch row
        owner = np.repeat(np.arange(len(agents)), self.b)
        charging = data.charging
        self.ev_rows, self.dc_rows = _family_rows(charging[owner]), _family_rows(~charging[owner])
        ev_owner, dc_owner = owner[self.ev_rows], owner[self.dc_rows]
        # the ranking of a batch's n_draws blocks of charging forecasts
        self.ev_ranking = None
        if charging.any():
            self.ev_ranking = SlotRanking(data.slots[ev_owner], data.rate[ev_owner], n_outputs, n_draws)
        self.dc_lam = data.lam[dc_owner]
        # d c_hat / d model output: c_hat is the mean of the raw outputs
        self.dc_chat_grad = np.full(n_outputs, self.scale / n_outputs)

    def epoch_index(self, perms: list[np.ndarray], n_steps: int) -> np.ndarray:
        """(steps, M*b) stacked rows of an epoch's batches: step k takes rows k*b .. (k+1)*b - 1 of perm m."""
        index = np.stack(perms)[:, : n_steps * self.b] + self.n * np.arange(len(perms))[:, None]
        return index.reshape(len(perms), n_steps, self.b).swapaxes(0, 1).reshape(n_steps, -1)

    def normalized(self) -> np.ndarray:
        """The part's targets, in a new array, on the model's scale."""
        y = self.y_raw - self.mean
        y /= self.scale
        return y

    def to_raw(self, normalized: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raw = np.multiply(normalized, self.scale, out=out)
        raw += self.mean
        return raw

    def regret_inputs(self, index: np.ndarray, out: tuple = ()) -> tuple:
        """The regret ops' row inputs of stacked rows `index` (..., R), in new arrays or into `out`.

        In order: the charging rows' outcomes and hindsight costs, then the
        data-center rows' workloads, realized intensities and hindsight
        costs, each shaped like its family's part of `index` (plus the
        outcome width).  `out`, when given, is an earlier result for an
        index of the same shape.
        """
        ev, dc = index[..., self.ev_rows], index[..., self.dc_rows]
        sources = ((self.part.rows.outcome, ev), (self.part.best, ev),
                   (self.part.rows.workload, dc), (self.realized_c, dc), (self.part.best, dc))
        out = out or tuple(np.empty(at.shape + source.shape[1:]) for source, at in sources)
        for (source, at), buf in zip(sources, out):
            # mode="clip" lets `take` write into `out` unbuffered; every index is in range
            np.take(source, at, axis=0, out=buf, mode="clip")
        return out

    def regrets(self, raws: np.ndarray, batch) -> np.ndarray:
        """(D, R) regrets, in a new array, of (D, R, O) raw forecasts for a batch with regret inputs `batch`."""
        n_draws, _, n_out = raws.shape
        if self.ev_ranking is None:
            return self.dc_regrets(raws, batch)[0]
        outcome, best = batch[:2]
        ev_values = ev_regret_batch(self.ev_ranking, raws[:, self.ev_rows].reshape(-1, n_out), outcome, best)
        ev_values = ev_values.reshape(n_draws, -1)
        if not len(self.dc_lam):  # one family owns every row: its op's array is the result
            return ev_values
        values = np.empty(raws.shape[:2])
        values[:, self.ev_rows], values[:, self.dc_rows] = ev_values, self.dc_regrets(raws, batch)[0]
        return values

    def dc_regrets(self, raws: np.ndarray, batch) -> tuple[np.ndarray, np.ndarray]:
        """(D, R_dc) regrets of the data-center rows and their derivatives by the forecast c_hat."""
        n_draws = len(raws)
        workload, realized, best = batch[2:]
        sub = raws[:, self.dc_rows]
        if self.n_outputs == 1:
            c_hat = sub[:, :, 0]
        else:  # bitwise sub.mean(axis=2): one add.reduce, then one divide by the count
            c_hat = np.add.reduce(sub, axis=2)
            c_hat /= self.n_outputs
        values, slopes = dc_regret_batch(workload, self.dc_lam, c_hat.ravel(), realized, best)
        return values.reshape(n_draws, -1), slopes.reshape(n_draws, -1)

    def agent_means(self, values: np.ndarray) -> np.ndarray:
        """Per-agent means over the last (row) axis."""
        return np.add.reduceat(values, self.starts, axis=-1) / self.b


def _plain(config: TrainConfig, rows: _StackedRows, std: float):
    """The squared-error step: `objective.chain_grad` at beta = 1."""
    def step(batch, Y, preds, draw):
        agent_terms = rows.agent_means(row_sums((preds - Y) ** 2))
        mse_term = float(agent_terms.sum())
        cot = objective.chain_grad(preds, Y, agent_terms, None, rows.b, config.q, 1.0)
        return cot, agent_terms, math.nan, mse_term, mse_term
    return step


def _chain(config: TrainConfig, rows: _StackedRows, std: float):
    """The exact step through loss -> regret -> action -> forecast; data-center agents only."""
    bad = [a.agent_id for a in rows.agents if a.family != "datacenter"]
    if bad:
        raise ConfigError(f"chain mode needs differentiable costs; charging agents {bad} are discrete")
    def step(batch, Y, preds, draw):
        mse_term = float(rows.agent_means(row_sums((preds - Y) ** 2)).sum())
        values, dvalues = rows.dc_regrets(rows.to_raw(preds)[None], batch)
        slope = dvalues[0][:, None] * rows.dc_chat_grad
        agent_terms = rows.agent_means(values[0])
        cot = objective.chain_grad(preds, Y, agent_terms, slope, rows.b, config.q, config.beta)
        eq_term = objective.equitable_loss(agent_terms, config.q)
        return cot, agent_terms, eq_term, mse_term, (1.0 - config.beta) * eq_term + config.beta * mse_term
    return step


def _pg(config: TrainConfig, rows: _StackedRows, std: float):
    """The score-function step over the step's `draw` (`_batches`): its noise `eps` (D, rows, O).

    The baseline of each draw does not depend on it.  The draw's `raws` is a
    work array shaped like `eps` that the step may overwrite.
    """
    n_draws = config.pg_samples
    sampled = np.empty((n_draws, len(rows.agents) * rows.b, rows.n_outputs))  # the sampled forecasts, refilled every step
    # the baseline, picked once per run (pg_baseline: the leave-one-out mean,
    # or with one draw an EMA of past batch losses; else 0)
    leave_one_out, tracks_ema = config.pg_baseline and n_draws > 1, config.pg_baseline and n_draws == 1
    ema = None
    def step(batch, Y, preds, draw):
        nonlocal ema
        eps, raws = draw
        np.multiply(eps, std, out=sampled)
        np.add(sampled, preds, out=sampled)
        agent_terms = rows.agent_means(rows.regrets(rows.to_raw(sampled, out=raws), batch))
        resid = np.subtract(sampled, Y, out=sampled)
        mse_by_draw = rows.agent_means(row_sums(np.square(resid, out=resid))).sum(axis=1)
        eq_by_draw = objective.equitable_loss(agent_terms, config.q)
        losses = (1.0 - config.beta) * eq_by_draw + config.beta * mse_by_draw
        if leave_one_out:
            base = (losses.sum() - losses) / (n_draws - 1)
        else:
            base = 0.0 if ema is None else ema
        cot = objective.pg_grad(eps, losses, base, std)
        # the draws' means as x.mean() forms them: one add.reduce, then one divide by the count
        combined = float(losses.sum()) / n_draws
        if tracks_ema:  # a non-finite loss ends the run before the EMA is read again
            ema = combined if ema is None else 0.9 * ema + 0.1 * combined
        return cot, agent_terms, float(eq_by_draw.sum()) / n_draws, float(mse_by_draw.sum()) / n_draws, combined
    return step


def _norm(x: np.ndarray) -> float:
    """Bitwise `np.linalg.norm` of a 1-D float array, which is sqrt(x.dot(x)), without its wrapper."""
    return math.sqrt(float(x.dot(x)))


def _optimizer(config: TrainConfig, theta: np.ndarray):
    """`update(grad, t) -> lr_t`: clip, lr schedule, then SGD (with momentum) or Adam on theta in place."""
    # the velocity or Adam's moments, updated in place by the out-of-place
    # formulas' operations in their order; `step` holds the clipped gradient,
    # then the update, and `work` a scaled gradient, then sqrt(v_hat) + 1e-8
    first, second, step, work = (np.zeros_like(theta) for _ in range(4))
    def update(grad, t):
        nonlocal first, second, step, work, theta  # `x op= y` rebinds x, to the same array
        if config.grad_clip is not None:
            norm = _norm(grad)
            if norm > config.grad_clip:
                grad = np.multiply(grad, config.grad_clip / norm, out=step)
        lr_t = config.lr * config.lr_decay ** (t // config.lr_step)
        if config.optimizer == "sgd":
            first *= config.momentum
            first += grad
            theta -= np.multiply(first, lr_t, out=step)
            return lr_t
        first *= 0.9
        first += np.multiply(grad, 0.1, out=work)
        second *= 0.999
        second += np.multiply(np.square(grad, out=work), 0.001, out=work)
        np.sqrt(np.divide(second, 1.0 - 0.999 ** (t + 1), out=work), out=work)
        work += 1e-8
        np.divide(first, 1.0 - 0.9 ** (t + 1), out=step)
        step *= lr_t
        theta -= np.divide(step, work, out=step)
        return lr_t
    return update


class _Run:
    """One run of a `train` call: its own copy of the parameters, its
    optimizer, its mode step (so its own pg baseline), its step log, and the
    error that stopped it, if one did."""

    def __init__(self, config: TrainConfig, params: ParamVector, rows: _StackedRows, std: float):
        self.mode_step = {"plain": _plain, "chain": _chain, "pg": _pg}[config.mode](config, rows, std)
        # the optimizer updates the values theta in place, so theta's
        # finiteness is checked once per step
        self.current = params.with_values(params.values.copy())
        self.theta = self.current.values
        self.update = _optimizer(config, self.theta)
        self.step_log: list[dict] = []
        self.agents = rows.agents
        self.error: Exception | None = None

    def step(self, t: int, X: np.ndarray, Y: np.ndarray, batch, draw) -> None:
        preds, acts = predictor.forward_batch(self.current, X, keep=True)
        cot, agent_terms, eq_term, mse_term, combined = self.mode_step(batch, Y, preds, draw)
        grad = predictor.vjp_batch(self.current, X, cot, acts)

        if not math.isfinite(combined) or not np.isfinite(grad).all():
            # blame the first agent with a non-finite batch term (in pg, in any draw)
            bad = np.flatnonzero(~np.isfinite(agent_terms).reshape(-1, len(self.agents)).all(axis=0))
            raise DivergenceError(
                f"non-finite loss or gradient at step {t}: loss={combined}, "
                f"|grad|max={np.max(np.abs(grad)) if grad.size else math.nan}",
                step=t,
                agent_id=self.agents[bad[0]].agent_id if bad.size else None,
            )
        lr_t = self.update(grad, t)
        if not np.isfinite(self.theta).all():
            raise DivergenceError(f"non-finite parameters after the update at step {t}: lr={lr_t!r}", step=t)

        self.step_log.append({"step": t, "lr": lr_t, "equitable": eq_term, "mse_norm": mse_term, "combined": combined})


def _draws_ahead() -> bool:
    """Whether `_draw_helper` starts a thread: not in a process that `multiprocessing` started (a sweep's
    worker: the workers already fill the cores), nor with one usable core."""
    import multiprocessing  # imported here: a call that draws no noise does not pay for the import

    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return multiprocessing.parent_process() is None and len(cores) > 1


def _draw_helper(draws: bool = True):
    """The one-thread pool `_ahead` draws on if `draws` and `_draws_ahead()` hold, else a nullcontext (inline).
    The caller enters it in a `with`, which joins the thread however the call ends."""
    if not (draws and _draws_ahead()):
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor  # imported here, as `multiprocessing` is

    return ThreadPoolExecutor(max_workers=1)


def _ahead(helper, calls):
    """The results of `calls` (`functools.partial`s) in order, each run inline as its result is taken.

    With `helper`, each runs on its thread, as the partial's own function (a
    generator's bound method, no line of this package): the first submitted
    now, each later one as the result before it is taken, so at most one is
    pending.  A call that raises raises where its result is taken.
    """
    if helper is None:
        return (call() for call in calls)
    submitted = (helper.submit(call.func, *call.args, **call.keywords) for call in calls)

    def results(pending):
        while pending is not None:
            result = pending.result()
            pending = next(submitted, None)
            yield result

    return results(next(submitted, None))


def _stream(config: TrainConfig, n_agents: int, n: int, b: int, n_outputs: int, helper=None):
    """The call's random stream, `default_rng(config.seed)`: per epoch, (its M permutations of range(n), its fills).

    In pg, an epoch's fills are its n // b steps' (M, D, b, O) standard
    normals, through `_ahead`, each into one buffer (with `helper`, the
    other of two) that lives until the next fill is taken; else none.
    """
    rng = np.random.default_rng(config.seed)
    copies = 0 if config.mode != "pg" else 1 if helper is None else 2
    buffers = [np.empty((n_agents, config.pg_samples, b, n_outputs)) for _ in range(copies)]
    for _ in range(config.epochs):
        perms = [rng.permutation(n) for _ in range(n_agents)]
        fills = [partial(rng.standard_normal, out=buffers[k % len(buffers)]) for k in range(n // b)] if buffers else []
        yield perms, _ahead(helper, fills)


def _batches(config: TrainConfig, rows: _StackedRows, targets: np.ndarray, helper=None):
    """Every step's (t, X, Y, regret inputs, draw) from `_stream`: X, Y and the inputs gathered once per epoch.

    A pg step's draw is (eps, raws): its fill restacked as (D, rows, O), and
    the fill itself as (D, rows, O), dead once restacked, which the step may
    overwrite; plain and chain steps get None.
    """
    steps_per_epoch = rows.n // rows.b
    # new arrays each epoch would page-fault on every gather
    batch_shape = (steps_per_epoch, len(rows.agents) * rows.b)
    batches_x, batches_y = np.empty(batch_shape + rows.x.shape[1:]), np.empty(batch_shape + targets.shape[1:])
    inputs = ()  # the regret ops' row inputs, in buffers the first epoch allocates; plain scores no decision
    if config.mode == "pg":
        eps = np.empty((config.pg_samples, len(rows.agents) * rows.b, rows.n_outputs))
        eps_blocks = eps.reshape(config.pg_samples, len(rows.agents), rows.b, rows.n_outputs)
    stream = _stream(config, len(rows.agents), rows.n, rows.b, rows.n_outputs, helper)
    for epoch, (perms, fills) in enumerate(stream):
        index = rows.epoch_index(perms, steps_per_epoch)
        # mode="clip" lets `take` write into `out` unbuffered; every index is in range
        np.take(rows.x, index, axis=0, out=batches_x, mode="clip")
        np.take(targets, index, axis=0, out=batches_y, mode="clip")
        if config.mode != "plain":
            inputs = rows.regret_inputs(index, out=inputs)
        for k, (X, Y, *batch) in enumerate(zip(batches_x, batches_y, *inputs)):
            draw = None
            if config.mode == "pg":
                fill = next(fills)
                np.copyto(eps_blocks, fill.swapaxes(0, 1))
                draw = eps, fill.reshape(eps.shape)
            yield epoch * steps_per_epoch + k, X, Y, batch, draw


def train(config: TrainConfig | list[TrainConfig], params: ParamVector, agents: list[AgentSpec],
          data: PoolData) -> TrainResult | TrainRuns:
    """Run epochs of per-batch updates on the pool's train part; returns final parameters and a step log.

    Given a list of configs, trains one run per config in lockstep, all from
    `params`, and returns a `TrainRuns`.  The configs may differ only in `q`
    and `beta` (else ValueError), so the runs share everything that depends
    on neither: the pool's stacked rows, the RNG, every epoch's permutations
    and gathered batches, and in pg each step's one draw.  Each run's outcome
    is what `train` returns for its config alone, bit for bit, or the
    exception that stopped it (a `DivergenceError`, or any other error of its
    step): a run that fails stops alone, and the others go on.
    """
    configs = [config] if isinstance(config, TrainConfig) else list(config)
    if not configs:
        raise ValueError("train needs at least one config")
    first = configs[0]
    for other in configs[1:]:
        if replace(other, q=first.q, beta=first.beta) != first:
            raise ValueError(f"runs trained together may differ only in q and beta: {other} vs {first}")
    rows = _StackedRows(agents, data, data.train, first.batch_size, params.n_outputs, n_draws=first.pg_samples)
    targets = rows.normalized()
    std = first.std if first.std is not None else 0.1 * max(float(targets.std()), 1e-6)
    runs = [_Run(c, params, rows, std) for c in configs]
    # pg draws each step's noise once for every run, ahead on `pool`'s thread
    # if it has one.  Non-finite values are detected explicitly in each run's
    # step; numpy's overflow warnings on the way there (a finite gradient
    # times a huge lr can still overflow theta in the optimizer) are just noise
    with np.errstate(over="ignore", invalid="ignore"), _draw_helper(first.mode == "pg") as pool:
        live = runs
        for t, X, Y, batch, draw in _batches(first, rows, targets, pool):
            for run in live:
                try:
                    run.step(t, X, Y, batch, draw)
                except Exception as exc:  # this run stops; the shared stream goes on for the others
                    run.error = exc
                    live = [other for other in live if other is not run]  # the loop goes on over the old list
            if not live:
                break

    outcomes = [run.error or TrainResult(params=run.current, step_log=run.step_log, std=std) for run in runs]
    if isinstance(config, TrainConfig):
        (outcome,) = outcomes
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return TrainRuns(outcomes, [entry for run in runs for entry in run.step_log])


def evaluate(params: ParamVector, agents: list[AgentSpec], data: PoolData, q: float = 0.0, beta: float = 0.0, seed: int = 0) -> RunSummary:
    """Deterministic (Gaussian-mean) inference on the pool's test part, plus statistics.

    A summary field that is not finite (a diverged model's regrets or
    squared error) raises `DivergenceError` naming each such field: the
    summary would not be valid JSON.
    """
    rows = _StackedRows(agents, data, data.test, None, params.n_outputs)
    # a non-finite field is refused below; numpy's overflow warnings on the way are noise
    with np.errstate(over="ignore", invalid="ignore"):
        raws = rows.to_raw(predictor.forward_batch(params, rows.x))
        values = rows.regrets(raws[None], rows.regret_inputs(np.arange(len(rows.x))))
        r = rows.agent_means(values)[0]
        summary = RunSummary(
            per_agent_regret=r,
            variance=metrics.variance(r),
            mean=float(r.mean()),
            c95_minus_c5=metrics.percentile_gap(r),
            mse=metrics.mse(np.split(raws, len(agents)), np.split(data.test.rows.y_raw, len(agents))),
            entropy=metrics.norm_entropy(r),
            q=q,
            beta=beta,
            seed=seed,
        )
    bad = [name for name, value in summary.as_dict().items() if not np.isfinite(value).all()]
    if bad:
        raise DivergenceError(f"non-finite evaluation summary fields: {', '.join(bad)}", phase="evaluation")
    return summary
