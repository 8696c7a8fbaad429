"""Downstream decision processes: costs, prediction-driven policies, optima, regret.

Two agent families are supported.

* Data center: choose a resource allocation p > w trading off an emission
  term p*c against a latency term lam*w/(p - w).  The cost is smooth in the
  forecast, so both the closed-form optimum and the policy jacobian exist.
* Charging: choose a binary schedule over a horizon of T slots at a uniform
  rate; the cheapest-k-slots schedule is exactly optimal, but the schedule is
  discrete so there is no usable jacobian.

Regret of a sample is the cost of acting on the forecast minus the cost of
acting on the realized values; it is nonnegative up to floating point noise
and clamped at zero.  Both families' batched ops split the two: the
hindsight cost of the realized rows (`dc_optimal_batch`, `ev_optimal_batch`)
is computed once and handed to `dc_regret_batch` / `ev_regret_batch` as a
precomputed `best`, and only the forecast side runs each time.  The charging
ops take a `SlotRanking`, built once per call, that holds what the ranking
needs besides the values: each row's checked slot count and rate, the
positions of its k-th and (k+1)-th sorted values, and the work arrays.
Both sum each row's chosen slots with `row_sums`: column adds over all
rows in numpy's pairwise order, bitwise what `np.sum(..., axis=-1)` gives
by running its pairwise sum once per row.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InfeasibleActionError, SchemaError, check_fields, read_object

# Forecast values at or below this floor are clamped before the allocation
# policy inverts them, keeping the policy total under bad predictions.
FORECAST_FLOOR = 1e-6

# Minimum headroom of an allocation above the workload, relative to the
# workload; keeps the policy feasible (and the headroom representable next
# to w) even when an absurdly large forecast underflows sqrt(lam*w/c).
ALLOCATION_MARGIN = 1e-9

# Regret may dip this far below zero from floating point noise before we
# treat it as an oracle bug.
REGRET_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DataCenterContext:
    """Per-decision context: workload demand and the latency-vs-emission weight."""

    workload: float
    latency_weight: float

    def __post_init__(self):
        if self.workload <= 0:
            raise ConfigError(f"workload must be positive, got {self.workload}")
        if self.latency_weight <= 0:
            raise ConfigError(f"latency weight must be positive, got {self.latency_weight}")


@dataclass(frozen=True)
class ChargingContext:
    """A charging session: initial level, required level, uniform rate, horizon.

    `water_weight` and `price_weight` are the agent's mixing weights for the
    water-efficiency and price components of its energy signal; both zero
    reduces the agent to pure carbon-aware charging (e.g. a phone topping up
    overnight).
    """

    initial: float
    demand: float
    rate: float
    horizon: int
    water_weight: float = 0.0
    price_weight: float = 0.0

    def __post_init__(self):
        if self.initial < 0:
            raise ConfigError(f"initial charge must be nonnegative, got {self.initial}")
        if self.demand <= self.initial:
            raise ConfigError(f"demand {self.demand} must exceed initial charge {self.initial}")
        if self.rate <= 0:
            raise ConfigError(f"charge rate must be positive, got {self.rate}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.water_weight < 0 or self.price_weight < 0:
            raise ConfigError("mixing weights must be nonnegative")
        if required_slots(self) > self.horizon:
            raise ConfigError(
                f"demand needs {required_slots(self)} slots but horizon is {self.horizon}"
            )


_CONTEXTS = {"datacenter": DataCenterContext, "charging": ChargingContext}


@dataclass(frozen=True)
class AgentSpec:
    """One downstream agent: family tag, decision context, optional data reference."""

    agent_id: int
    family: str  # "datacenter" | "charging"
    context: DataCenterContext | ChargingContext
    data_ref: str | None = None

    def __post_init__(self):
        if self.family not in _CONTEXTS:
            raise ConfigError(f"unknown agent family '{self.family}'")
        wanted = _CONTEXTS[self.family]
        if not isinstance(self.context, wanted):
            raise ConfigError(f"{self.family} agent needs a {wanted.__name__}")


# ---------------------------------------------------------------------------
# Data-center family


def dc_cost(ctx: DataCenterContext, p: float, c: float) -> float:
    """Emission plus latency cost of allocating p under realized intensity c."""
    if c <= 0:
        raise ValueError(f"intensity must be positive, got {c}")
    if p <= ctx.workload:
        raise InfeasibleActionError(
            f"allocation {p} does not exceed workload {ctx.workload}"
        )
    return p * c + ctx.latency_weight * ctx.workload / (p - ctx.workload)


def dc_act(ctx: DataCenterContext, c_hat: float) -> float:
    """Allocation chosen from a forecast: w + sqrt(lam*w / max(c_hat, floor)).

    Total in c_hat: nonpositive forecasts hit the floor and still yield a
    feasible (large) allocation; enormous forecasts keep a tiny headroom
    above the workload instead of underflowing onto it.
    """
    c_eff = max(float(c_hat), FORECAST_FLOOR)
    margin = math.sqrt(ctx.latency_weight * ctx.workload / c_eff)
    return ctx.workload + max(margin, ALLOCATION_MARGIN * ctx.workload)


def dc_act_jacobian(ctx: DataCenterContext, c_hat: float) -> float:
    """d(allocation)/d(forecast); zero in the clamped region."""
    if c_hat <= FORECAST_FLOOR:
        return 0.0
    return -0.5 * math.sqrt(ctx.latency_weight * ctx.workload) * float(c_hat) ** -1.5


def dc_cost_grad_action(ctx: DataCenterContext, p: float, c: float) -> float:
    """d(cost)/d(allocation) at (p, c)."""
    if p <= ctx.workload:
        raise InfeasibleActionError(
            f"allocation {p} does not exceed workload {ctx.workload}"
        )
    return c - ctx.latency_weight * ctx.workload / (p - ctx.workload) ** 2


def dc_optimal(ctx: DataCenterContext, c: float) -> tuple[float, float]:
    """Exact minimizer of dc_cost and its cost, from the stationarity condition."""
    if c <= 0:
        raise ValueError(f"intensity must be positive, got {c}")
    p_star = ctx.workload + math.sqrt(ctx.latency_weight * ctx.workload / c)
    cost_star = ctx.workload * c + 2.0 * math.sqrt(ctx.latency_weight * ctx.workload * c)
    return p_star, cost_star


# ---------------------------------------------------------------------------
# Charging family


def required_slots(ctx: ChargingContext) -> int:
    """Smallest number of active slots that covers demand - initial at the uniform rate."""
    return int(math.ceil((ctx.demand - ctx.initial) / ctx.rate - 1e-12))


def ev_cost(ctx: ChargingContext, schedule, energy) -> float:
    """Cost of a binary schedule against a per-slot energy signal."""
    x = np.asarray(schedule, dtype=float)
    e = np.asarray(energy, dtype=float)
    if x.shape != (ctx.horizon,) or e.shape != (ctx.horizon,):
        raise ValueError(
            f"schedule/energy must have length {ctx.horizon}, got {x.shape} and {e.shape}"
        )
    return float(ctx.rate * np.add.reduce(x * e))


def ev_act(ctx: ChargingContext, e_hat) -> np.ndarray:
    """Charge in the k slots with the smallest forecast signal, earliest index first on ties."""
    e = np.asarray(e_hat, dtype=float)
    if e.shape != (ctx.horizon,):
        raise ValueError(f"forecast must have length {ctx.horizon}, got shape {e.shape}")
    k = required_slots(ctx)
    order = e.argsort(kind="stable")
    schedule = np.zeros(ctx.horizon, dtype=int)
    schedule[order[:k]] = 1
    return schedule


def ev_optimal(ctx: ChargingContext, energy) -> tuple[np.ndarray, float]:
    """Cheapest-k schedule under the realized signal; exactly optimal for this cost."""
    schedule = ev_act(ctx, energy)
    return schedule, ev_cost(ctx, schedule, energy)


# ---------------------------------------------------------------------------
# Row sums


def row_sums(a: np.ndarray) -> np.ndarray:
    """`np.sum(a, axis=-1)` of a float array with rows of at least one value, bit for bit, by column adds.

    numpy sums each row with `pairwise_sum` and adds the result to the
    identity 0.0: under 8 values left to right; 8 to 128 values in eight
    accumulators stepped by 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover values one by one; more than 128 split at n//2 rounded
    down to a multiple of 8.  Doing those adds a column at a time over all
    rows skips numpy's per-row call.  That is numpy's order when each row
    lies in memory in order (the callers' arrays; numpy adds the columns of
    a Fortran-ordered array one by one).  It is numpy 2.4.6's order
    (`tests/test_agents.py` checks it bitwise); a numpy that sums in another
    order fails that test rather than changing results silently.
    """
    total = _pairwise(a)
    total += 0.0  # the identity: an all -0.0 row sums to +0.0
    return total


def _pairwise(a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise(a[..., :half])
        total += _pairwise(a[..., half:])
        return total
    if n < 8:
        total = a[..., 0].copy()
        for j in range(1, n):
            total += a[..., j]
        return total
    blocks = n - n % 8
    acc = a[..., :8]
    if blocks > 8:
        acc = acc + a[..., 8:16]
        for i in range(16, blocks, 8):
            acc += a[..., i:i + 8]
    total = acc[..., 0] + acc[..., 1]
    total += acc[..., 2] + acc[..., 3]
    right = acc[..., 4] + acc[..., 5]
    right += acc[..., 6] + acc[..., 7]
    total += right
    for j in range(blocks, n):
        total += a[..., j]
    return total


# ---------------------------------------------------------------------------
# Regret


def regret(agent: AgentSpec, y_hat, y, context=None) -> float:
    """Decision regret of forecasting y_hat when y realized, clamped at zero.

    For data-center agents y_hat and y are scalars, or arrays of one entry
    (forecast and realized intensity); for charging agents they are length-T
    signal vectors.  An explicit `context` overrides the agent's stored one,
    which lets callers feed per-sample workloads without rebuilding specs.
    """
    ctx = context if context is not None else agent.context
    if agent.family == "datacenter":
        c_hat, c = _one_value(y_hat), _one_value(y)
        taken = dc_cost(ctx, dc_act(ctx, c_hat), c)
        _, best = dc_optimal(ctx, c)
    else:
        schedule = ev_act(ctx, y_hat)
        taken = ev_cost(ctx, schedule, y)
        _, best = ev_optimal(ctx, y)
    value = taken - best
    if value < -REGRET_TOLERANCE:
        raise ValueError(
            f"regret {value} below -{REGRET_TOLERANCE}: decision oracle is inconsistent"
        )
    return max(value, 0.0)


def _one_value(v) -> float:
    """A scalar, or an array of one entry, as a Python float."""
    if isinstance(v, float):  # a Python float or an np.float64, which np.asarray reads slowly
        return float(v)
    if np.size(v) != 1:  # the trainer scores a multi-output forecast at its mean, not its first entry
        raise ValueError(f"a data-center forecast or realized value is one number, got an array of size {np.size(v)}")
    return float(np.asarray(v).reshape(-1)[0])


def dc_optimal_batch(workloads, lams, c) -> np.ndarray:
    """Vectorized hindsight-optimal data-center cost: `dc_optimal`'s cost row by row.

    It does not depend on any forecast, so callers compute it once per
    realized row and pass it to `dc_regret_batch` as `best`.
    """
    w = np.asarray(workloads, dtype=float)
    cv = np.asarray(c, dtype=float)
    if not np.all(cv > 0):
        raise ValueError(f"realized intensity must be positive, got {cv.min()}")
    return w * cv + 2.0 * np.sqrt(np.asarray(lams, dtype=float) * w * cv)


def dc_regret_batch(workloads, lams, c_hat, c, best) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized data-center regret of (D*B,) forecasts against (B,) realized rows.

    `workloads`, `lams`, the realized intensities `c` and their hindsight
    costs `best = dc_optimal_batch(workloads, lams, c)` are per realized row
    (scalars broadcast over the rows); the forecasts come in blocks of B,
    one block per draw, and forecast j is scored against realized row
    j % B.  Returns the (D*B,) regrets, which match `regret` sample by
    sample, and their derivatives with respect to the forecast:
    dC/dp * dp/dc_hat as `dc_cost_grad_action` and `dc_act_jacobian` give
    them (zero in the clamped region).
    """
    cv = np.asarray(c, dtype=float)
    raw = np.asarray(c_hat, dtype=float)
    if cv.ndim != 1 or raw.ndim != 1 or len(cv) == 0 or len(raw) % len(cv):
        raise ValueError(f"expected (D*B,) forecasts for (B,) realized rows, got {raw.shape} and {cv.shape}")
    raw = raw.reshape(-1, len(cv))
    w = np.asarray(workloads, dtype=float)
    ch = np.maximum(raw, FORECAST_FLOOR)
    lw = np.asarray(lams, dtype=float) * w
    root = np.sqrt(lw / ch)
    p_hat = w + np.maximum(root, ALLOCATION_MARGIN * w)
    headroom = p_hat - w
    values = (p_hat * cv + lw / headroom - best).reshape(-1)
    if (values < -REGRET_TOLERANCE).any():
        raise ValueError(f"regret {values.min()} below -{REGRET_TOLERANCE}")
    # dp/dc_hat = -sqrt(lam*w) / 2 * c_hat^-1.5 = -root / (2 c_hat)
    dact = np.where(raw > FORECAST_FLOOR, -0.5 * root / ch, 0.0)
    return values.clip(0.0, None), ((cv - lw / headroom**2) * dact).reshape(-1)


class SlotRanking:
    """The forecast-independent state of ranking D blocks of B charging rows by their cheapest slots.

    Built once per call for B realized rows, row i charging `slots[i]` slots
    at `rates[i]`, and D blocks of B forecast rows (one per draw), forecast
    row j ranked with k = slots[j % B].  A count outside 1..horizon raises
    `InfeasibleActionError` here.  It holds each forecast row's k, the flat
    positions of its k-th and (k+1)-th sorted entries (the latter clipped
    into the array), the k < T mask, and the work arrays that every
    `ev_optimal_batch` or `ev_regret_batch` call refills: the sorted copy,
    which then holds the masked product, and the chosen mask.  Neither op
    returns a view of them.
    """

    def __init__(self, slots, rates, horizon: int, n_draws: int = 1):
        k = np.asarray(slots, dtype=np.int64)
        if np.any(k < 1) or np.any(k > horizon):
            raise InfeasibleActionError(f"need between 1 and {horizon} slots per row, got {k.min()}..{k.max()}")
        self.rate = np.broadcast_to(np.asarray(rates, dtype=float), k.shape)
        self.slots = np.tile(k, n_draws)
        size = self.slots.size * horizon
        at = np.arange(0, size, horizon) + self.slots
        self.last, self.following = at - 1, np.minimum(at, size - 1)
        self.short = self.slots < horizon
        self.blocks = (n_draws, k.size, horizon)
        self.sorted = np.empty((self.slots.size, horizon))
        self.chosen = np.empty(self.sorted.shape, dtype=bool)


def _cheapest_slots(values: np.ndarray, ranking: SlotRanking) -> np.ndarray:
    """Boolean mask of each (N, T) row's k smallest entries, earliest index first on ties.

    Row j takes k = ranking.slots[j].  One in-place sort of the ranking's
    copy gives each row's k-th smallest value, and the entries at or below
    it are chosen.  That is exactly k entries unless the threshold is NaN
    or, for k < T, the (k+1)-th sorted value is not above it (a tie at the
    threshold); only those rows are ranked again with the stable argsort of
    `ev_act`.  The mask is the ranking's `chosen` array.
    """
    horizon = values.shape[1]
    ordered = ranking.sorted
    np.copyto(ordered, values)
    ordered.sort(axis=1)
    threshold = ordered.ravel()[ranking.last]
    following = ordered.ravel()[ranking.following]
    chosen = np.less_equal(values, threshold[:, None], out=ranking.chosen)
    odd = (np.isnan(threshold) | (ranking.short & ~(following > threshold))).nonzero()[0]
    if odd.size:
        order = np.argsort(values[odd], axis=1, kind="stable")
        ranked = np.empty((odd.size, horizon), dtype=bool)
        np.put_along_axis(ranked, order, np.arange(horizon) < ranking.slots[odd, None], axis=1)
        chosen[odd] = ranked
    return chosen


def ev_optimal_batch(ranking: SlotRanking, e) -> np.ndarray:
    """Vectorized hindsight-optimal charging cost of (B, T) realized rows.

    Row i charges the ranking's `slots[i]` slots at its `rates[i]`, with a
    ranking built for one block (D = 1); this is `ev_optimal`'s cost row by
    row.  It does not depend on any forecast, so callers compute it once per
    realized row and pass it to `ev_regret_batch` as `best`.  The signal
    must be finite: chosen slots are summed as `e * mask`.
    """
    ev = np.asarray(e, dtype=float)
    if ranking.blocks != (1,) + ev.shape:
        raise ValueError(f"expected {ranking.blocks[1:]} realized rows for one block, got shape {ev.shape}")
    if not np.all(np.isfinite(ev)):
        raise ValueError("realized charging signal must be finite")
    total = row_sums(np.multiply(ev, _cheapest_slots(ev, ranking), out=ranking.sorted))
    total *= ranking.rate
    return total


def ev_regret_batch(ranking: SlotRanking, e_hat, e, best) -> np.ndarray:
    """Vectorized charging regret of (D*B, T) forecast rows against (B, T) realized rows.

    The forecasts come in the ranking's D blocks of B rows, and forecast row
    j is scored against realized row j % B with its slot count and rate:
    what `ev_act` and `ev_cost` do for a context with k = required_slots(ctx).
    `best` holds each realized row's hindsight-optimal cost,
    `ev_optimal_batch`, which callers compute once since no forecast
    changes it; that op also checks that `e` is finite, which the masked
    sum `e * chosen` relies on.  Every call checks that no regret falls
    below -REGRET_TOLERANCE.  Returns a new (D*B,) array that matches
    `regret` sample by sample.
    """
    eh = np.asarray(e_hat, dtype=float)
    ev = np.asarray(e, dtype=float)
    if eh.shape != ranking.sorted.shape or ev.shape != ranking.blocks[1:]:
        raise ValueError(
            f"expected {ranking.sorted.shape} forecasts for {ranking.blocks[1:]} realized rows, "
            f"got {eh.shape} and {ev.shape}"
        )
    chosen = _cheapest_slots(eh, ranking).reshape(ranking.blocks)
    values = row_sums(np.multiply(ev, chosen, out=ranking.sorted.reshape(ranking.blocks)))
    values *= ranking.rate
    values -= best
    values = values.reshape(-1)
    if (values < -REGRET_TOLERANCE).any():
        raise ValueError(f"regret {values.min()} below -{REGRET_TOLERANCE}")
    return values.clip(0.0, None, out=values)


# ---------------------------------------------------------------------------
# Agent pool files (JSON)

def save_agent_pool(path, agents: list[AgentSpec]) -> None:
    Path(path).write_text(json.dumps({"agents": [asdict(a) for a in agents]}, indent=2))


def load_agent_pool(path) -> list[AgentSpec]:
    doc = read_object(path, SchemaError)
    if not isinstance(doc.get("agents"), list):
        raise SchemaError(f"{path}: expected an object with an 'agents' list")
    agents, ids = [], set()
    for i, entry in enumerate(doc["agents"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: agent entry {i} is not an object")
        try:
            check_fields(AgentSpec, entry, "agent")
            kind, context = _CONTEXTS.get(entry.get("family")), entry.get("context")
            if kind is not None and context is not None:
                check_fields(kind, context, f"{entry['family']} context")
                entry = {**entry, "context": kind(**context)}
            agent = AgentSpec(**entry)  # a missing field is a TypeError
        except (ConfigError, TypeError) as exc:
            raise SchemaError(f"{path}: agent entry {i}: {exc}") from exc
        if agent.agent_id in ids:
            raise SchemaError(f"{path}: agent entry {i} repeats agent_id {agent.agent_id}")
        ids.add(agent.agent_id)
        agents.append(agent)
    return agents
