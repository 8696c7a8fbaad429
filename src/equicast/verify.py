"""Release-gate verification suites.

Each suite pits an implementation against an independent oracle (grid
search, exhaustive enumeration, finite differences, Monte Carlo, or a
closed-form identity) and reports the measured worst case next to its
tolerance; the chain suite checks the update `training.train` applies.
`run_all` is what the CLI's `verify` subcommand executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import agents as agentmod
from . import metrics, objective, predictor, training
from .agents import AgentSpec, ChargingContext, DataCenterContext
from .data import Part, PoolWindows
from .errors import ConfigError


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


_DC_STRIDE = 100


def _arange_len(start: float, stop: float, step: float) -> int:
    """len(np.arange(start, stop, step)) for positive float arguments: numpy's ceil((stop - start) / step)."""
    return math.ceil((stop - start) / step)


def _arange_points(start: float, step: float, index: np.ndarray) -> np.ndarray:
    """np.arange(start, stop, step)[index] for float arguments, without building the array.

    numpy fills point i as start + i * delta, with delta = (start + step) -
    start, the difference of its first two points, not `step` itself.
    """
    return start + index * ((start + step) - start)


def _dc_grid_min(w: float, lam: float, c: float, step: float) -> float:
    """Least data-center cost p*c + lam*w/(p - w) over np.arange(w + step, w + 10, step).

    The cost is convex in p: every `_DC_STRIDE`-th point is scored, then
    every point within one stride of the best of those, and that window's
    minimum is the grid's.  Only those points are computed, each as
    `np.arange` computes it (`_arange_points`; a test pins them to numpy's).
    """
    start = w + step
    n = _arange_len(start, w + 10.0, step)

    def cost(index):
        p = _arange_points(start, step, index)
        return p * c + lam * w / (p - w)

    best = int(np.argmin(cost(np.arange(0, n, _DC_STRIDE)))) * _DC_STRIDE
    return float(cost(np.arange(max(best - _DC_STRIDE, 0), min(best + _DC_STRIDE + 1, n))).min())


def _schedule_sums(e: np.ndarray) -> np.ndarray:
    """`row_sums(mask * e)` of every 0/1 mask over one signal of 8 to 15 slots, bit for bit, by doubling.

    numpy sums the products pairwise, ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then adds slots 8 and up one by one.  A masked-out slot's product is a
    zero that leaves a nonzero sum as it is, so its add is skipped: the four
    pair sums take 4 values each, their two outer sums 16 and the outer sum
    of those 256, and each later slot doubles the filled run of one buffer.
    A subset's sum sits at its place, the integer whose set bits are its
    slots: slot j at bit 7 - j below 8, at bit j from 8 on.  A zero sum
    comes out +0.0, as row_sums' identity makes it, for any signal with no
    -0.0 entry.
    """
    pairs = np.zeros((4, 4))
    pairs[:, 1], pairs[:, 2] = e[1:8:2], e[0:8:2]
    np.add(e[0:8:2], e[1:8:2], out=pairs[:, 3])
    sums = np.empty(2 ** len(e))
    left, right = (pairs[0::2, :, None] + pairs[1::2, None, :]).reshape(2, 16)
    np.add.outer(left, right, out=sums[:256].reshape(16, 16))
    for j in range(8, len(e)):
        np.add(sums[:2**j], e[j], out=sums[2**j:2 ** (j + 1)])
    return sums


def _subset_places(horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every nonempty subset's place in `_schedule_sums`' buffer, by size, and where each size's places start.

    A place's bit count is its subset's size; the order within a size is
    unread, as the suite takes each size's minimum.
    """
    places = np.arange(1, 2**horizon)
    sizes = sum((places >> j) & 1 for j in range(horizon))
    order = np.argsort(sizes, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(sizes)[1:])))
    return places[order], starts


def check_decision_oracles(n_cases: int = 100, seed: int = 0, grid_step: float = 1e-4) -> SuiteResult:
    """Closed-form optima vs grid search (data center) and enumeration (charging).

    The batched ops the trainer applies, `dc_optimal_batch` and
    `ev_optimal_batch`, must equal the scalar optima the oracles accepted
    exactly: each is one call over all cases.
    """
    rng = np.random.default_rng(seed)
    dc_cases, dc_costs, gaps = np.empty((n_cases, 3)), np.empty(n_cases), np.empty(n_cases)
    for i in range(n_cases):
        w = float(rng.uniform(0.5, 4.0))
        lam = float(rng.uniform(0.5, 4.0))
        c = float(rng.uniform(0.5, 4.0))
        ctx = DataCenterContext(workload=w, latency_weight=lam)
        _, cost_star = agentmod.dc_optimal(ctx, c)
        gaps[i] = _dc_grid_min(w, lam, c, grid_step) - cost_star
        dc_cases[i], dc_costs[i] = (w, lam, c), cost_star
    below = np.flatnonzero(gaps < -grid_step)
    if below.size:
        return SuiteResult("decision_oracles", False, f"grid found cost {float(gaps[below[0]])} below closed form")
    worst_dc = float(np.max(np.abs(gaps)))  # np.max keeps a NaN, which then fails the gate
    if not worst_dc <= grid_step:
        return SuiteResult("decision_oracles", False, f"dc cost error {worst_dc} > {grid_step}")
    # the grid's 1e-4 tolerance cannot see a small error, so the batched op
    # must match the grid-checked closed form bit for bit
    batch = agentmod.dc_optimal_batch(*dc_cases.T)
    misses = np.count_nonzero(batch != dc_costs)
    if misses:
        return SuiteResult("decision_oracles", False, f"dc_optimal_batch differs from dc_optimal on {misses} cases")

    horizon = 12
    places, starts = _subset_places(horizon)
    mismatches = 0
    signals, rates, enum_best = np.empty((n_cases, horizon)), np.empty(n_cases), np.empty((n_cases, horizon))
    for i in range(n_cases):
        e = rng.uniform(0.2, 3.0, size=horizon)
        rate = float(rng.uniform(0.5, 3.0))
        # every subset's cost as ev_cost takes it, rate times numpy's sum of
        # the schedule times the signal (`_schedule_sums` builds every
        # subset's sum in numpy's order, bit for bit), so each size's least
        # cost is what ev_cost gives its best schedule, and equality must be
        # exact
        enum_costs = rate * _schedule_sums(e)[places]
        enum_best[i] = np.minimum.reduceat(enum_costs, starts[:-1])
        for k in range(1, horizon + 1):
            ctx = ChargingContext(initial=0.0, demand=(k - 0.5) * rate, rate=rate, horizon=horizon)
            _, cost = agentmod.ev_optimal(ctx, e)
            if cost != enum_best[i, k - 1]:
                mismatches += 1
        signals[i], rates[i] = e, rate
    if mismatches:
        return SuiteResult("decision_oracles", False, f"{mismatches} enumeration mismatches")
    ranking = agentmod.SlotRanking(np.tile(np.arange(1, horizon + 1), n_cases), np.repeat(rates, horizon), horizon)
    batch = agentmod.ev_optimal_batch(ranking, np.repeat(signals, horizon, axis=0))
    misses = np.count_nonzero(batch != enum_best.ravel())
    if misses:
        return SuiteResult("decision_oracles", False, f"ev_optimal_batch: {misses} enumeration mismatches")
    return SuiteResult(
        "decision_oracles", True,
        f"dc cost error {worst_dc:.2e} <= {grid_step}; ev exact on {n_cases}x{horizon} cases",
    )


def _dc_pipeline_terms(params, agents_list, rows, t_mean, t_scale) -> tuple[list, float]:
    """Per-agent mean regrets and MSE sum of a data-center pipeline, for finite differencing.

    Regrets go through the scalar `agents.regret` path, independent of the
    batched one the trainer uses.  `rows` holds, per agent, what no probe
    changes: its windows, its realized values as floats, its (b, 1) targets
    normalized by `t_mean` and `t_scale`, and its per-row contexts.
    """
    mean_regrets = []
    mse_sum = 0.0
    for agent, (X, ys, ys_norm, contexts) in zip(agents_list, rows):
        preds = predictor.forward_batch(params, X)
        values = [
            agentmod.regret(agent, t_mean + t_scale * p, y, context=ctx)
            for p, y, ctx in zip(preds[:, 0].tolist(), ys, contexts)
        ]
        mean_regrets.append(np.mean(values))
        mse_sum += float(np.mean(np.sum((preds - ys_norm) ** 2, axis=1)))
    return mean_regrets, mse_sum


def check_chain_gradient(qs=(0.0, 1.0, 2.0), betas=(0.0, 0.5, 1.0), seed: int = 0, tol: float = 1e-3) -> SuiteResult:
    """The chain update `train` applies vs central finite differences on a two-layer net + data-center costs.

    Two agents' 6 rows each form a pool.  One chain `train` step at batch
    size n, lr 1 and plain SGD moves the parameters by minus its gradient,
    so the trainer's whole step is checked against the scalar
    `agents.regret` path.  The (q, beta) cells train in one lockstep call; a
    cell whose run stops raises that run's error.  A row given another
    agent's regret weight shows at every q > 0.  The error is relative to the
    smaller of the two weighted parts' finite-difference scales,
    (1 - beta) * max|d eq| and beta * max|d mse| (a part of weight 0 is
    skipped), so where the squared error dominates the gradient an error in
    the regret part is not hidden.
    """
    rng = np.random.default_rng(seed)
    n_in, n_hidden = 4, 5
    params = predictor.init_params([n_in, n_hidden, 1], seed=seed + 1)
    agents_list = [
        AgentSpec(0, "datacenter", DataCenterContext(workload=1.5, latency_weight=2.0)),
        AgentSpec(1, "datacenter", DataCenterContext(workload=3.0, latency_weight=0.8)),
    ]
    b = 6
    rows = b * len(agents_list)
    X = rng.uniform(-1, 1, size=(rows, n_in))
    Y = rng.uniform(0.9, 2.4, size=(rows, 1))
    w = rng.uniform(1.0, 4.0, size=rows)
    part = Part(X, Y, Y, w, len(agents_list))
    pool = training.PoolData(agents_list, PoolWindows(part, part))
    agent_rows = []
    for agent, Xa, Ya, wa in zip(agents_list, *(np.split(v, len(agents_list)) for v in (X, Y, w))):
        contexts = [replace(agent.context, workload=wi) for wi in wa.tolist()]
        agent_rows.append((Xa, Ya[:, 0].tolist(), (Ya - pool.mean) / pool.scale, contexts))

    # the probed regrets and MSE do not depend on (q, beta): each +-h probe
    # of each parameter runs once, on one vector that it edits in place and
    # restores, and every (q, beta) blends its terms
    h = 1e-5
    probe = params.with_values(params.values.copy())
    terms = []
    for j, value in enumerate(params.values):
        probe.values[j] += h
        terms.append(_dc_pipeline_terms(probe, agents_list, agent_rows, pool.mean, pool.scale))
        probe.values[j] -= 2 * h
        terms.append(_dc_pipeline_terms(probe, agents_list, agent_rows, pool.mean, pool.scale))
        probe.values[j] = value

    # each lockstep run is bitwise its solo run
    cells = training.train(
        [training.TrainConfig(mode="chain", q=q, beta=beta, lr=1.0, epochs=1, batch_size=b, seed=seed)
         for q in qs for beta in betas],
        params, agents_list, pool,
    ).outcomes
    mse = np.array([m for _, m in terms])
    mse_fd = (mse[0::2] - mse[1::2]) / (2 * h)
    errors = []
    for i, q in enumerate(qs):
        eq = np.array([objective.equitable_loss(r, q) for r, _ in terms])
        eq_fd = (eq[0::2] - eq[1::2]) / (2 * h)
        for beta, run in zip(betas, cells[i * len(betas):(i + 1) * len(betas)]):
            if isinstance(run, Exception):  # the cell's run stopped: the suite fails with its error
                raise run
            grad = params.values - run.params.values
            losses = (1.0 - beta) * eq + beta * mse
            fd = (losses[0::2] - losses[1::2]) / (2 * h)
            parts = ((1.0 - beta, eq_fd), (beta, mse_fd))
            scale = max(min(w * float(np.max(np.abs(part))) for w, part in parts if w > 0), 1e-8)
            errors.append(float(np.max(np.abs(grad - fd))) / scale)
    worst = float(np.max(errors))  # np.max keeps a NaN, which then fails the gate
    passed = worst < tol
    return SuiteResult("chain_gradient", passed, f"max relative error {worst:.2e} vs tolerance {tol}")


_PG_THETAS, _PG_DRAWS = (0.0, 0.5, 2.0), 200_000


def _pg_draws(seed: int, n_draws: int = _PG_DRAWS, n_thetas: int = len(_PG_THETAS), helper=None):
    """The pg suite's stream: per theta, `standard_normal(n_draws)` on `default_rng(seed)`, through `training._ahead`."""
    rng = np.random.default_rng(seed)
    return training._ahead(helper, [partial(rng.standard_normal, n_draws)] * n_thetas)


def check_pg_estimator(thetas=_PG_THETAS, n_draws: int = _PG_DRAWS, std: float = 0.3, seed: int = 0,
                       draws=None) -> SuiteResult:
    """The trainer's score-function op vs the analytic gradient of E[(yhat-1)^2].

    A one-parameter model (bias-only, zero input) makes the prediction equal
    the parameter, so d/dtheta E[C] = 2(theta-1) exactly.  `objective.pg_grad`,
    its cotangent backpropagated by the trainer's one `vjp_batch` call, is
    first checked in closed form on one draw with loss 1 and baseline 0,
    whose estimate is the draw's score [0, eps/std].  Then it takes all draws
    in one call, once with no baseline and once with the trainer's
    leave-one-out baseline: each result must equal the mean of the per-draw
    estimates (loss - baseline) * eps / std, and lie within five standard
    errors of the analytic gradient.

    `draws` holds each theta's (n_draws,) standard normals, in order; by
    default the suite's stream (`_pg_draws`), drawn inline as each theta is
    checked.
    """
    if draws is None:
        draws = _pg_draws(seed, n_draws, len(thetas))
    X = np.zeros((1, 1))
    details = []
    # the draws' losses are formed in place in `losses`; each pass's baseline, then its terms, in `work`
    losses, work = np.empty(n_draws), np.empty(n_draws)
    for theta, eps in zip(thetas, draws):
        params = predictor.ParamVector(values=np.array([0.0, theta]), layer_sizes=(1, 1))
        _, acts = predictor.forward_batch(params, X, keep=True)
        cot = objective.pg_grad(eps[:1].reshape(1, 1, 1), np.ones(1), 0.0, std)
        score = predictor.vjp_batch(params, X, cot, acts)
        if not np.allclose(score, [0.0, eps[0] / std], rtol=0, atol=1e-12):
            return SuiteResult("pg_estimator", False, f"theta={theta}: one-draw pg_grad {score} vs [0, {eps[0] / std}]")
        # losses = (theta + std * eps - 1)^2
        np.multiply(eps, std, out=losses)
        losses += theta
        losses -= 1.0
        np.square(losses, out=losses)
        target = 2.0 * (theta - 1.0)
        for label in ("", ", leave-one-out baseline"):
            baseline = 0.0
            if label:  # the leave-one-out baseline, (sum - losses) / (n - 1)
                baseline = np.subtract(losses.sum(), losses, out=work)
                baseline /= n_draws - 1
            cot = objective.pg_grad(eps.reshape(-1, 1, 1), losses, baseline, std)
            estimate = float(predictor.vjp_batch(params, X, cot, acts)[1])
            # terms = (losses - baseline) * eps / std, over the baseline once pg_grad has read it
            terms = np.subtract(losses, baseline, out=work)
            terms *= eps
            terms /= std
            if not np.isclose(estimate, terms.mean(), rtol=1e-12, atol=0.0):
                return SuiteResult(
                    "pg_estimator", False, f"theta={theta}{label}: pg_grad {estimate} vs mean of draws {terms.mean()}"
                )
            se = float(terms.std() / np.sqrt(n_draws))
            err = abs(estimate - target)
            check = f"theta={theta}{label}: |err|={err:.4f} vs 5se={5 * se:.4f}"
            if err > 5 * se:
                return SuiteResult("pg_estimator", False, "; ".join(details + [check]))
            if not label:  # the pass detail reports the no-baseline estimate only
                details.append(check)
    return SuiteResult("pg_estimator", True, "; ".join(details))


# ---------------------------------------------------------------------------
# Analytic toys for the equity theorems.  These bypass the network: the
# statements are about the optimum of the objective itself.


@dataclass(frozen=True, eq=False)
class QuadraticToy:
    """K toys of M agents: agent m of toy k costs (theta_k - t_km)^2 + c_km.

    Strictly convex, minimum c_km >= 0 off-target.  Targets and offsets are
    (K, M); one toy may be given as (M,) vectors.  `costs` takes one theta
    per toy (or one for all, or an (..., K) stack of them) and returns the
    (..., K, M) costs.
    """

    targets: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", np.atleast_2d(np.asarray(self.targets, dtype=float)))
        object.__setattr__(self, "offsets", np.atleast_2d(np.asarray(self.offsets, dtype=float)))
        if self.targets.shape != self.offsets.shape or self.targets.ndim != 2 or self.targets.shape[1] < 2:
            raise ConfigError("toy needs matching target/offset vectors of length >= 2")
        if np.any(self.offsets < 0):
            raise ConfigError("offsets must be nonnegative")

    def costs(self, theta) -> np.ndarray:
        return (np.asarray(theta)[..., None] - self.targets) ** 2 + self.offsets


def minimize_toy(toy: QuadraticToy, qs) -> np.ndarray:
    """Global minimizer of each toy's aggregate loss at each exponent in `qs`, (len(qs), K).

    The loss at q is sum_m cost_m^(q+1).  Golden-section brackets the
    optimum; a few Newton steps on the gradient then push it to machine
    precision (golden alone stalls near sqrt(eps) because it compares
    nearly-equal function values).  Every (exponent, toy) row runs in
    lockstep, each with its own bracket; a row's result is taken when its
    own stopping test fires, so every row equals a one-toy scalar run bit for
    bit.  Each iterate's costs are formed once for every row; each
    exponent's row block then takes its powers at that one scalar q: numpy's
    `**` fast paths for the exponents 1 and 2 are exact, and a per-row
    exponent array would bypass them.
    """
    def losses(theta):
        costs = toy.costs(theta)
        out = np.empty(theta.shape)
        for i, q in enumerate(qs):
            out[i] = np.add.reduce(costs[i] ** (q + 1.0), axis=1)
        return out

    def derivatives(theta):
        costs = toy.costs(theta)
        diff = theta[..., None] - toy.targets
        dc_sq = (2.0 * diff) ** 2
        positive = np.where(costs > 0, costs, 1.0)
        g, h = np.empty(theta.shape), np.empty(theta.shape)
        for i, q in enumerate(qs):
            cq = costs[i] ** q
            g[i] = np.add.reduce((q + 1.0) * cq * 2.0 * diff[i], axis=1)
            h[i] = np.add.reduce((q + 1.0) * (q * positive[i] ** (q - 1.0) * dc_sq[i] + cq * 2.0), axis=1)
        return g, h

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    shape = (len(qs), len(toy.targets))
    a = np.broadcast_to(toy.targets.min(axis=1) - 1.0, shape)
    b = np.broadcast_to(toy.targets.max(axis=1) + 1.0, shape)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = losses(c), losses(d)
    theta = np.full(shape, np.nan)
    pending = np.ones(shape, dtype=bool)
    while True:
        done = pending & ~(b - a > 1e-10)
        theta = np.where(done, 0.5 * (a + b), theta)
        pending &= ~done
        if not pending.any():
            break
        # rows already done keep narrowing, but their result is fixed
        left = fc < fd  # keep [a, d], else [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        gap = invphi * (b - a)
        c, d = np.where(left, b - gap, d), np.where(left, c, a + gap)
        f_new = losses(np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    live = np.ones(shape, dtype=bool)
    for _ in range(50):
        g, h = derivatives(theta)
        live &= ~(h <= 0)  # negated tests: a NaN row runs on, as in a one-toy loop
        step = np.divide(g, h, out=np.zeros_like(g), where=live)
        theta = theta - step
        live &= ~(np.abs(step) < 1e-14 * np.fmax(1.0, np.abs(theta)))
        if not live.any():
            break
    return theta


def _random_toys(rng, n_toys: int, min_offset: float = 0.0) -> QuadraticToy:
    """Two-agent toys with targets at least 0.1 apart, drawn toy by toy."""
    targets, offsets = [], []
    for _ in range(n_toys):
        t = rng.uniform(-1.0, 1.0, size=2)
        while abs(t[0] - t[1]) < 0.1:
            t = rng.uniform(-1.0, 1.0, size=2)
        targets.append(t)
        offsets.append(rng.uniform(min_offset, 1.0, size=2))
    return QuadraticToy(targets=np.array(targets), offsets=np.array(offsets))


def check_theorem_variance(n_toys: int = 50, seed: int = 0) -> SuiteResult:
    """Variance at the q=1 optimum never exceeds the q=0 one on random convex toys."""
    toys = _random_toys(np.random.default_rng(seed), n_toys)
    theta0, theta1 = minimize_toy(toys, (0.0, 1.0))
    var0 = np.array([metrics.variance(c) for c in toys.costs(theta0)])
    var1 = np.array([metrics.variance(c) for c in toys.costs(theta1)])
    worst = np.max(var1 - var0)  # np.max keeps a NaN, which then fails the gate
    detail = f"{n_toys} toys, worst var(q=1)-var(q=0) = {worst:.2e} (must be <= 1e-9)"
    if not worst <= 1e-9:
        return SuiteResult("theorem_variance", False, f"equity-by-variance violated: {detail}")
    return SuiteResult("theorem_variance", True, detail)


def check_theorem_entropy(n_toys: int = 20, qs=(0.0, 0.5, 1.0, 2.0), seed: int = 0) -> SuiteResult:
    """Entropy of the reweighted outcome distribution does not drop as the exponent rises.

    At each q, the central difference over p = q +- h of the normalized
    entropy of costs^(q+1) at the optimum theta*_p must stay >= -1e-6.  The
    toys' offsets are >= 0.1, so every cost is positive.
    """
    toys = _random_toys(np.random.default_rng(seed), n_toys, min_offset=0.1)
    h = 1e-3
    optima = minimize_toy(toys, [p for q in qs for p in (q + h, q - h)])
    derivs = []
    for q, theta_hi, theta_lo in zip(qs, optima[0::2], optima[1::2]):
        hi, lo = toys.costs(theta_hi), toys.costs(theta_lo)
        derivs.append(
            (metrics.norm_entropy(hi, exponent=q + 1.0) - metrics.norm_entropy(lo, exponent=q + 1.0)) / (2.0 * h)
        )
    lowest = np.min(derivs)  # np.min keeps a NaN, which then fails the gate
    detail = f"{n_toys} toys x q in {list(qs)}, min derivative {lowest:.2e} (must be >= -1e-6)"
    if not lowest >= -1e-6:
        return SuiteResult("theorem_entropy", False, f"entropy derivative bound violated: {detail}")
    return SuiteResult("theorem_entropy", True, detail)


def check_dual_norm(n_cases: int = 100, qs=(0.0, 0.5, 2.0, 9.0), seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    """Closed-form (sum r^(q+1))^(1/(q+1)) equals the explicit maximizer value.

    Every case is drawn first, its agent count m then its m regrets; the
    cases of one m are scored together, one `equitable_loss` and one
    `holder_max_value` call per (m, q).  Each case's closed-form root is a
    Python float power, as a one-case call takes it: numpy's array `**`
    may round it otherwise.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        m = int(rng.integers(2, 13))
        cases.append(rng.uniform(0.0, 1.0, size=m))
    worst = 0.0
    for m in sorted({len(r) for r in cases}):
        rs = np.array([r for r in cases if len(r) == m])
        for q in qs:
            closed = np.array([loss ** (1.0 / (q + 1.0)) for loss in objective.equitable_loss(rs, q).tolist()])
            witness = objective.holder_max_value(rs, q)
            # np.max keeps a NaN, which then fails the gate
            worst = float(np.max(np.abs(closed - witness) / np.maximum(closed, 1e-300), initial=worst))
    passed = worst < tol
    return SuiteResult("dual_norm", passed, f"max relative error {worst:.2e} vs tolerance {tol}")


def run_all(seed: int = 0) -> list[SuiteResult]:
    """Every suite at its default sizes, in order; a suite that raises fails with its error.

    The pg suite's draws (`_pg_draws`) are made ahead on `training._draw_helper`'s thread where it
    gives one, the first while the earlier suites run; the `with` joins it however the suites end.
    """
    results = []
    with training._draw_helper() as helper:
        suites = (
            (check_decision_oracles, {}),
            (check_chain_gradient, {}),
            (check_pg_estimator, {"draws": _pg_draws(seed, helper=helper)}),
            (check_theorem_variance, {}),
            (check_theorem_entropy, {}),
            (check_dual_norm, {}),
        )
        for fn, kwargs in suites:
            try:
                results.append(fn(seed=seed, **kwargs))
            except Exception as exc:  # a crashed suite is a failed suite
                results.append(SuiteResult(fn.__name__.removeprefix("check_"), False, f"{type(exc).__name__}: {exc}"))
    return results
