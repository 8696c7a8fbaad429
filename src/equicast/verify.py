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


def _subset_masks(horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every nonempty subset of `horizon` slots as a 0/1 row, and where each size's rows start.

    Rows are ordered by size, and within a size as `itertools.combinations`
    yields them: that order is the subsets' bit patterns, slot 0 the most
    significant bit, from high to low.
    """
    codes = np.arange(2**horizon - 1, 0, -1)
    masks = (codes[:, None] >> np.arange(horizon - 1, -1, -1)) & 1
    sizes = masks.sum(axis=1)
    masks = masks[np.argsort(sizes, kind="stable")].astype(float)
    starts = np.concatenate(([0], np.cumsum(np.bincount(sizes)[1:])))
    return masks, starts


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
    masks, starts = _subset_masks(horizon)
    # slot-major masks: `row_sums` adds a column at a time, and each column
    # is one contiguous run; the products go into one buffer for every case
    masks_f = np.asfortranarray(masks)
    work = np.empty_like(masks_f)
    mismatches = 0
    signals, rates, enum_best = np.empty((n_cases, horizon)), np.empty(n_cases), np.empty((n_cases, horizon))
    for i in range(n_cases):
        e = rng.uniform(0.2, 3.0, size=horizon)
        rate = float(rng.uniform(0.5, 3.0))
        # every subset's cost as ev_cost takes it, rate times numpy's sum of
        # the schedule times the signal (`row_sums` is that sum bit for bit),
        # so each size's least cost is what ev_cost gives its best schedule,
        # and equality must be exact
        enum_costs = rate * agentmod.row_sums(np.multiply(masks_f, e, out=work))
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


def _dc_pipeline_terms(params, agents_list, Xs, Ys, row_ctxs, t_mean, t_scale) -> tuple[list, float]:
    """Per-agent mean regrets and MSE sum of a data-center pipeline, for finite differencing.

    Regrets go through the scalar `agents.regret` path, independent of the
    batched one the trainer uses; `row_ctxs` holds each agent's per-row
    contexts.
    """
    mean_regrets = []
    mse_sum = 0.0
    for agent, X, Y, contexts in zip(agents_list, Xs, Ys, row_ctxs):
        preds = predictor.forward_batch(params, X)
        values = []
        for i, ctx in enumerate(contexts):
            c_hat = t_mean + t_scale * float(preds[i, 0])
            values.append(agentmod.regret(agent, c_hat, float(Y[i, 0]), context=ctx))
        mean_regrets.append(np.mean(values))
        y_norm = (Y - t_mean) / t_scale
        mse_sum += float(np.mean(np.sum((preds - y_norm) ** 2, axis=1)))
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
    Xs, Ys, ctxs = (np.split(a, len(agents_list)) for a in (X, Y, w))

    # the probed regrets and MSE do not depend on (q, beta): each +-h probe
    # of each parameter runs once, on one vector that it edits in place and
    # restores, and every (q, beta) blends its terms
    h = 1e-5
    row_ctxs = [[replace(a.context, workload=float(wi)) for wi in ws] for a, ws in zip(agents_list, ctxs)]
    probe = params.with_values(params.values.copy())
    terms = []
    for j, value in enumerate(params.values):
        probe.values[j] += h
        terms.append(_dc_pipeline_terms(probe, agents_list, Xs, Ys, row_ctxs, pool.mean, pool.scale))
        probe.values[j] -= 2 * h
        terms.append(_dc_pipeline_terms(probe, agents_list, Xs, Ys, row_ctxs, pool.mean, pool.scale))
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


def check_pg_estimator(thetas=(0.0, 0.5, 2.0), n_draws: int = 200_000, std: float = 0.3, seed: int = 0) -> SuiteResult:
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
    """
    rng = np.random.default_rng(seed)
    X = np.zeros((1, 1))
    details = []
    # the draws' losses, baselines and terms are formed in place, in these buffers
    losses, loo, terms = np.empty(n_draws), np.empty(n_draws), np.empty(n_draws)
    for theta in thetas:
        params = predictor.ParamVector(values=np.array([0.0, theta]), layer_sizes=(1, 1))
        _, acts = predictor.forward_batch(params, X, keep=True)
        eps = rng.standard_normal(n_draws)
        cot = objective.pg_grad(eps[:1].reshape(1, 1, 1), np.ones(1), 0.0, std)
        score = predictor.vjp_batch(params, X, cot, acts)
        if not np.allclose(score, [0.0, eps[0] / std], rtol=0, atol=1e-12):
            return SuiteResult("pg_estimator", False, f"theta={theta}: one-draw pg_grad {score} vs [0, {eps[0] / std}]")
        # losses = (theta + std * eps - 1)^2, loo = (sum - losses) / (n - 1)
        np.multiply(eps, std, out=losses)
        losses += theta
        losses -= 1.0
        np.square(losses, out=losses)
        np.subtract(losses.sum(), losses, out=loo)
        loo /= n_draws - 1
        target = 2.0 * (theta - 1.0)
        for label, baseline in (("", 0.0), (", leave-one-out baseline", loo)):
            # terms = (losses - baseline) * eps / std
            np.subtract(losses, baseline, out=terms)
            terms *= eps
            terms /= std
            cot = objective.pg_grad(eps.reshape(-1, 1, 1), losses, baseline, std)
            estimate = float(predictor.vjp_batch(params, X, cot, acts)[1])
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
    (K, M); one toy may be given as (M,) vectors.  The methods take one theta
    per toy (or one for all) and return one value per toy, or (K, M) costs.
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
        return (np.asarray(theta).reshape(-1, 1) - self.targets) ** 2 + self.offsets

    def loss(self, theta, q: float) -> np.ndarray:
        return (self.costs(theta) ** (q + 1.0)).sum(axis=1)

    def loss_grad(self, theta, q: float) -> np.ndarray:
        c = self.costs(theta)
        return ((q + 1.0) * c**q * 2.0 * (np.asarray(theta).reshape(-1, 1) - self.targets)).sum(axis=1)

    def loss_hess(self, theta, q: float) -> np.ndarray:
        c = self.costs(theta)
        dc = 2.0 * (np.asarray(theta).reshape(-1, 1) - self.targets)
        return ((q + 1.0) * (q * np.where(c > 0, c, 1.0) ** (q - 1.0) * dc**2 + c**q * 2.0)).sum(axis=1)


def minimize_toy(toy: QuadraticToy, qs) -> np.ndarray:
    """Global minimizer of each toy's aggregate loss at each exponent in `qs`, (len(qs), K).

    Golden-section brackets the optimum; a few Newton steps on the gradient
    then push it to machine precision (golden alone stalls near sqrt(eps)
    because it compares nearly-equal function values).  Every (exponent,
    toy) row runs in lockstep, each with its own bracket; a row's result is
    taken when its own stopping test fires, so every row equals a one-toy
    scalar run bit for bit.  Each exponent's row block is scored by the
    toy's methods at that one scalar q: numpy's `**` fast paths for the
    exponents 1 and 2 are exact, and a per-row exponent array would bypass
    them.
    """
    def blocks(fn, theta):
        out = np.empty(theta.shape)
        for i, q in enumerate(qs):
            out[i] = fn(theta[i], q)
        return out

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    shape = (len(qs), len(toy.targets))
    a = np.broadcast_to(toy.targets.min(axis=1) - 1.0, shape)
    b = np.broadcast_to(toy.targets.max(axis=1) + 1.0, shape)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = blocks(toy.loss, c), blocks(toy.loss, d)
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
        f_new = blocks(toy.loss, np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    live = np.ones(shape, dtype=bool)
    for _ in range(50):
        g, h = blocks(toy.loss_grad, theta), blocks(toy.loss_hess, theta)
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
    suites = (
        check_decision_oracles,
        check_chain_gradient,
        check_pg_estimator,
        check_theorem_variance,
        check_theorem_entropy,
        check_dual_norm,
    )
    results = []
    for fn in suites:
        try:
            results.append(fn(seed=seed))
        except Exception as exc:  # a crashed suite is a failed suite
            results.append(SuiteResult(fn.__name__.removeprefix("check_"), False, f"{type(exc).__name__}: {exc}"))
    return results
