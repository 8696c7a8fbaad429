"""Release-gate verification suites.

Each suite pits an implementation against an independent oracle (grid
search, exhaustive enumeration, finite differences, Monte Carlo, or a
closed-form identity) and reports the measured worst case next to its
tolerance.  `run_all` is what the CLI's `verify` subcommand executes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import agents as agentmod
from . import metrics, objective, predictor
from .agents import AgentSpec, ChargingContext, DataCenterContext
from .errors import ConfigError


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def check_decision_oracles(n_cases: int = 100, seed: int = 0, grid_step: float = 1e-4) -> SuiteResult:
    """Closed-form optima vs grid search (data center) and enumeration (charging)."""
    rng = np.random.default_rng(seed)
    worst_dc = 0.0
    for _ in range(n_cases):
        w = float(rng.uniform(0.5, 4.0))
        lam = float(rng.uniform(0.5, 4.0))
        c = float(rng.uniform(0.5, 4.0))
        ctx = DataCenterContext(workload=w, latency_weight=lam)
        ps = np.arange(w + grid_step, w + 10.0, grid_step)
        costs = ps * c + lam * w / (ps - w)
        _, cost_star = agentmod.dc_optimal(ctx, c)
        gap = float(costs.min() - cost_star)
        if gap < -grid_step:
            return SuiteResult("decision_oracles", False, f"grid found cost {gap} below closed form")
        worst_dc = max(worst_dc, abs(gap))
    if worst_dc > grid_step:
        return SuiteResult("decision_oracles", False, f"dc cost error {worst_dc} > {grid_step}")

    horizon = 12
    masks = {
        k: np.array([[1 if i in combo else 0 for i in range(horizon)]
                     for combo in itertools.combinations(range(horizon), k)], dtype=float)
        for k in range(1, horizon + 1)
    }
    mismatches = 0
    for _ in range(n_cases):
        e = rng.uniform(0.2, 3.0, size=horizon)
        rate = float(rng.uniform(0.5, 3.0))
        for k in range(1, horizon + 1):
            ctx = ChargingContext(initial=0.0, demand=(k - 0.5) * rate, rate=rate, horizon=horizon)
            _, cost = agentmod.ev_optimal(ctx, e)
            enum_costs = rate * (masks[k] * e).sum(axis=1)
            best_row = masks[k][int(np.argmin(enum_costs))]
            # re-evaluate the enumerated argmin through ev_cost so both sides
            # share one float recipe; equality must then be exact
            if cost != agentmod.ev_cost(ctx, best_row, e):
                mismatches += 1
    if mismatches:
        return SuiteResult("decision_oracles", False, f"{mismatches} enumeration mismatches")
    return SuiteResult(
        "decision_oracles", True,
        f"dc cost error {worst_dc:.2e} <= {grid_step}; ev exact on {n_cases}x{horizon} cases",
    )


def _dc_pipeline_terms(params, agents_list, Xs, Ys, ctxs, t_mean, t_scale) -> tuple[list, float]:
    """Per-agent mean regrets and MSE sum of a data-center pipeline, for finite differencing.

    Regrets go through the scalar `agents.regret` path, independent of the
    batched one the trainer uses.
    """
    mean_regrets = []
    mse_sum = 0.0
    for agent, X, Y, ws in zip(agents_list, Xs, Ys, ctxs):
        preds = predictor.forward_batch(params, X)
        values = []
        for i in range(X.shape[0]):
            ctx = replace(agent.context, workload=float(ws[i]))
            c_hat = t_mean + t_scale * float(preds[i, 0])
            values.append(agentmod.regret(agent, c_hat, float(Y[i, 0]), context=ctx).value)
        mean_regrets.append(np.mean(values))
        y_norm = (Y - t_mean) / t_scale
        mse_sum += float(np.mean(np.sum((preds - y_norm) ** 2, axis=1)))
    return mean_regrets, mse_sum


def check_chain_gradient(qs=(0.0, 1.0, 2.0), betas=(0.0, 0.5, 1.0), seed: int = 0, tol: float = 1e-3) -> SuiteResult:
    """chain_grad vs central finite differences on a two-layer net + data-center costs."""
    rng = np.random.default_rng(seed)
    n_in, n_hidden = 4, 5
    params = predictor.init_params([n_in, n_hidden, 1], seed=seed + 1)
    agents_list = [
        AgentSpec(0, "datacenter", DataCenterContext(workload=1.5, latency_weight=2.0)),
        AgentSpec(1, "datacenter", DataCenterContext(workload=3.0, latency_weight=0.8)),
    ]
    n_samples = 6
    t_mean, t_scale = 1.6, 0.5
    Xs = [rng.uniform(-1, 1, size=(n_samples, n_in)) for _ in agents_list]
    Ys = [rng.uniform(0.9, 2.4, size=(n_samples, 1)) for _ in agents_list]
    ctxs = [rng.uniform(1.0, 4.0, size=n_samples) for _ in agents_list]

    # the trainer's inputs to chain_grad, built the way it builds them
    X, Y = np.concatenate(Xs), np.concatenate(Ys)
    sizes = [n_samples] * len(agents_list)
    lams = np.repeat([a.context.latency_weight for a in agents_list], n_samples)
    preds = predictor.forward_batch(params, X)
    values, dvalues = agentmod.dc_regret_batch(np.concatenate(ctxs), lams, t_mean + t_scale * preds[:, 0], Y[:, 0])
    slope = np.zeros_like(preds)
    slope[:, 0] = dvalues * t_scale

    # the probed regrets and MSE do not depend on (q, beta): each +-h probe
    # of each parameter runs once, and every (q, beta) blends its terms
    h = 1e-5
    terms = []
    for j in range(params.values.size):
        v = params.values.copy()
        v[j] += h
        terms.append(_dc_pipeline_terms(params.with_values(v), agents_list, Xs, Ys, ctxs, t_mean, t_scale))
        v[j] -= 2 * h
        terms.append(_dc_pipeline_terms(params.with_values(v), agents_list, Xs, Ys, ctxs, t_mean, t_scale))

    worst = 0.0
    for q in qs:
        for beta in betas:
            grad = objective.chain_grad(params, X, preds, (Y - t_mean) / t_scale, values, slope, sizes, q, beta)
            losses = np.array([(1.0 - beta) * objective.equitable_loss(r, q) + beta * mse for r, mse in terms])
            fd = (losses[0::2] - losses[1::2]) / (2 * h)
            scale = max(float(np.max(np.abs(fd))), 1e-8)
            rel = float(np.max(np.abs(grad - fd))) / scale
            worst = max(worst, rel)
    passed = worst < tol
    return SuiteResult("chain_gradient", passed, f"max relative error {worst:.2e} vs tolerance {tol}")


def check_pg_estimator(thetas=(0.0, 0.5, 2.0), n_draws: int = 200_000, std: float = 0.3, seed: int = 0) -> SuiteResult:
    """The trainer's score-function op vs the analytic gradient of E[(yhat-1)^2].

    A one-parameter model (bias-only, zero input) makes the prediction equal
    the parameter, so d/dtheta E[C] = 2(theta-1) exactly.  The per-draw
    score is spot-checked against score_grad, then `objective.pg_grad` takes
    all draws in one call with no baseline: it must equal the mean of the
    per-draw estimates loss * eps / std, and that mean must lie within five
    standard errors of the analytic gradient.
    """
    layout = ((0, 1, 1, 1),)
    rng = np.random.default_rng(seed)
    x = np.zeros(1)
    details = []
    for theta in thetas:
        params = predictor.ParamVector(values=np.array([0.0, theta]), layout=layout)
        eps = rng.standard_normal(n_draws)
        draws = theta + std * eps
        for i in range(50):  # exact agreement between the closed-form score and the op
            ps = predictor.PolicySample(sample=np.array([draws[i]]), mean=np.array([theta]), std=std)
            op_score = predictor.score_grad(params, x, ps)
            if not np.allclose(op_score, [0.0, (draws[i] - theta) / std**2], rtol=0, atol=1e-12):
                return SuiteResult("pg_estimator", False, f"score_grad mismatch at draw {i}")
        losses = (draws - 1.0) ** 2
        terms = losses * eps / std
        estimate = float(objective.pg_grad(params, x[None], eps.reshape(-1, 1, 1), losses, 0.0, std)[1])
        if not np.isclose(estimate, terms.mean(), rtol=1e-12, atol=0.0):
            return SuiteResult(
                "pg_estimator", False, f"theta={theta}: pg_grad {estimate} vs mean of draws {terms.mean()}"
            )
        target = 2.0 * (theta - 1.0)
        se = float(terms.std() / np.sqrt(n_draws))
        err = abs(estimate - target)
        details.append(f"theta={theta}: |err|={err:.4f} vs 5se={5 * se:.4f}")
        if err > 5 * se:
            return SuiteResult("pg_estimator", False, "; ".join(details))
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
        return (np.reshape(theta, (-1, 1)) - self.targets) ** 2 + self.offsets

    def loss(self, theta, q: float) -> np.ndarray:
        return np.sum(self.costs(theta) ** (q + 1.0), axis=1)

    def loss_grad(self, theta, q: float) -> np.ndarray:
        c = self.costs(theta)
        return np.sum((q + 1.0) * c**q * 2.0 * (np.reshape(theta, (-1, 1)) - self.targets), axis=1)

    def loss_hess(self, theta, q: float) -> np.ndarray:
        c = self.costs(theta)
        dc = 2.0 * (np.reshape(theta, (-1, 1)) - self.targets)
        return np.sum((q + 1.0) * (q * np.where(c > 0, c, 1.0) ** (q - 1.0) * dc**2 + c**q * 2.0), axis=1)


def minimize_toy(toy: QuadraticToy, q: float) -> np.ndarray:
    """Global minimizer of each toy's aggregate loss at one exponent q, (K,).

    Golden-section brackets the optimum; a few Newton steps on the gradient
    then push it to machine precision (golden alone stalls near sqrt(eps)
    because it compares nearly-equal function values).  All toys run in
    lockstep, each with its own bracket; a row's result is taken when its
    own stopping test fires, so every row equals a one-toy scalar run bit
    for bit.  q stays one scalar: numpy's `**` fast paths for the exponents 1
    and 2 are exact, and a per-row exponent array would bypass them.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = toy.targets.min(axis=1) - 1.0
    b = toy.targets.max(axis=1) + 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = toy.loss(c, q), toy.loss(d, q)
    theta = np.full(a.shape, np.nan)
    pending = np.ones(a.shape, dtype=bool)
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
        f_new = toy.loss(np.where(left, c, d), q)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    live = np.ones(theta.shape, dtype=bool)
    for _ in range(50):
        g, h = toy.loss_grad(theta, q), toy.loss_hess(theta, q)
        live &= ~(h <= 0)  # negated tests: a NaN row runs on, as in a one-toy loop
        step = np.divide(g, h, out=np.zeros_like(g), where=live)
        theta = theta - step
        live &= ~(np.abs(step) < 1e-14 * np.fmax(1.0, np.abs(theta)))
        if not live.any():
            break
    return theta


def theorem_check_variance(toy: QuadraticToy) -> tuple[np.ndarray, np.ndarray]:
    """Variance of per-agent costs at each toy's q=0 and q=1 optima; q=1 must not be worse.

    Raises on the first toy where it is.
    """
    var0 = [metrics.variance(c) for c in toy.costs(minimize_toy(toy, 0.0))]
    var1 = [metrics.variance(c) for c in toy.costs(minimize_toy(toy, 1.0))]
    for v0, v1 in zip(var0, var1):
        if v1 > v0 + 1e-9:
            raise AssertionError(f"equity-by-variance violated: var(q=1)={v1} > var(q=0)={v0}")
    return np.array(var0), np.array(var1)


def theorem_check_entropy(toy: QuadraticToy, q_grid, h: float = 1e-3) -> np.ndarray:
    """Central-difference d/dp of the normalized entropy of costs^(q+1) at theta*_p, p=q.

    Returns (K, len(q_grid)).  Each derivative must be >= -1e-6 (entropy of
    the outcome distribution does not drop when the exponent is nudged up);
    the first failing one, toy by toy and q by q, raises.
    """
    if np.any(toy.offsets <= 0):
        raise ConfigError("entropy check needs strictly positive offsets (log of costs)")
    derivs = []
    for q in q_grid:
        if q - h < -0.999:
            raise ConfigError(f"q={q} too small for central step {h}")
        hi = toy.costs(minimize_toy(toy, q + h))
        lo = toy.costs(minimize_toy(toy, q - h))
        derivs.append([
            (metrics.norm_entropy(c_hi, exponent=q + 1.0) - metrics.norm_entropy(c_lo, exponent=q + 1.0)) / (2.0 * h)
            for c_hi, c_lo in zip(hi, lo)
        ])
    derivs = list(zip(*derivs))
    for row in derivs:
        for q, d in zip(q_grid, row):
            if d < -1e-6:
                raise AssertionError(f"entropy derivative {d} < -1e-6 at q={q}")
    return np.array(derivs)


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
    try:
        var0, var1 = theorem_check_variance(toys)
    except AssertionError as exc:
        return SuiteResult("theorem_variance", False, str(exc))
    return SuiteResult(
        "theorem_variance", True,
        f"{n_toys} toys, worst var(q=1)-var(q=0) = {np.max(var1 - var0):.2e} (must be <= 1e-9)",
    )


def check_theorem_entropy(n_toys: int = 20, qs=(0.0, 0.5, 1.0, 2.0), seed: int = 0) -> SuiteResult:
    """Entropy derivative of the reweighted outcome distribution stays >= -1e-6."""
    toys = _random_toys(np.random.default_rng(seed), n_toys, min_offset=0.1)
    try:
        derivs = theorem_check_entropy(toys, qs)
    except AssertionError as exc:
        return SuiteResult("theorem_entropy", False, str(exc))
    return SuiteResult(
        "theorem_entropy", True,
        f"{n_toys} toys x q in {list(qs)}, min derivative {np.min(derivs):.2e} (must be >= -1e-6)",
    )


def check_dual_norm(n_cases: int = 100, qs=(0.0, 0.5, 2.0, 9.0), seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    """Closed-form (sum r^(q+1))^(1/(q+1)) equals the explicit maximizer value."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        m = int(rng.integers(2, 13))
        r = rng.uniform(0.0, 1.0, size=m)
        for q in qs:
            closed = objective.equitable_loss(r, q) ** (1.0 / (q + 1.0))
            witness = objective.holder_max_value(r, q)
            rel = abs(closed - witness) / max(closed, 1e-300)
            worst = max(worst, rel)
            objective.dual_norm_value(r, q)  # also exercises the internal assertion
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
