"""Release-gate verification suites.

Each suite pits an implementation against an independent oracle (grid
search, exhaustive enumeration, finite differences, Monte Carlo, or a
closed-form identity) and reports the measured worst case next to its
tolerance.  `run_all` is what the CLI's `verify` subcommand executes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import agents as agentmod
from . import objective, predictor, training
from .agents import AgentSpec, ChargingContext, DataCenterContext
from .training import QuadraticToy


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


def _dc_pipeline_loss(params, agents_list, Xs, Ys, ctxs, t_mean, t_scale, q, beta) -> float:
    """Blended batch loss of a data-center pipeline, for finite differencing."""
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
    return (1.0 - beta) * objective.equitable_loss(mean_regrets, q) + beta * mse_sum


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

    worst = 0.0
    for q in qs:
        for beta in betas:
            grad = objective.chain_grad(params, X, preds, (Y - t_mean) / t_scale, values, slope, sizes, q, beta)
            h = 1e-5
            fd = np.zeros_like(grad)
            for j in range(params.values.size):
                v = params.values.copy()
                v[j] += h
                up = _dc_pipeline_loss(params.with_values(v), agents_list, Xs, Ys, ctxs, t_mean, t_scale, q, beta)
                v[j] -= 2 * h
                dn = _dc_pipeline_loss(params.with_values(v), agents_list, Xs, Ys, ctxs, t_mean, t_scale, q, beta)
                fd[j] = (up - dn) / (2 * h)
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


def _random_toy(rng, n_agents: int = 2, min_offset: float = 0.0) -> QuadraticToy:
    targets = rng.uniform(-1.0, 1.0, size=n_agents)
    while abs(targets[0] - targets[1]) < 0.1:
        targets = rng.uniform(-1.0, 1.0, size=n_agents)
    offsets = rng.uniform(min_offset, 1.0, size=n_agents)
    return QuadraticToy(targets=targets, offsets=offsets)


def check_theorem_variance(n_toys: int = 50, seed: int = 0) -> SuiteResult:
    """Variance at the q=1 optimum never exceeds the q=0 one on random convex toys."""
    rng = np.random.default_rng(seed)
    worst_margin = -np.inf
    for _ in range(n_toys):
        toy = _random_toy(rng)
        try:
            var0, var1 = training.theorem_check_variance(toy)
        except AssertionError as exc:
            return SuiteResult("theorem_variance", False, str(exc))
        worst_margin = max(worst_margin, var1 - var0)
    return SuiteResult(
        "theorem_variance", True,
        f"{n_toys} toys, worst var(q=1)-var(q=0) = {worst_margin:.2e} (must be <= 1e-9)",
    )


def check_theorem_entropy(n_toys: int = 20, qs=(0.0, 0.5, 1.0, 2.0), seed: int = 0) -> SuiteResult:
    """Entropy derivative of the reweighted outcome distribution stays >= -1e-6."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_toys):
        toy = _random_toy(rng, min_offset=0.1)
        try:
            derivs = training.theorem_check_entropy(toy, qs)
        except AssertionError as exc:
            return SuiteResult("theorem_entropy", False, str(exc))
        worst = min(worst, min(derivs))
    return SuiteResult(
        "theorem_entropy", True,
        f"{n_toys} toys x q in {list(qs)}, min derivative {worst:.2e} (must be >= -1e-6)",
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
