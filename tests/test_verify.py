import itertools
import math

import numpy as np
import pytest

from equicast import agents as agentmod
from equicast import verify
from equicast.agents import ChargingContext, DataCenterContext
from equicast.errors import ConfigError
from equicast.metrics import norm_entropy, variance
from equicast.verify import QuadraticToy, minimize_toy


def test_decision_oracles_pass_small():
    result = verify.check_decision_oracles(n_cases=10, seed=1)
    assert result.passed, result.detail


def test_chain_gradient_suite_passes():
    result = verify.check_chain_gradient(qs=(0.0, 2.0), betas=(0.0, 1.0), seed=1)
    assert result.passed, result.detail


def test_pg_estimator_suite_small():
    result = verify.check_pg_estimator(thetas=(0.5,), n_draws=20_000, seed=1)
    assert result.passed, result.detail


def test_theorem_suites_pass_small():
    assert verify.check_theorem_variance(n_toys=10, seed=2).passed
    assert verify.check_theorem_entropy(n_toys=5, seed=2).passed


def test_dual_norm_suite_passes():
    result = verify.check_dual_norm(n_cases=30, seed=3)
    assert result.passed, result.detail


def test_run_all_reports_every_suite():
    results = verify.run_all(0)
    assert [r.name for r in results] == [
        "decision_oracles", "chain_gradient", "pg_estimator",
        "theorem_variance", "theorem_entropy", "dual_norm",
    ]
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_injected_gradient_bug_detected(monkeypatch):
    from equicast import objective

    real = objective.chain_grad

    monkeypatch.setattr(objective, "chain_grad", lambda *a: real(*a) * 1.05)
    result = verify.check_chain_gradient(qs=(1.0,), betas=(0.0,), seed=0)
    assert not result.passed


class _TiledNumpy:
    """numpy with np.tile in place of np.repeat: agent m's regret weight lands on every M-th row."""

    repeat = staticmethod(np.tile)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_injected_row_owner_shift_detected(monkeypatch, q, beta):
    # rows get another agent's regret weight; at q = 0 every agent's weight
    # is the same, so no row -> agent mapping can show there
    from equicast import objective

    monkeypatch.setattr(objective, "np", _TiledNumpy())
    result = verify.check_chain_gradient(qs=(q,), betas=(beta,), seed=0)
    assert not result.passed


@pytest.mark.parametrize("seed", [0, 1, 2, 9001])
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_injected_regret_owner_shift_detected(monkeypatch, q, beta, seed):
    # each agent's block of rows gets the next agent's mean regret, so its
    # regret weight; at (q=2, beta=0.5) the squared error dominates the
    # gradient, and the whole gradient's scale hid such an error
    from equicast import objective

    real = objective.chain_grad

    def shifted(y_hat, y, means, *rest):
        return real(y_hat, y, np.roll(means, 1), *rest)

    monkeypatch.setattr(objective, "chain_grad", shifted)
    result = verify.check_chain_gradient(qs=(q,), betas=(beta,), seed=seed)
    assert not result.passed


@pytest.mark.parametrize("seed", [0, 1, 2, 9001])
def test_injected_trainer_slope_bug_detected(monkeypatch, seed):
    # the suite checks the step `train` makes: slopes 5% too steep in the
    # trainer's own regret call passed a hand-built copy of the chain step
    from equicast import training

    real = training.dc_regret_batch

    def steeper(*args):
        values, slopes = real(*args)
        return values, slopes * 1.05

    monkeypatch.setattr(training, "dc_regret_batch", steeper)
    result = verify.check_chain_gradient(seed=seed)
    assert not result.passed


def test_injected_trainer_target_transform_shift_detected(monkeypatch):
    # forecasts taken back to raw units 0.01 too high score other regrets
    from equicast import training

    real = training._StackedRows.to_raw
    monkeypatch.setattr(training._StackedRows, "to_raw", lambda self, *a, **k: real(self, *a, **k) + 0.01)
    result = verify.check_chain_gradient(seed=0)
    assert not result.passed


def test_injected_costly_closed_form_detected(monkeypatch):
    # a closed form that costs more than a grid point is refused before the error bound is read
    real = agentmod.dc_optimal
    monkeypatch.setattr(agentmod, "dc_optimal", lambda ctx, c: (real(ctx, c)[0], real(ctx, c)[1] + 0.01))
    result = verify.check_decision_oracles(n_cases=5, seed=0)
    assert not result.passed and result.detail.startswith("grid found cost -0.0")
    assert result.detail.endswith("below closed form")


def test_biased_draws_fail_the_five_se_gate(monkeypatch):
    # draws of mean 0.5: the op still equals the mean of its per-draw estimates, which is biased
    real = np.random.default_rng

    class Shifted:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, size):
            return self.rng.standard_normal(size) + 0.5

    monkeypatch.setattr(verify.np.random, "default_rng", Shifted)
    result = verify.check_pg_estimator(thetas=(0.5,), n_draws=20_000, seed=1)
    assert not result.passed
    assert result.detail.startswith("theta=0.5: |err|=") and "vs 5se=" in result.detail


def test_run_all_fails_a_suite_that_raises(monkeypatch):
    def check_dual_norm(seed):  # a crashed suite is named as run_all names its check_* function
        raise ArithmeticError(f"injected crash at seed {seed}")

    for name in ("check_decision_oracles", "check_chain_gradient", "check_pg_estimator",
                 "check_theorem_variance", "check_theorem_entropy"):
        monkeypatch.setattr(verify, name, lambda seed, name=name: verify.SuiteResult(name, True, "stub"))
    monkeypatch.setattr(verify, "check_dual_norm", check_dual_norm)
    results = verify.run_all(seed=3)
    assert all(r.passed for r in results[:-1])
    assert results[-1] == verify.SuiteResult("dual_norm", False, "ArithmeticError: injected crash at seed 3")


def test_injected_pg_bug_detected(monkeypatch):
    from equicast import objective

    real = objective.pg_grad

    monkeypatch.setattr(objective, "pg_grad", lambda *a: real(*a) * 1.05)
    result = verify.check_pg_estimator(thetas=(0.5,), n_draws=1_000, seed=0)
    assert not result.passed


def test_injected_pg_baseline_sign_flip_detected(monkeypatch):
    from equicast import objective

    real = objective.pg_grad

    def flipped(eps, losses, baseline, std):
        return real(eps, losses, -baseline, std)

    monkeypatch.setattr(objective, "pg_grad", flipped)
    result = verify.check_pg_estimator(thetas=(0.5,), n_draws=1_000, seed=0)
    assert not result.passed
    assert "leave-one-out baseline" in result.detail


def test_injected_enumeration_bug_detected(monkeypatch):
    from equicast import agents as agents_module

    real = agents_module.ev_optimal

    def off_by_one(ctx, energy):
        sched, cost = real(ctx, energy)
        return sched, cost + 1e-6

    monkeypatch.setattr(agents_module, "ev_optimal", off_by_one)
    result = verify.check_decision_oracles(n_cases=2, seed=0)
    assert not result.passed


@pytest.mark.parametrize("op", ["dc_optimal_batch", "ev_optimal_batch"])
def test_injected_batched_decision_bug_detected(monkeypatch, op):
    real = getattr(agentmod, op)
    monkeypatch.setattr(agentmod, op, lambda *a: real(*a) + 1e-6)
    result = verify.check_decision_oracles(n_cases=2, seed=0)
    assert not result.passed
    assert result.detail.startswith(op)


@pytest.mark.parametrize("factor", [1.0 + 1e-9, np.nan])
def test_injected_dual_norm_bug_detected(monkeypatch, factor):
    # a NaN witness must fail the gate, not drop out of the worst case
    from equicast import objective

    real = objective.holder_max_value
    monkeypatch.setattr(objective, "holder_max_value", lambda r, q: real(r, q) * factor)
    result = verify.check_dual_norm(n_cases=5, seed=0)
    assert not result.passed


def _brute_force_decision_oracles(n_cases, seed, grid_step=1e-4):
    """The decision suite as a dense loop: every grid point, and each slot count's masks built apart."""
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
            return verify.SuiteResult("decision_oracles", False, f"grid found cost {gap} below closed form")
        worst_dc = max(worst_dc, abs(gap))
    if worst_dc > grid_step:
        return verify.SuiteResult("decision_oracles", False, f"dc cost error {worst_dc} > {grid_step}")
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
            best_row = masks[k][int(np.argmin(rate * (masks[k] * e).sum(axis=1)))]
            if cost != agentmod.ev_cost(ctx, best_row, e):
                mismatches += 1
    if mismatches:
        return verify.SuiteResult("decision_oracles", False, f"{mismatches} enumeration mismatches")
    return verify.SuiteResult(
        "decision_oracles", True,
        f"dc cost error {worst_dc:.2e} <= {grid_step}; ev exact on {n_cases}x{horizon} cases",
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 9001])
def test_decision_oracles_match_the_brute_force_suite(seed):
    assert verify.check_decision_oracles(n_cases=100, seed=seed) == _brute_force_decision_oracles(100, seed)


def _scalar_optima(toys, q):
    """Each toy's optimum at the one exponent q, by the one-toy loop."""
    return np.array([_scalar_minimize(t, o, q)[0] for t, o in zip(toys.targets, toys.offsets)])


def _per_exponent_theorem_variance(n_toys, seed):
    """The variance suite with each exponent's optima found on their own."""
    toys = verify._random_toys(np.random.default_rng(seed), n_toys)
    var0 = np.array([variance(c) for c in toys.costs(_scalar_optima(toys, 0.0))])
    var1 = np.array([variance(c) for c in toys.costs(_scalar_optima(toys, 1.0))])
    worst = np.max(var1 - var0)
    detail = f"{n_toys} toys, worst var(q=1)-var(q=0) = {worst:.2e} (must be <= 1e-9)"
    if not worst <= 1e-9:
        return verify.SuiteResult("theorem_variance", False, f"equity-by-variance violated: {detail}")
    return verify.SuiteResult("theorem_variance", True, detail)


def _per_exponent_theorem_entropy(n_toys, qs, seed):
    """The entropy suite with each exponent's optima found on their own."""
    toys = verify._random_toys(np.random.default_rng(seed), n_toys, min_offset=0.1)
    h = 1e-3
    derivs = []
    for q in qs:
        hi = toys.costs(_scalar_optima(toys, q + h))
        lo = toys.costs(_scalar_optima(toys, q - h))
        derivs.append((norm_entropy(hi, exponent=q + 1.0) - norm_entropy(lo, exponent=q + 1.0)) / (2.0 * h))
    lowest = np.min(derivs)
    detail = f"{n_toys} toys x q in {list(qs)}, min derivative {lowest:.2e} (must be >= -1e-6)"
    if not lowest >= -1e-6:
        return verify.SuiteResult("theorem_entropy", False, f"entropy derivative bound violated: {detail}")
    return verify.SuiteResult("theorem_entropy", True, detail)


def _per_cell_chain_gradient(qs, betas, seed, tol):
    """The chain suite with a new vector per probe and one solo `train` call per (q, beta) cell."""
    from dataclasses import replace

    from equicast import objective, predictor, training
    from equicast.agents import AgentSpec
    from equicast.data import Part, PoolWindows

    rng = np.random.default_rng(seed)
    params = predictor.init_params([4, 5, 1], seed=seed + 1)
    agents_list = [
        AgentSpec(0, "datacenter", DataCenterContext(workload=1.5, latency_weight=2.0)),
        AgentSpec(1, "datacenter", DataCenterContext(workload=3.0, latency_weight=0.8)),
    ]
    b = 6
    X = rng.uniform(-1, 1, size=(2 * b, 4))
    Y = rng.uniform(0.9, 2.4, size=(2 * b, 1))
    w = rng.uniform(1.0, 4.0, size=2 * b)
    part = Part(X, Y, Y, w, 2)
    pool = training.PoolData(agents_list, PoolWindows(part, part))
    Xs, Ys, ctxs = (np.split(a, 2) for a in (X, Y, w))
    h = 1e-5
    row_ctxs = [[replace(a.context, workload=float(wi)) for wi in ws] for a, ws in zip(agents_list, ctxs)]

    def probe(v):
        return verify._dc_pipeline_terms(params.with_values(v), agents_list, Xs, Ys, row_ctxs, pool.mean, pool.scale)

    terms = []
    for j in range(params.values.size):
        v = params.values.copy()
        v[j] += h
        terms.append(probe(v))
        v[j] -= 2 * h
        terms.append(probe(v))
    mse = np.array([m for _, m in terms])
    mse_fd = (mse[0::2] - mse[1::2]) / (2 * h)
    errors = []
    for q in qs:
        eq = np.array([objective.equitable_loss(r, q) for r, _ in terms])
        eq_fd = (eq[0::2] - eq[1::2]) / (2 * h)
        for beta in betas:
            config = training.TrainConfig(mode="chain", q=q, beta=beta, lr=1.0, epochs=1, batch_size=b, seed=seed)
            grad = params.values - training.train(config, params, agents_list, pool).params.values
            losses = (1.0 - beta) * eq + beta * mse
            fd = (losses[0::2] - losses[1::2]) / (2 * h)
            parts = ((1.0 - beta, eq_fd), (beta, mse_fd))
            scale = max(min(w * float(np.max(np.abs(part))) for w, part in parts if w > 0), 1e-8)
            errors.append(float(np.max(np.abs(grad - fd))) / scale)
    worst = float(np.max(errors))
    return verify.SuiteResult("chain_gradient", worst < tol, f"max relative error {worst:.2e} vs tolerance {tol}")


@pytest.mark.parametrize("seed", [0, 1, 7, 9001])
def test_lockstep_suites_match_the_per_exponent_and_per_cell_suites(seed):
    assert verify.check_theorem_variance(seed=seed) == _per_exponent_theorem_variance(50, seed)
    assert verify.check_theorem_entropy(seed=seed) == _per_exponent_theorem_entropy(20, (0.0, 0.5, 1.0, 2.0), seed)
    assert verify.check_chain_gradient(seed=seed) == _per_cell_chain_gradient(
        (0.0, 1.0, 2.0), (0.0, 0.5, 1.0), seed, 1e-3
    )


def test_a_chain_cell_whose_run_stops_fails_the_suite_with_its_error(monkeypatch):
    # the cells train in one lockstep call, which keeps a stopped run's error
    # as its outcome; the other cells' runs finish and pass
    from equicast import objective

    real = objective.chain_grad

    def breaks_at_q2(y_hat, y, means, slope, b, q, beta):
        if q == 2.0:
            raise RuntimeError(f"chain_grad broke at q={q}")
        return real(y_hat, y, means, slope, b, q, beta)

    monkeypatch.setattr(objective, "chain_grad", breaks_at_q2)
    with pytest.raises(RuntimeError, match="broke at q=2.0"):
        verify.check_chain_gradient(seed=0)
    assert verify.check_chain_gradient(qs=(0.0, 1.0), seed=0).passed


def test_decision_grid_window_holds_the_full_grid_minimum():
    rng = np.random.default_rng(3)
    for w, lam, c in rng.uniform(0.5, 4.0, size=(2000, 3)).tolist():
        ps = np.arange(w + 1e-4, w + 10.0, 1e-4)
        assert verify._dc_grid_min(w, lam, c, 1e-4) == (ps * c + lam * w / (ps - w)).min()


def test_decision_grid_points_are_numpys():
    # the grid search computes only the points it scores, each by np.arange's own rule
    rng = np.random.default_rng(4)
    for w in rng.uniform(0.5, 4.0, size=2000).tolist():
        ps = np.arange(w + 1e-4, w + 10.0, 1e-4)
        n = verify._arange_len(w + 1e-4, w + 10.0, 1e-4)
        assert n == len(ps)
        assert np.array_equal(verify._arange_points(w + 1e-4, 1e-4, np.arange(n)), ps)


def test_subset_masks_follow_the_combinations_order():
    masks, starts = verify._subset_masks(12)
    for k in range(1, 13):
        combos = [[1.0 if i in combo else 0.0 for i in range(12)] for combo in itertools.combinations(range(12), k)]
        assert np.array_equal(masks[starts[k - 1]:starts[k]], combos)
    assert starts[-1] == len(masks) == 4095


def test_injected_theorem_variance_bug_detected(monkeypatch):
    real = verify.minimize_toy
    # swap the q=0 and q=1 optima
    monkeypatch.setattr(verify, "minimize_toy", lambda toy, qs: real(toy, [1.0 - q for q in qs]))
    result = verify.check_theorem_variance(n_toys=10, seed=0)
    assert not result.passed
    assert result.detail.startswith("equity-by-variance violated")


def test_injected_theorem_entropy_bug_detected(monkeypatch):
    real = verify.minimize_toy
    # swap the q+h and q-h optima: p = q +- h becomes 2q - p = q -+ h on the grid of halves
    monkeypatch.setattr(verify, "minimize_toy", lambda toy, ps: real(toy, [round(2 * p) - p for p in ps]))
    result = verify.check_theorem_entropy(n_toys=5, seed=0)
    assert not result.passed
    assert result.detail.startswith("entropy derivative")


def _optima_of(value):
    """A `minimize_toy` stand-in whose every optimum is `value`."""
    return lambda toy, qs: np.full((len(qs), len(toy.targets)), value)


# each suite's oracle, a stand-in that returns NaN, and the suite's sizes for a short run
_NAN_ORACLES = {
    "decision_oracles": ("_dc_grid_min", lambda *a: np.nan, {"n_cases": 5}),
    "chain_gradient": (
        "_dc_pipeline_terms", lambda *a: ([np.nan, np.nan], np.nan), {"qs": (0.0, 2.0), "betas": (0.0, 1.0)}
    ),
    "theorem_variance": ("minimize_toy", _optima_of(np.nan), {"n_toys": 10}),
    "theorem_entropy": ("minimize_toy", _optima_of(np.nan), {"n_toys": 5}),
}


@pytest.mark.parametrize("suite", list(_NAN_ORACLES))
def test_a_nan_oracle_fails_its_suite(monkeypatch, suite):
    # a NaN must fail the gate, not drop out of the worst case
    name, nan, sizes = _NAN_ORACLES[suite]
    monkeypatch.setattr(verify, name, nan)
    result = getattr(verify, f"check_{suite}")(seed=0, **sizes)
    assert result.name == suite and not result.passed
    assert "nan" in result.detail


def test_an_infinite_oracle_fails_the_entropy_suite(monkeypatch):
    # infinite optima give infinite costs, whose shares are NaN: they must not drop out either
    monkeypatch.setattr(verify, "minimize_toy", _optima_of(np.inf))
    result = verify.check_theorem_entropy(n_toys=5, seed=0)
    assert not result.passed and "nan" in result.detail


def test_run_all_calls_the_suites_through_module_globals(monkeypatch):
    # bench/tracing.py wraps each check_* by its module attribute; run_all must reach the wrapper
    names = [
        "check_decision_oracles", "check_chain_gradient", "check_pg_estimator",
        "check_theorem_variance", "check_theorem_entropy", "check_dual_norm",
    ]
    stubs = {name: verify.SuiteResult(name, True, "stub") for name in names}
    for name in names:
        monkeypatch.setattr(verify, name, lambda seed, name=name: stubs[name] if seed == 7 else None)
    assert verify.run_all(seed=7) == [stubs[name] for name in names]


def _scalar_minimize(targets, offsets, q, tol=1e-10):
    """The one-toy golden-section + Newton loop that `minimize_toy` runs per row.

    Returns the minimizer, the number of golden steps and why Newton stopped.
    """
    def costs(th):
        return (th - targets) ** 2 + offsets

    def loss(th):
        return float(np.sum(costs(th) ** (q + 1.0)))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(targets.min()) - 1.0, float(targets.max()) + 1.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = loss(c), loss(d)
    steps = 0
    while b - a > tol:
        steps += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = loss(d)
    theta, stop = 0.5 * (a + b), "cap"
    for _ in range(50):
        cost, dc = costs(theta), 2.0 * (theta - targets)
        g = float(np.sum((q + 1.0) * cost**q * dc))
        h = float(np.sum((q + 1.0) * (q * np.where(cost > 0, cost, 1.0) ** (q - 1.0) * dc**2 + cost**q * 2.0)))
        if h <= 0:
            stop = "hess"
            break
        step = g / h
        theta -= step
        if abs(step) < 1e-14 * max(1.0, abs(theta)):
            stop = "step"
            break
    return theta, steps, stop


# exponents on both sides of the fast paths' 1 and 2, and below -0.5, where Newton can meet negative curvature
_MIXED_QS = (-0.9, 0.0, 0.5 - 1e-3, 0.5 + 1e-3, 1.0, 2.0)


@pytest.mark.parametrize("n_agents", [2, 3])
@pytest.mark.parametrize("q", [0.0, 0.5 - 1e-3, 0.5 + 1e-3, 1.0, 2.0])
def test_minimize_toy_matches_scalar_loop_bitwise(n_agents, q):
    # one call over the mixed exponents, q's block first
    qs = (q,) + tuple(p for p in _MIXED_QS if p != q)
    rng = np.random.default_rng(n_agents)
    # target spreads up to ~60 give brackets of width 2..62, so rows finish golden
    # section after different numbers of steps
    targets = rng.uniform(-1.0, 1.0, size=(16, n_agents)) * rng.uniform(0.05, 30.0, size=(16, 1))
    offsets = rng.uniform(0.0, 1.0, size=(16, n_agents))
    offsets[0] = 0.0
    targets[1], offsets[1] = 0.3, 0.0  # all costs 0 at the optimum
    optima = minimize_toy(QuadraticToy(targets, offsets), qs)
    assert optima.shape == (len(qs), 16)
    for p, row in zip(qs, optima):
        ref = [_scalar_minimize(t, o, p) for t, o in zip(targets, offsets)]
        assert len({steps for _, steps, _ in ref}) >= 3
        assert np.array_equal(row, [theta for theta, _, _ in ref]), p


def test_minimize_toy_matches_scalar_loop_when_newton_meets_negative_curvature():
    # Agent m adds (q+1) c^(q-1) ((4q+2) x^2 + 2 o_m) to the hessian, x = theta - t_m:
    # positive for q > -0.5 (at q <= 2 the sum vanishes only if every cost underflows).
    # The entropy suite's lower probe reaches q = -0.999, and below -0.5 a
    # zero-offset agent makes the loss concave next to its target, so Newton
    # stops on h <= 0 there, while the rows of the other exponents run on.
    targets = np.array([[0.0, 0.7], [0.0, 0.7], [0.2, 0.25]])
    offsets = np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.0]])
    refs = {q: [_scalar_minimize(t, o, q) for t, o in zip(targets, offsets)] for q in _MIXED_QS}
    assert [stop for _, _, stop in refs[-0.9]] == ["hess", "step", "hess"]
    optima = minimize_toy(QuadraticToy(targets, offsets), _MIXED_QS)
    for q, row in zip(_MIXED_QS, optima):
        assert np.array_equal(row, [theta for theta, _, _ in refs[q]]), q


# --- theorem toys


def _variances(toy, q):
    """Each toy's variance of per-agent costs at its q optimum, as `check_theorem_variance` takes it."""
    return np.array([variance(c) for c in toy.costs(minimize_toy(toy, [q])[0])])


def _entropy_derivatives(toy, qs, h=1e-3):
    """(K, len(qs)) central differences of the entropy at the optima, as `check_theorem_entropy` takes them."""
    optima = minimize_toy(toy, [p for q in qs for p in (q + h, q - h)])
    return np.array([
        (norm_entropy(toy.costs(hi), q + 1.0) - norm_entropy(toy.costs(lo), q + 1.0)) / (2.0 * h)
        for q, hi, lo in zip(qs, optima[0::2], optima[1::2])
    ]).T


def test_quadratic_toy_refuses_malformed_toys():
    for targets, offsets in (([0.0, 1.0], [0.1, 0.2, 0.3]), ([0.0], [0.1]), ([[[0.0, 1.0]]], [[[0.1, 0.2]]])):
        with pytest.raises(ConfigError, match="matching target/offset vectors of length >= 2"):
            QuadraticToy(targets=targets, offsets=offsets)
    with pytest.raises(ConfigError, match="offsets must be nonnegative"):
        QuadraticToy(targets=[0.0, 1.0], offsets=[0.1, -0.2])


def test_minimize_toy_high_precision():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.3, 0.3])
    ((theta,),) = minimize_toy(toy, [0.0])
    assert abs(theta - 0.5) < 1e-12  # symmetric: exact midpoint
    assert abs(toy.loss_grad(theta, 0.0)[0]) < 1e-10


def test_theorem_variance_symmetric_equality():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.0, 0.0])
    (var0,), (var1,) = _variances(toy, 0.0), _variances(toy, 1.0)
    assert var1 <= var0 + 1e-9
    assert var0 == pytest.approx(var1, abs=1e-9)


def test_theorem_variance_asymmetric_strict():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.0, 0.5])
    (var0,), (var1,) = _variances(toy, 0.0), _variances(toy, 1.0)
    assert var1 < var0


def test_theorem_variance_random_sweep():
    rng = np.random.default_rng(14)
    targets, offsets = [], []
    for _ in range(50):
        t = rng.uniform(-1, 1, size=2)
        while abs(t[0] - t[1]) < 0.1:
            t = rng.uniform(-1, 1, size=2)
        targets.append(t)
        offsets.append(rng.uniform(0, 1, size=2))
    toy = QuadraticToy(targets=targets, offsets=offsets)
    var0, var1 = _variances(toy, 0.0), _variances(toy, 1.0)
    assert var0.shape == var1.shape == (50,)
    assert np.all(var1 <= var0 + 1e-9)


def test_theorem_entropy_symmetric_flat():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.4, 0.4])
    derivs = _entropy_derivatives(toy, [0.0, 1.0])
    assert derivs.shape == (1, 2)
    assert np.all(np.abs(derivs) < 1e-6)


def test_theorem_entropy_asymmetric_nonnegative():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.2, 0.7])
    derivs = _entropy_derivatives(toy, [0.0, 0.5, 1.0, 2.0])
    assert np.all(derivs >= -1e-6)


def test_theorem_entropy_secant_form():
    toy = QuadraticToy(targets=[-0.3, 0.8], offsets=[0.15, 0.6])
    for q in (0.0, 1.0):
        theta_q, theta_up = minimize_toy(toy, [q, q + 0.05])
        h_q = norm_entropy(toy.costs(theta_q)[0], exponent=q + 1.0)
        h_up = norm_entropy(toy.costs(theta_up)[0], exponent=q + 1.0)
        assert h_up >= h_q - 1e-6
