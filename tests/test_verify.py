import math

import numpy as np
import pytest

from equicast import verify
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
    # tiny smoke of the aggregated report structure via monkeypatch-free call
    # on reduced sizes: patch the check functions' defaults through run_all's
    # seed only; full sizes run in the acceptance suite
    names = {
        "decision_oracles", "chain_gradient", "pg_estimator",
        "theorem_variance", "theorem_entropy", "dual_norm",
    }
    results = {r.name for r in map(lambda f: f(seed=0), (
        lambda seed: verify.check_decision_oracles(n_cases=3, seed=seed),
        lambda seed: verify.check_chain_gradient(qs=(0.0,), betas=(0.5,), seed=seed),
        lambda seed: verify.check_pg_estimator(thetas=(0.0,), n_draws=5_000, seed=seed),
        lambda seed: verify.check_theorem_variance(n_toys=3, seed=seed),
        lambda seed: verify.check_theorem_entropy(n_toys=2, seed=seed),
        lambda seed: verify.check_dual_norm(n_cases=5, seed=seed),
    ))}
    assert results == names


def test_injected_gradient_bug_detected(monkeypatch):
    from equicast import objective

    real = objective.chain_grad

    monkeypatch.setattr(objective, "chain_grad", lambda *a: real(*a) * 1.05)
    result = verify.check_chain_gradient(qs=(1.0,), betas=(0.0,), seed=0)
    assert not result.passed


def test_injected_pg_bug_detected(monkeypatch):
    from equicast import objective

    real = objective.pg_grad

    monkeypatch.setattr(objective, "pg_grad", lambda *a: real(*a) * 1.05)
    result = verify.check_pg_estimator(thetas=(0.5,), n_draws=1_000, seed=0)
    assert not result.passed


def test_injected_enumeration_bug_detected(monkeypatch):
    from equicast import agents as agents_module

    real = agents_module.ev_optimal

    def off_by_one(ctx, energy):
        sched, cost = real(ctx, energy)
        return sched, cost + 1e-6

    monkeypatch.setattr(agents_module, "ev_optimal", off_by_one)
    result = verify.check_decision_oracles(n_cases=2, seed=0)
    assert not result.passed


def test_injected_theorem_variance_bug_detected(monkeypatch):
    real = verify.minimize_toy
    monkeypatch.setattr(verify, "minimize_toy", lambda toy, q: real(toy, 1.0 - q))  # swap the q=0 and q=1 optima
    result = verify.check_theorem_variance(n_toys=10, seed=0)
    assert not result.passed
    assert result.detail.startswith("equity-by-variance violated")


def test_injected_theorem_entropy_bug_detected(monkeypatch):
    real = verify.minimize_toy
    # swap the q+h and q-h optima: p = q +- h becomes 2q - p = q -+ h on the grid of halves
    monkeypatch.setattr(verify, "minimize_toy", lambda toy, p: real(toy, round(2 * p) - p))
    result = verify.check_theorem_entropy(n_toys=5, seed=0)
    assert not result.passed
    assert result.detail.startswith("entropy derivative")


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


@pytest.mark.parametrize("n_agents", [2, 3])
@pytest.mark.parametrize("q", [0.0, 0.5 - 1e-3, 0.5 + 1e-3, 1.0, 2.0])
def test_minimize_toy_matches_scalar_loop_bitwise(n_agents, q):
    rng = np.random.default_rng(n_agents)
    # target spreads up to ~60 give brackets of width 2..62, so rows finish golden
    # section after different numbers of steps
    targets = rng.uniform(-1.0, 1.0, size=(16, n_agents)) * rng.uniform(0.05, 30.0, size=(16, 1))
    offsets = rng.uniform(0.0, 1.0, size=(16, n_agents))
    offsets[0] = 0.0
    targets[1], offsets[1] = 0.3, 0.0  # all costs 0 at the optimum
    ref = [_scalar_minimize(t, o, q) for t, o in zip(targets, offsets)]
    assert len({steps for _, steps, _ in ref}) >= 3
    assert np.array_equal(minimize_toy(QuadraticToy(targets, offsets), q), [theta for theta, _, _ in ref])


def test_minimize_toy_matches_scalar_loop_when_newton_meets_negative_curvature():
    # Agent m adds (q+1) c^(q-1) ((4q+2) x^2 + 2 o_m) to the hessian, x = theta - t_m:
    # positive for q > -0.5 (at q <= 2 the sum vanishes only if every cost underflows).
    # The entropy suite's lower probe reaches q = -0.999, and below -0.5 a
    # zero-offset agent makes the loss concave next to its target, so Newton
    # stops on h <= 0 there.
    targets = np.array([[0.0, 0.7], [0.0, 0.7], [0.2, 0.25]])
    offsets = np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.0]])
    ref = [_scalar_minimize(t, o, -0.9) for t, o in zip(targets, offsets)]
    assert [stop for _, _, stop in ref] == ["hess", "step", "hess"]
    assert np.array_equal(minimize_toy(QuadraticToy(targets, offsets), -0.9), [theta for theta, _, _ in ref])
