from equicast import verify


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
