"""Acceptance criteria for the whole package.

Each test prints one PASS line (visible under `pytest -s`) after asserting
its criterion at the stated tolerance.  The end-to-end trend criteria train
real models; the whole module takes several minutes single-threaded and is
deterministic for the seeds below.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from equicast import metrics, predictor, verify
from equicast.harness import ExperimentConfig, build_pool
from equicast.training import TrainConfig, evaluate, train

SEEDS = (0, 1, 2)


def _passline(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1-6: oracle, gradient, estimator, theorem, and identity suites


def test_criterion_1_decision_oracle_exactness():
    t0 = time.time()
    result = verify.check_decision_oracles(n_cases=100, seed=0, grid_step=1e-4)
    elapsed = time.time() - t0
    assert result.passed, result.detail
    assert elapsed < 30.0
    _passline(1, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_2_chain_gradient_vs_finite_differences():
    t0 = time.time()
    result = verify.check_chain_gradient(qs=(0.0, 1.0, 2.0), betas=(0.0, 0.5, 1.0), seed=0, tol=1e-3)
    elapsed = time.time() - t0
    assert result.passed, result.detail
    assert elapsed < 60.0
    _passline(2, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_3_pg_estimator_unbiased():
    t0 = time.time()
    result = verify.check_pg_estimator(thetas=(0.0, 0.5, 2.0), n_draws=200_000, std=0.3, seed=0)
    elapsed = time.time() - t0
    assert result.passed, result.detail
    assert elapsed < 60.0
    _passline(3, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_4_variance_equity_at_optimum():
    t0 = time.time()
    result = verify.check_theorem_variance(n_toys=50, seed=0)
    elapsed = time.time() - t0
    assert result.passed, result.detail
    assert elapsed < 10.0
    _passline(4, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_5_entropy_derivative_nonnegative():
    t0 = time.time()
    result = verify.check_theorem_entropy(n_toys=20, qs=(0.0, 0.5, 1.0, 2.0), seed=0)
    elapsed = time.time() - t0
    assert result.passed, result.detail
    assert elapsed < 10.0
    _passline(5, f"{result.detail} ({elapsed:.1f}s)")


def test_criterion_6_dual_norm_identity():
    t0 = time.time()
    result = verify.check_dual_norm(n_cases=100, qs=(0.0, 0.5, 2.0, 9.0), seed=0, tol=1e-10)
    elapsed = time.time() - t0
    assert result.passed, result.detail
    assert elapsed < 5.0
    _passline(6, f"{result.detail} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7-9: end-to-end trend reproduction


def _seed_averaged(config, trainers, seeds=SEEDS, pools=None):
    """Each trainer's test metrics averaged over the seeds, in trainer order.

    The trainers may differ only in q and beta: at each seed, one `train`
    call trains them all, each run bitwise its solo run.
    """
    rows = [[] for _ in trainers]
    for s in seeds:
        pool = pools[s] if pools else build_pool(config, s)
        params = predictor.init_params(pool.arch, s)
        runs = train([replace(trainer, seed=s) for trainer in trainers], params, pool.agents, pool.splits)
        for out, result in zip(rows, runs.outcomes):
            if isinstance(result, Exception):
                raise result
            out.append(evaluate(result.params, pool.agents, pool.splits))
    return [
        {
            "variance": float(np.mean([r.variance for r in summaries])),
            "gap": float(np.mean([r.c95_minus_c5 for r in summaries])),
            "mean": float(np.mean([r.mean for r in summaries])),
            "mse": float(np.mean([r.mse for r in summaries])),
        }
        for summaries in rows
    ]


@pytest.fixture(scope="module")
def datacenter_setup():
    config = ExperimentConfig(
        application="datacenter", n_agents=10, heterogeneity="different",
        lambda_scheme="grid", length=600, lookback=12, hidden=16,
    )
    pools = {s: build_pool(config, s) for s in SEEDS}
    return config, pools


@pytest.fixture(scope="module")
def charging_setup():
    config = ExperimentConfig(
        application="charging", n_agents=20, heterogeneity="different",
        horizon=12, length=480, lookback=12, hidden=16,
    )
    pools = {s: build_pool(config, s) for s in SEEDS}
    return config, pools


def test_criterion_7_datacenter_trend(datacenter_setup):
    t0 = time.time()
    config, pools = datacenter_setup
    pg = TrainConfig(
        mode="pg", lr=0.01, lr_step=500, lr_decay=0.5, epochs=160, batch_size=32,
        optimizer="adam", pg_baseline=True, grad_clip=5.0, pg_samples=8,
    )
    (plain,) = _seed_averaged(config, [replace(pg, mode="plain")], pools=pools)
    qp1s = (1.0, 2.0, 5.0)
    by_q = dict(zip(qp1s, _seed_averaged(config, [replace(pg, q=qp1 - 1.0) for qp1 in qp1s], pools=pools)))
    elapsed = time.time() - t0

    assert by_q[5.0]["variance"] < plain["variance"]
    assert by_q[5.0]["gap"] < plain["gap"]
    assert by_q[1.0]["variance"] >= by_q[2.0]["variance"] >= by_q[5.0]["variance"]
    assert by_q[1.0]["gap"] >= by_q[2.0]["gap"] >= by_q[5.0]["gap"]
    assert plain["mse"] <= 1.05 * min(row["mse"] for row in by_q.values())
    assert elapsed < 300.0
    _passline(
        7,
        "variance plain={:.4f} -> q+1 1/2/5 = {:.4f}/{:.4f}/{:.4f}; gap plain={:.3f} -> {:.3f}/{:.3f}/{:.3f}; "
        "mse plain={:.3f} vs best equitable {:.3f} ({:.0f}s)".format(
            plain["variance"], by_q[1.0]["variance"], by_q[2.0]["variance"], by_q[5.0]["variance"],
            plain["gap"], by_q[1.0]["gap"], by_q[2.0]["gap"], by_q[5.0]["gap"],
            plain["mse"], min(row["mse"] for row in by_q.values()), elapsed,
        ),
    )


CHARGING_PG = TrainConfig(
    mode="pg", lr=0.01, lr_step=1000, lr_decay=0.5, epochs=180, batch_size=16,
    optimizer="adam", pg_baseline=True, grad_clip=5.0, pg_samples=8, std=0.3,
)


def test_criterion_8_charging_trend(charging_setup):
    t0 = time.time()
    config, pools = charging_setup
    (plain,) = _seed_averaged(config, [replace(CHARGING_PG, mode="plain")], pools=pools)
    low, high = _seed_averaged(config, [replace(CHARGING_PG, q=0.0), replace(CHARGING_PG, q=4.0)], pools=pools)
    elapsed = time.time() - t0

    assert high["variance"] < plain["variance"]
    assert high["gap"] < plain["gap"]
    assert elapsed < 300.0
    _passline(
        8,
        "variance plain={:.3f}, q+1=1 {:.3f}, q+1=5 {:.3f}; gap plain={:.3f}, q+1=5 {:.3f} ({:.0f}s)".format(
            plain["variance"], low["variance"], high["variance"], plain["gap"], high["gap"], elapsed
        ),
    )


def test_criterion_9_beta_tradeoff(charging_setup):
    t0 = time.time()
    config, pools = charging_setup
    betas = (0.0, 0.5, 1.0)
    rows = dict(zip(betas, _seed_averaged(config, [replace(CHARGING_PG, q=1.0, beta=beta) for beta in betas], pools=pools)))
    elapsed = time.time() - t0

    assert rows[0.0]["mse"] >= rows[0.5]["mse"] >= rows[1.0]["mse"]
    assert rows[0.0]["variance"] <= rows[0.5]["variance"] <= rows[1.0]["variance"]
    assert elapsed < 300.0
    _passline(
        9,
        "beta 0/0.5/1: mse {:.1f}/{:.1f}/{:.1f} nonincreasing, variance {:.3f}/{:.3f}/{:.3f} nondecreasing ({:.0f}s)".format(
            rows[0.0]["mse"], rows[0.5]["mse"], rows[1.0]["mse"],
            rows[0.0]["variance"], rows[0.5]["variance"], rows[1.0]["variance"], elapsed
        ),
    )


# ---------------------------------------------------------------------------
# 10: metric unit correctness


def test_criterion_10_metric_units():
    t0 = time.time()
    assert metrics.variance([0.2, 0.4]) == pytest.approx(0.01, abs=1e-15)
    assert metrics.variance([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert metrics.variance([5.0, 5.0]) == 0.0

    assert metrics.percentile_gap([1.0, 3.0]) == pytest.approx(1.8, abs=1e-12)
    assert metrics.percentile_gap(np.arange(1, 101)) == pytest.approx(89.1, abs=1e-10)
    assert metrics.percentile_gap([2.0] * 9) == 0.0

    assert metrics.norm_entropy([1.0, 1.0]) == pytest.approx(math.log(2), rel=1e-14)
    assert metrics.norm_entropy([1.0, 0.0]) == 0.0
    expected = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
    assert metrics.norm_entropy([1.0, 2.0], exponent=2.0) == pytest.approx(expected, rel=1e-12)
    assert metrics.norm_entropy([0.0, 0.0, 0.0]) == pytest.approx(math.log(3), rel=1e-14)

    assert metrics.mse([[0.0, 0.0]], [[1.0, 1.0]]) == pytest.approx(1.0)
    assert metrics.mse([[0.0], [0.0]], [[1.0], [1.0]]) == pytest.approx(2.0)

    rng = np.random.default_rng(0)
    v = rng.uniform(0.1, 2.0, size=9)
    for c in (0.5, 2.0, 7.0):
        assert metrics.variance(c * v) == pytest.approx(c**2 * metrics.variance(v), rel=1e-12)
        assert metrics.percentile_gap(c * v) == pytest.approx(c * metrics.percentile_gap(v), rel=1e-12)
        assert metrics.norm_entropy(c * v, 1.5) == pytest.approx(metrics.norm_entropy(v, 1.5), abs=1e-10)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        h = metrics.norm_entropy(rng.uniform(0, 1, size=m), float(rng.uniform(0.5, 3)))
        assert -1e-12 <= h <= math.log(m) + 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _passline(10, f"all metric reference values and invariants exact ({elapsed:.2f}s)")
