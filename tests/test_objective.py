import numpy as np
import pytest

from equicast import objective, predictor
from equicast.agents import AgentSpec, DataCenterContext, dc_optimal_batch, dc_regret_batch, regret


def test_equitable_loss_reference_values():
    assert objective.equitable_loss([0.2, 0.4], 0.0) == pytest.approx(0.6)
    assert objective.equitable_loss([0.2, 0.4], 1.0) == pytest.approx(0.2)
    assert objective.equitable_loss([0.0, 0.0], 3.0) == 0.0


def test_equitable_loss_validation():
    with pytest.raises(ValueError):
        objective.equitable_loss([0.2, -0.1], 1.0)
    with pytest.raises(ValueError):
        objective.equitable_loss([0.2], -0.5)
    with pytest.raises(ValueError):
        objective.equitable_loss([], 1.0)
    one = np.ones((1, 1))
    for beta in (-0.1, 1.5):
        with pytest.raises(ValueError, match=f"beta must lie in \\[0, 1\\], got {beta}"):
            objective.chain_grad(one, one, np.ones(1), one, 1, 1.0, beta)
    with pytest.raises(ValueError, match="q must be nonnegative, got -0.5"):
        objective.chain_grad(one, one, np.ones(1), one, 1, -0.5, 0.5)
    with pytest.raises(ValueError, match="q must be nonnegative, got -0.5"):
        objective.holder_max_value([0.2, 0.4], -0.5)
    # tiny negatives are float noise, clamped
    assert objective.equitable_loss([-1e-12, 0.3], 1.0) == pytest.approx(0.09)


def test_equitable_loss_permutation_and_monotonicity():
    rng = np.random.default_rng(0)
    r = rng.uniform(0, 1, size=6)
    assert objective.equitable_loss(r, 1.7) == pytest.approx(
        objective.equitable_loss(rng.permutation(r), 1.7)
    )
    bumped = r.copy()
    bumped[2] += 0.1
    assert objective.equitable_loss(bumped, 1.7) > objective.equitable_loss(r, 1.7)


def test_equitable_loss_power_monotonicity_in_q():
    rng = np.random.default_rng(1)
    small = rng.uniform(0.05, 0.9, size=5)  # all < 1: loss nonincreasing in q
    large = 1.0 + rng.uniform(0.0, 2.0, size=5)  # all >= 1: nondecreasing
    qs = [0.0, 0.5, 1.0, 2.0, 4.0]
    small_vals = [objective.equitable_loss(small, q) for q in qs]
    large_vals = [objective.equitable_loss(large, q) for q in qs]
    assert all(a >= b - 1e-12 for a, b in zip(small_vals, small_vals[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(large_vals, large_vals[1:]))


# --- chain gradient


def build_dc_chain_batch(params, specs, Xs, Ys, t_mean, t_scale):
    """chain_grad's inputs other than q and beta, the stacked rows and the forward's
    activations, for a batch of direct-adapter data-center agents with b rows each."""
    X, Y = np.concatenate(Xs), np.concatenate(Ys)
    b = len(Xs[0])
    w = np.repeat([s.context.workload for s in specs], b)
    lam = np.repeat([s.context.latency_weight for s in specs], b)
    preds, acts = predictor.forward_batch(params, X, keep=True)
    values, dvalues = dc_regret_batch(w, lam, t_mean + t_scale * preds[:, 0], Y[:, 0], dc_optimal_batch(w, lam, Y[:, 0]))
    slope = np.zeros_like(preds)
    slope[:, 0] = dvalues * t_scale
    means = np.add.reduceat(values, np.arange(0, len(values), b)) / b
    return (preds, (Y - t_mean) / t_scale, means, slope, b), X, acts


def chain_cot(batch, q, beta):
    """chain_grad on a `build_dc_chain_batch` batch."""
    return objective.chain_grad(*batch, q, beta)


def pipeline_loss(params, specs, Xs, Ys, t_mean, t_scale, q, beta):
    mean_regrets, mse_sum = [], 0.0
    for agent, X, Y in zip(specs, Xs, Ys):
        preds = predictor.forward_batch(params, X)
        values = [
            regret(agent, t_mean + t_scale * float(preds[i, 0]), float(Y[i, 0]))
            for i in range(X.shape[0])
        ]
        mean_regrets.append(np.mean(values))
        mse_sum += float(np.mean(((preds - (Y - t_mean) / t_scale)) ** 2))
    return (1 - beta) * objective.equitable_loss(mean_regrets, q) + beta * mse_sum


def test_chain_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    params = predictor.init_params([3, 4, 1], seed=2)
    specs = [
        AgentSpec(0, "datacenter", DataCenterContext(1.5, 2.0)),
        AgentSpec(1, "datacenter", DataCenterContext(3.0, 0.7)),
    ]
    Xs = [rng.uniform(-1, 1, size=(5, 3)) for _ in specs]
    Ys = [rng.uniform(0.9, 2.2, size=(5, 1)) for _ in specs]
    t_mean, t_scale = 1.5, 0.4
    h = 1e-5
    for q, beta in ((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)):
        batch, X, acts = build_dc_chain_batch(params, specs, Xs, Ys, t_mean, t_scale)
        grad = predictor.vjp_batch(params, X, chain_cot(batch, q, beta), acts)
        fd = np.zeros_like(grad)
        for j in range(params.values.size):
            v = params.values.copy()
            v[j] += h
            up = pipeline_loss(params.with_values(v), specs, Xs, Ys, t_mean, t_scale, q, beta)
            v[j] -= 2 * h
            dn = pipeline_loss(params.with_values(v), specs, Xs, Ys, t_mean, t_scale, q, beta)
            fd[j] = (up - dn) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(grad - fd)) / scale < 1e-3


def test_chain_grad_beta_one_is_pure_mse_gradient():
    rng = np.random.default_rng(3)
    params = predictor.init_params([3, 4, 1], seed=3)
    spec = AgentSpec(0, "datacenter", DataCenterContext(1.5, 2.0))
    X = rng.uniform(-1, 1, size=(6, 3))
    Y = rng.uniform(0.9, 2.2, size=(6, 1))
    batch, _, _ = build_dc_chain_batch(params, [spec], [X], [Y], 1.5, 0.4)
    cot = chain_cot(batch, 2.0, 1.0)
    preds = predictor.forward_batch(params, X)
    y_norm = (Y - 1.5) / 0.4
    assert np.array_equal(cot, (2.0 / 6) * (preds - y_norm))


def test_chain_grad_zero_at_perfection():
    cot = objective.chain_grad(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), 1, 1.0, 0.5)
    assert np.all(cot == 0.0)


def test_chain_grad_refuses_mismatched_partition():
    rng = np.random.default_rng(6)
    params = predictor.init_params([3, 4, 1], seed=6)
    specs = [AgentSpec(0, "datacenter", DataCenterContext(1.5, 2.0)),
             AgentSpec(1, "datacenter", DataCenterContext(3.0, 0.7))]
    Xs = [rng.uniform(-1, 1, size=(4, 3)) for _ in specs]
    Ys = [rng.uniform(0.9, 2.2, size=(4, 1)) for _ in specs]
    (preds, y, means, slope, b), _, _ = build_dc_chain_batch(params, specs, Xs, Ys, 1.5, 0.4)
    for beta in (0.5, 1.0):  # beta = 1 reads neither the means' values nor the slope, but checks their count
        with pytest.raises(ValueError, match="1 agents of 4 rows for 8 rows"):
            objective.chain_grad(preds, y, means[:1], slope, b, 1.0, beta)
        with pytest.raises(ValueError, match="3 agents of 4 rows for 8 rows"):
            objective.chain_grad(preds, y, np.append(means, 0.1), slope, b, 1.0, beta)
        with pytest.raises(ValueError, match="2 agents of 3 rows for 8 rows"):
            objective.chain_grad(preds, y, means, slope, 3, 1.0, beta)


def test_chain_grad_mse_weight_is_beta_times_two_over_b():
    rng = np.random.default_rng(7)
    y_hat, y = rng.standard_normal((2, 9, 2))
    cot = objective.chain_grad(y_hat, y, np.full(3, 0.4), np.zeros((9, 2)), 3, 1.0, 0.5)
    assert np.array_equal(cot, 0.5 * (2.0 / 3) * (y_hat - y))
    # at beta = 1 the weight is 2/b itself, so the plain step keeps its bits
    assert np.array_equal(objective.chain_grad(y_hat, y, np.full(3, 0.4), None, 3, 1.0, 1.0), (2.0 / 3) * (y_hat - y))


# --- policy-gradient estimator


@pytest.mark.parametrize("n_draws, rows, n_out", [
    (1, 7, 12), (8, 13, 12), (8, 33, 1), (8, 320, 12), (200_000, 1, 1), (200_000, 3, 2),
])
def test_pg_grad_fold_is_bitwise_the_tensordot_fold(n_draws, rows, n_out):
    rng = np.random.default_rng(rows)
    eps = rng.standard_normal((n_draws, rows, n_out))
    losses = rng.uniform(0, 3, size=n_draws)
    baseline = (losses.sum() - losses) / max(n_draws - 1, 1)
    std = 0.3
    weights = (losses - baseline) / (n_draws * std)
    expected = np.tensordot(weights, eps, axes=1)
    got = objective.pg_grad(eps, losses, baseline, std)
    assert got.shape == (rows, n_out)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_pg_grad_monte_carlo_matches_analytic():
    # quadratic toy: yhat ~ N(theta, std^2), C = (yhat-1)^2, d/dtheta E[C] = 2(theta-1);
    # a bias-only model on a zero input makes the prediction the parameter
    std = 0.3
    n = 200_000
    x = np.zeros((1, 1))
    for theta in (0.0, 0.5, 2.0):
        params = predictor.ParamVector(values=np.array([0.0, theta]), layer_sizes=(1, 1))
        _, acts = predictor.forward_batch(params, x, keep=True)
        rng = np.random.default_rng(42 + int(10 * theta))
        eps = rng.standard_normal(n)
        losses = (theta + std * eps - 1.0) ** 2
        # no baseline, then the trainer's leave-one-out baseline over the same draws
        loo = (losses.sum() - losses) / (n - 1)
        spreads = []
        for baseline in (0.0, loo):
            terms = (losses - baseline) * eps / std
            grad = predictor.vjp_batch(params, x, objective.pg_grad(eps.reshape(n, 1, 1), losses, baseline, std), acts)
            assert grad[1] == pytest.approx(terms.mean(), rel=1e-12)
            se = terms.std() / np.sqrt(n)
            assert abs(grad[1] - 2 * (theta - 1.0)) < 5 * se
            spreads.append(terms.std())
        assert spreads[1] < spreads[0]


def test_score_function_baseline_keeps_mean():
    std, theta, n = 0.3, 0.5, 200_000
    rng = np.random.default_rng(11)
    draws = theta + std * rng.standard_normal(n)
    scores = (draws - theta) / std**2
    losses = (draws - 1.0) ** 2
    plain = scores * losses
    with_base = scores * (losses - 0.7)
    assert abs(plain.mean() - with_base.mean()) < 5 * np.sqrt(
        plain.var() / n + with_base.var() / n
    )
    assert with_base.std() < plain.std()


def test_pg_matches_chain_on_differentiable_toy():
    # frozen params: averaged pg estimates align with the exact gradient
    rng = np.random.default_rng(9)
    params = predictor.init_params([2, 3, 1], seed=9)
    spec = AgentSpec(0, "datacenter", DataCenterContext(1.2, 2.0))
    X = rng.uniform(-1, 1, size=(4, 2))
    Y = rng.uniform(1.0, 2.0, size=(4, 1))
    t_mean, t_scale = 1.5, 0.3
    q = 1.0
    batch, _, acts = build_dc_chain_batch(params, [spec], [X], [Y], t_mean, t_scale)
    exact = predictor.vjp_batch(params, X, chain_cot(batch, q, 0.0), acts)

    std = 0.05
    preds = batch[0]
    acc = np.zeros_like(exact)
    n_rounds = 10_000
    for _ in range(n_rounds):
        eps = rng.standard_normal(preds.shape)
        sampled = preds + std * eps
        score_sum = predictor.vjp_batch(params, X, eps / std, acts)
        values = [
            regret(spec, t_mean + t_scale * float(sampled[i, 0]), float(Y[i, 0]))
            for i in range(4)
        ]
        loss = objective.equitable_loss([np.mean(values)], q)
        acc += score_sum * loss
    acc /= n_rounds
    cosine = float(acc @ exact / (np.linalg.norm(acc) * np.linalg.norm(exact)))
    assert cosine > 0.5


# --- dual norm


def test_dual_norm_reference_values():
    # the maximizer's value and the closed form (sum r^(q+1))^(1/(q+1)) agree
    for r, q, expected in (([3.0, 4.0], 1.0, 5.0), ([3.0, 4.0], 0.0, 7.0), ([0.0, 0.0], 2.0, 0.0)):
        assert objective.holder_max_value(r, q) == pytest.approx(expected, abs=1e-12)
        assert objective.equitable_loss(r, q) ** (1 / (q + 1)) == pytest.approx(expected, abs=1e-12)


def test_dual_norm_matches_holder_maximizer():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = int(rng.integers(2, 13))
        r = rng.uniform(0, 1, size=m)
        for q in (0.5, 2.0, 9.0):
            closed = objective.equitable_loss(r, q) ** (1 / (q + 1))
            witness = objective.holder_max_value(r, q)
            assert abs(closed - witness) / max(closed, 1e-300) < 1e-10


def test_dual_norm_power_identity():
    rng = np.random.default_rng(12)
    r = rng.uniform(0, 1, size=7)
    for q in (0.0, 0.5, 2.0):
        assert objective.holder_max_value(r, q) ** (q + 1) == pytest.approx(
            objective.equitable_loss(r, q), rel=1e-12
        )


def test_holder_maximizer_is_feasible():
    # the witness vector satisfies ||v||_p <= 1 by construction; check value <= closed form
    rng = np.random.default_rng(13)
    r = rng.uniform(0, 1, size=9)
    for q in (0.5, 2.0, 9.0):
        closed = objective.equitable_loss(r, q) ** (1 / (q + 1))
        assert objective.holder_max_value(r, q) <= closed + 1e-12


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0, 9.0])
def test_rows_of_a_stack_are_their_one_row_calls_bitwise(q):
    # the dual-norm suite scores each agent count's cases in one call of each
    rng = np.random.default_rng(int(10 * q))
    for m in range(2, 13):
        r = rng.uniform(0.0, 1.0, size=(30, m))
        r[0] = 0.0  # an all-zero row
        r[1, 0] = 0.0
        r[2] *= 1e-300  # underflows at the q-th power unless normalized first
        for fn in (objective.equitable_loss, objective.holder_max_value):
            stacked = fn(r, q)
            assert stacked.shape == (30,)
            one_row = [fn(row, q) for row in r]
            assert all(type(value) is float for value in one_row)
            assert stacked.tobytes() == np.array(one_row).tobytes()
