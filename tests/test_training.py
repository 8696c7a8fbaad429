import numpy as np
import pytest

from equicast import objective, predictor
from equicast.agents import AgentSpec, ChargingContext, DataCenterContext, regret
from equicast.data import WindowSplit
from equicast.errors import ConfigError, DivergenceError
from equicast.training import TrainConfig, evaluate, train
from equicast.verify import QuadraticToy, minimize_toy, theorem_check_entropy, theorem_check_variance


def make_split(x, y, train_frac=0.67, ctx=None, t_mean=0.0, t_scale=1.0):
    """Hand-built WindowSplit over already-windowed arrays (chronological)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    ntr = int(round(train_frac * n))
    y_norm = (y - t_mean) / t_scale
    return WindowSplit(
        train_x=x[:ntr], train_y=y_norm[:ntr], test_x=x[ntr:], test_y=y_norm[ntr:],
        train_y_raw=y[:ntr], test_y_raw=y[ntr:],
        feature_mean=np.zeros(x.shape[1]), feature_std=np.ones(x.shape[1]),
        target_mean=t_mean, target_scale=t_scale,
        train_idx=np.arange(ntr), test_idx=np.arange(ntr, n),
        train_ctx=None if ctx is None else np.asarray(ctx)[:ntr],
        test_ctx=None if ctx is None else np.asarray(ctx)[ntr:],
    )


def linear_data(n=150, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, size=(n, 1))
    ys = 2.0 * xs
    return xs, ys


DC_AGENT = AgentSpec(0, "datacenter", DataCenterContext(1.0, 1.0))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(mode="magic")
    with pytest.raises(ConfigError):
        TrainConfig(beta=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(std=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(pg_samples=0)


def test_plain_mode_fits_linear_map():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    cfg = TrainConfig(mode="plain", lr=0.05, epochs=40, batch_size=25, seed=1, lr_step=10**6)
    res = train(cfg, predictor.init_params([1, 1], seed=3), [DC_AGENT], [split])
    preds = predictor.forward_batch(res.params, split.train_x)
    # least-squares optimum is exactly y = 2x with zero residual
    assert float(np.mean((preds - split.train_y) ** 2)) < 1e-3


def test_zero_learning_rate_freezes_parameters():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    p0 = predictor.init_params([1, 1], seed=3)
    cfg = TrainConfig(mode="plain", lr=0.0, epochs=3, batch_size=25, seed=1)
    res = train(cfg, p0, [DC_AGENT], [split])
    assert np.array_equal(res.params.values, p0.values)


def test_chain_mode_converges_to_grid_minimizer():
    # bias-only model against a fixed intensity sample: the mean-regret
    # minimizer over a constant forecast is found by grid search
    rng = np.random.default_rng(0)
    cs = rng.uniform(0.5, 3.0, size=90)
    t_mean, t_scale = float(cs.mean()), float(cs.std())
    split = make_split(np.zeros((90, 1)), cs[:, None], t_mean=t_mean, t_scale=t_scale)
    cfg = TrainConfig(mode="chain", q=0.0, beta=0.0, lr=0.1, lr_step=150, lr_decay=0.5,
                      epochs=400, batch_size=60, seed=2)
    res = train(cfg, predictor.init_params([1, 1], seed=5), [DC_AGENT], [split])
    b_hat = t_mean + t_scale * predictor.forward(res.params, np.zeros(1))[0]

    train_c = split.train_y_raw[:, 0]
    grid = np.linspace(0.3, 3.5, 3201)
    regrets = [np.mean([regret(DC_AGENT, b, c).value for c in train_c]) for b in grid]
    b_grid = grid[int(np.argmin(regrets))]
    assert abs(b_hat - b_grid) < 1e-2


def test_chain_mode_rejects_charging_agents():
    split = make_split(np.zeros((20, 1)), np.ones((20, 1)))
    ev = AgentSpec(1, "charging", ChargingContext(0.0, 0.5, 1.0, 1))
    with pytest.raises(ConfigError):
        train(TrainConfig(mode="chain"), predictor.init_params([1, 1], seed=0), [ev], [split])


def test_plain_equals_chain_at_beta_one():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, size=(60, 2))
    ys = (xs @ np.array([1.5, -0.5]))[:, None] + 2.0
    ctx = rng.uniform(1, 3, size=60)
    split = make_split(xs, ys, ctx=ctx, t_mean=2.0, t_scale=1.0)
    p0 = predictor.init_params([2, 3, 1], seed=6)
    plain = train(TrainConfig(mode="plain", lr=0.05, epochs=4, batch_size=20, seed=9), p0, [DC_AGENT], [split])
    chain = train(TrainConfig(mode="chain", beta=1.0, lr=0.05, epochs=4, batch_size=20, seed=9), p0, [DC_AGENT], [split])
    assert np.max(np.abs(plain.params.values - chain.params.values)) < 1e-10


def test_reproducibility_bitwise():
    xs, _ = linear_data(seed=5)
    ys = 2.0 * xs + 3.0  # keep realized intensities positive for the regret oracle
    cfg = TrainConfig(mode="pg", q=1.0, lr=0.01, epochs=5, batch_size=25, seed=7, std=0.2)
    p0 = predictor.init_params([1, 1], seed=1)
    # identical (config, data, seed) twice
    a = train(cfg, p0, [DC_AGENT], [make_split(xs, ys, t_mean=3.0)])
    b = train(cfg, p0, [DC_AGENT], [make_split(xs, ys, t_mean=3.0)])
    assert np.array_equal(a.params.values, b.params.values)


def test_lr_schedule_decays_by_step():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    cfg = TrainConfig(mode="plain", lr=0.08, lr_step=3, lr_decay=0.5, epochs=3, batch_size=33, seed=0)
    res = train(cfg, predictor.init_params([1, 1], seed=0), [DC_AGENT], [split])
    lrs = [row["lr"] for row in res.step_log]
    expected = [0.08 * 0.5 ** (t // 3) for t in range(len(lrs))]
    assert lrs == pytest.approx(expected)


def test_divergence_guard_raises_with_step():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    cfg = TrainConfig(mode="plain", lr=1e12, epochs=30, batch_size=25, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(cfg, predictor.init_params([1, 4, 1], seed=0), [DC_AGENT], [split])
    assert err.value.step is not None
    assert err.value.agent_id == 0


def test_pg_step_matches_batch_op():
    # one pg step (single draw), reconstructed draw-by-draw through the
    # public sampling/score/batch-gradient operations
    xs, _ = linear_data(n=30, seed=11)
    ys = 2.0 * xs + 3.0
    split = make_split(xs, ys, train_frac=0.8, t_mean=3.0)
    p0 = predictor.init_params([1, 1], seed=2)
    lr, std = 0.05, 0.3
    cfg = TrainConfig(mode="pg", q=1.0, lr=lr, std=std, epochs=1, batch_size=24, seed=13,
                      optimizer="sgd", pg_samples=1)
    res = train(cfg, p0, [DC_AGENT], [split])

    rng = np.random.default_rng(13)
    perm = rng.permutation(split.train_x.shape[0])
    sel = perm[:24]
    X, Y = split.train_x[sel], split.train_y[sel]
    eps = rng.standard_normal((1, 24, 1))
    scores = np.stack([
        predictor.score_grad(
            p0, X[i],
            predictor.PolicySample(sample=predictor.forward(p0, X[i]) + std * eps[0, i],
                                   mean=predictor.forward(p0, X[i]), std=std),
        )
        for i in range(24)
    ])
    raws = split.to_raw(predictor.forward_batch(p0, X) + std * eps[0])
    regrets = [regret(DC_AGENT, float(raws[i, 0]), float(split.train_y_raw[sel][i, 0])).value
               for i in range(24)]
    g = objective.pg_batch_grad(scores, [regrets], q=1.0)
    expected = p0.values - lr * g
    assert np.allclose(res.params.values, expected, atol=1e-10)


def _three_agent_pool():
    """A charging agent, a data-center agent with a workload stream and a
    window-mean data-center agent; the last one's train split (5 rows) is
    smaller than the batch size used below, so batch sizes differ."""
    rng = np.random.default_rng(21)
    ev = AgentSpec(0, "charging", ChargingContext(0.2, 2.3, 1.0, 3))
    dc = AgentSpec(1, "datacenter", DataCenterContext(2.0, 3.0))
    dc_mean = AgentSpec(2, "datacenter", DataCenterContext(1.5, 8.0))
    ev_split = make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 3)), t_mean=1.8, t_scale=0.7)
    dc_split = make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 3)),
                          ctx=rng.uniform(1.0, 4.0, 12), t_mean=1.5, t_scale=0.5)
    mean_split = make_split(rng.uniform(-1, 1, (8, 2)), rng.uniform(0.5, 3.0, (8, 3)), t_mean=2.0, t_scale=0.6)
    mean_split.predict_adapter = "window_mean"
    return [ev, dc, dc_mean], [ev_split, dc_split, mean_split]


def _sample_regret(agent, split, raw, outcome, ctx):
    if agent.family == "charging":
        return regret(agent, raw, outcome).value
    c_hat = raw.mean() if split.predict_adapter == "window_mean" else raw[0]
    context = None if ctx is None else DataCenterContext(float(ctx), agent.context.latency_weight)
    return regret(agent, c_hat, outcome[0], context=context).value


def _reference_pg_sgd(cfg, params, agents, splits):
    """SGD on the mean over draws of `pg_batch_grad`, drawing randomness in the trainer's order."""
    rng = np.random.default_rng(cfg.seed)
    counts = [s.train_x.shape[0] for s in splits]
    sizes = [min(cfg.batch_size, n) for n in counts]
    steps = min(n // b for n, b in zip(counts, sizes))
    std, n_draws = cfg.std, cfg.pg_samples
    ema = None
    for _ in range(cfg.epochs):
        perms = [rng.permutation(n) for n in counts]
        for k in range(steps):
            sels = [perm[k * b : (k + 1) * b] for perm, b in zip(perms, sizes)]
            means = [predictor.forward_batch(params, s.train_x[sel]) for s, sel in zip(splits, sels)]
            eps = [rng.standard_normal((n_draws, b, params.n_outputs)) for b in sizes]
            draws = []
            for d in range(n_draws):
                scores, regrets, sq_errors = [], [], []
                for m, (agent, split, sel) in enumerate(zip(agents, splits, sels)):
                    sample = means[m] + std * eps[m][d]
                    raws = split.to_raw(sample)
                    ctxs = None if split.train_ctx is None else split.train_ctx[sel]
                    regrets.append([
                        _sample_regret(agent, split, raws[i], split.train_outcome[sel][i],
                                       None if ctxs is None else ctxs[i])
                        for i in range(len(sel))
                    ])
                    sq_errors.append(np.sum((sample - split.train_y[sel]) ** 2, axis=1))
                    scores.extend(
                        predictor.score_grad(params, split.train_x[sel][i],
                                             predictor.PolicySample(sample[i], means[m][i], std))
                        for i in range(len(sel))
                    )
                loss = (1.0 - cfg.beta) * objective.equitable_loss([np.mean(r) for r in regrets], cfg.q)
                loss += cfg.beta * float(np.sum([np.mean(e) for e in sq_errors]))
                draws.append((np.stack(scores), regrets, sq_errors, loss))
            losses = np.array([loss for *_, loss in draws])
            if cfg.pg_baseline and n_draws > 1:
                bases = (losses.sum() - losses) / (n_draws - 1)
            else:
                bases = np.full(n_draws, 0.0 if ema is None or not cfg.pg_baseline else ema)
            grad = np.mean([
                objective.pg_batch_grad(scores, regrets, cfg.q, cfg.beta, sq_errors, baseline=base)
                for (scores, regrets, sq_errors, _), base in zip(draws, bases)
            ], axis=0)
            params = params.with_values(params.values - cfg.lr * grad)
            ema = losses.mean() if ema is None else 0.9 * ema + 0.1 * losses.mean()
    return params


@pytest.mark.parametrize(
    "pg_samples, epochs, batch_size, steps_per_epoch",
    [
        # leave-one-out baseline over draws; EMA baseline over steps; both
        # with ragged batches (b = 6, 6, 5), hence one step per epoch
        pytest.param(4, 1, 6, 1, id="4-1"),
        pytest.param(1, 2, 6, 1, id="1-2"),
        # b = 2 for every agent: two steps per epoch, the second one reading
        # row 1 of the epoch's batch index
        pytest.param(3, 2, 2, 2, id="3-2-b2"),
    ],
)
def test_pg_step_at_acceptance_config_matches_batch_op(pg_samples, epochs, batch_size, steps_per_epoch):
    agents, splits = _three_agent_pool()
    p0 = predictor.init_params([2, 4, 3], seed=4)
    cfg = TrainConfig(mode="pg", q=1.0, beta=0.5, lr=0.05, lr_step=10**6, std=0.3, epochs=epochs,
                      batch_size=batch_size, seed=17, optimizer="sgd", pg_baseline=True, pg_samples=pg_samples)
    res = train(cfg, p0, agents, splits)
    assert len(res.step_log) == epochs * steps_per_epoch
    expected = _reference_pg_sgd(cfg, p0, agents, splits)
    assert np.allclose(res.params.values, expected.values, rtol=0.0, atol=1e-10)
    assert not np.allclose(res.params.values, p0.values, rtol=0.0, atol=1e-6)


def test_chain_step_matches_finite_differences_of_batch_loss():
    # one SGD step (lr=1) in chain mode on a two-output model: a data-center
    # agent with a workload stream, a direct-adapter agent (c_hat reads output
    # 0 only) and a window-mean agent whose train split (5 rows) is smaller
    # than the batch, so batch sizes differ
    rng = np.random.default_rng(5)
    agents = [
        AgentSpec(0, "datacenter", DataCenterContext(2.0, 3.0)),
        AgentSpec(1, "datacenter", DataCenterContext(1.2, 0.8)),
        AgentSpec(2, "datacenter", DataCenterContext(1.5, 8.0)),
    ]
    splits = [
        make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 2)),
                   ctx=rng.uniform(1.0, 4.0, 12), t_mean=1.5, t_scale=0.5),
        make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 2)), t_mean=1.8, t_scale=0.7),
        make_split(rng.uniform(-1, 1, (8, 2)), rng.uniform(0.5, 3.0, (8, 2)), t_mean=2.0, t_scale=0.6),
    ]
    splits[2].predict_adapter = "window_mean"
    p0 = predictor.init_params([2, 4, 2], seed=3)
    cfg = TrainConfig(mode="chain", q=1.0, beta=0.5, lr=1.0, lr_step=10**6, epochs=1, batch_size=6,
                      seed=11, optimizer="sgd")
    res = train(cfg, p0, agents, splits)
    assert len(res.step_log) == 1
    grad = p0.values - res.params.values

    perm_rng = np.random.default_rng(cfg.seed)
    sels = [perm_rng.permutation(len(s.train_x))[: min(6, len(s.train_x))] for s in splits]
    assert [len(sel) for sel in sels] == [6, 6, 5]

    def batch_loss(values):
        params = p0.with_values(values)
        mean_regrets, mse = [], 0.0
        for agent, split, sel in zip(agents, splits, sels):
            preds = predictor.forward_batch(params, split.train_x[sel])
            raws = split.to_raw(preds)
            ctxs = [None] * len(sel) if split.train_ctx is None else split.train_ctx[sel]
            mean_regrets.append(np.mean([
                _sample_regret(agent, split, raws[i], split.train_outcome[sel][i], ctxs[i])
                for i in range(len(sel))
            ]))
            mse += float(np.mean(np.sum((preds - split.train_y[sel]) ** 2, axis=1)))
        return (1.0 - cfg.beta) * objective.equitable_loss(mean_regrets, cfg.q) + cfg.beta * mse

    h = 1e-5
    fd = np.array([
        (batch_loss(p0.values + h * e) - batch_loss(p0.values - h * e)) / (2 * h)
        for e in np.eye(p0.values.size)
    ])
    assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6


def test_charging_horizon_must_match_model_outputs():
    # a 3-slot agent served by a 2-output model must be refused, not trained
    agents, splits = _three_agent_pool()
    p0 = predictor.init_params([2, 4, 2], seed=4)
    cfg = TrainConfig(mode="pg", std=0.3, epochs=1, batch_size=6, seed=17)
    with pytest.raises(ConfigError, match="horizon 3"):
        train(cfg, p0, agents, splits)
    with pytest.raises(ConfigError, match="horizon 3"):
        evaluate(p0, agents, splits)


def test_evaluate_perfect_predictor():
    # targets equal a constant the model can represent exactly with zero weights
    split = make_split(np.zeros((40, 1)), np.full((40, 1), 2.0), t_mean=2.0, t_scale=1.0)
    params = predictor.init_params([1, 1], seed=0).with_values(np.zeros(2))
    summary = evaluate(params, [DC_AGENT], [split])
    assert summary.per_agent_regret[0] <= 1e-12
    assert summary.variance == 0.0
    assert summary.c95_minus_c5 == 0.0
    assert summary.entropy == pytest.approx(0.0)  # M=1: log(1)
    assert summary.mse <= 1e-20


def test_evaluate_deterministic():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, size=(50, 2))
    ys = rng.uniform(1, 2, size=(50, 1))
    split = make_split(xs, ys, t_mean=1.5, t_scale=0.3)
    params = predictor.init_params([2, 3, 1], seed=8)
    a = evaluate(params, [DC_AGENT], [split])
    b = evaluate(params, [DC_AGENT], [split])
    assert np.array_equal(a.per_agent_regret, b.per_agent_regret)
    assert a.as_dict() == b.as_dict()


# --- theorem toys (the toy machinery lives in equicast.verify)


def test_minimize_toy_high_precision():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.3, 0.3])
    (theta,) = minimize_toy(toy, 0.0)
    assert abs(theta - 0.5) < 1e-12  # symmetric: exact midpoint
    assert abs(toy.loss_grad(theta, 0.0)[0]) < 1e-10


def test_theorem_variance_symmetric_equality():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.0, 0.0])
    (var0,), (var1,) = theorem_check_variance(toy)
    assert var1 <= var0 + 1e-9
    assert var0 == pytest.approx(var1, abs=1e-9)


def test_theorem_variance_asymmetric_strict():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.0, 0.5])
    (var0,), (var1,) = theorem_check_variance(toy)
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
    var0, var1 = theorem_check_variance(QuadraticToy(targets=targets, offsets=offsets))
    assert var0.shape == var1.shape == (50,)
    assert np.all(var1 <= var0 + 1e-9)


def test_theorem_entropy_symmetric_flat():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.4, 0.4])
    derivs = theorem_check_entropy(toy, [0.0, 1.0])
    assert derivs.shape == (1, 2)
    assert np.all(np.abs(derivs) < 1e-6)


def test_theorem_entropy_asymmetric_nonnegative():
    toy = QuadraticToy(targets=[0.0, 1.0], offsets=[0.2, 0.7])
    derivs = theorem_check_entropy(toy, [0.0, 0.5, 1.0, 2.0])
    assert np.all(derivs >= -1e-6)


def test_theorem_entropy_secant_form():
    toy = QuadraticToy(targets=[-0.3, 0.8], offsets=[0.15, 0.6])
    from equicast.metrics import norm_entropy
    for q in (0.0, 1.0):
        h_q = norm_entropy(toy.costs(minimize_toy(toy, q))[0], exponent=q + 1.0)
        h_up = norm_entropy(toy.costs(minimize_toy(toy, q + 0.05))[0], exponent=q + 1.0)
        assert h_up >= h_q - 1e-6
