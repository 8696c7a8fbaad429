from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from equicast import objective, predictor, training
from equicast.agents import (
    AgentSpec, ChargingContext, DataCenterContext, dc_optimal_batch, dc_regret_batch, regret, required_slots,
)
from equicast.data import Part, PoolWindows
from equicast.errors import ConfigError, DivergenceError, InfeasibleActionError
from equicast.training import PoolData, TrainConfig, TrainRuns, _StackedRows, evaluate, train


class Split(NamedTuple):
    """One agent's hand-windowed rows, split chronologically; its outcome rows are its targets."""

    train_x: np.ndarray
    test_x: np.ndarray
    train_y_raw: np.ndarray
    test_y_raw: np.ndarray
    train_ctx: np.ndarray | None
    test_ctx: np.ndarray | None
    train_outcome: np.ndarray
    test_outcome: np.ndarray


def make_split(x, y, train_frac=0.67, ctx=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ntr = int(round(train_frac * x.shape[0]))
    ctx = None if ctx is None else np.asarray(ctx, dtype=float)
    return Split(x[:ntr], x[ntr:], y[:ntr], y[ntr:], None if ctx is None else ctx[:ntr],
                 None if ctx is None else ctx[ntr:], y[:ntr], y[ntr:])


def stack(agents, splits):
    """The agents' splits as a pool's windows, stacked in agent order.

    Every agent's split has the same length, as every built pool's has.  An
    agent without a workload series reads its own workload (0 for a charger).
    """
    def part(name):
        def column(field):
            return [getattr(s, f"{name}_{field}") for s in splits]
        workloads = [
            np.full(len(x), a.context.workload if a.family == "datacenter" else 0.0) if ctx is None else ctx
            for a, x, ctx in zip(agents, column("x"), column("ctx"))
        ]
        return Part(np.concatenate(column("x")), np.concatenate(column("y_raw")), np.concatenate(column("outcome")),
                    np.concatenate(workloads), len(splits))
    return PoolWindows(part("train"), part("test"))


def make_pool(agents, splits):
    """The pool of `agents` over their splits, fitted to them as `harness` fits a pool."""
    return PoolData(agents, stack(agents, splits))


def target_stats(splits):
    """The pool's one target transform, written out: the mean and std of every agent's raw training targets."""
    pooled = np.concatenate([s.train_y_raw.ravel() for s in splits])
    return float(pooled.mean()), max(float(pooled.std()), 1e-9)


def linear_data(n=150, seed=0):
    # the offset keeps the targets valid realized intensities, which every
    # pool scores when it is built; the model's normalized targets do not
    # depend on it
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, size=(n, 1))
    ys = 2.0 * xs + 3.0
    return xs, ys


DC_AGENT = AgentSpec(0, "datacenter", DataCenterContext(1.0, 1.0))


def to_raw(splits, normalized):
    """Model outputs on the raw target scale of the pool `splits`."""
    mean, scale = target_stats(splits)
    return mean + scale * normalized


def to_normalized(splits, raw):
    """Raw targets on the model's scale: the pool's one transform, as the trainer applies it."""
    mean, scale = target_stats(splits)
    return (raw - mean) / scale


def row_score(params, x, eps, std):
    """Log-density gradient of the Gaussian head at one window's draw y_hat + std * eps.

    For an isotropic Gaussian around the forward pass it is the vjp of eps / std.
    """
    X = x[None, :]
    _, acts = predictor.forward_batch(params, X, keep=True)
    return predictor.vjp_batch(params, X, (eps / std)[None, :], acts)


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
    # a negative clip scales every step uphill; NaN and infinities slip
    # through plain comparisons
    for field_name, bad in (("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", float("nan")),
                            ("grad_clip", float("inf")), ("momentum", -0.1), ("momentum", 1.0),
                            ("momentum", float("nan")), ("lr", float("nan")), ("lr", float("inf")),
                            ("q", float("nan")), ("q", float("inf")), ("std", float("nan")),
                            ("std", float("inf"))):
        with pytest.raises(ConfigError, match=field_name):
            TrainConfig(**{field_name: bad})
    TrainConfig(grad_clip=0.5, momentum=0.9)


def test_plain_mode_fits_linear_map():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    cfg = TrainConfig(mode="plain", lr=0.05, epochs=40, batch_size=25, seed=1, lr_step=10**6)
    res = train(cfg, predictor.init_params([1, 1], seed=3), [DC_AGENT], make_pool([DC_AGENT], [split]))
    preds = predictor.forward_batch(res.params, split.train_x)
    # least-squares optimum is exactly y = 2x + 3 with zero residual
    assert float(np.mean((preds - to_normalized([split], split.train_y_raw)) ** 2)) < 1e-3


def test_zero_learning_rate_freezes_parameters():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    p0 = predictor.init_params([1, 1], seed=3)
    cfg = TrainConfig(mode="plain", lr=0.0, epochs=3, batch_size=25, seed=1)
    res = train(cfg, p0, [DC_AGENT], make_pool([DC_AGENT], [split]))
    assert np.array_equal(res.params.values, p0.values)


def test_chain_mode_converges_to_grid_minimizer():
    # bias-only model against a fixed intensity sample: the mean-regret
    # minimizer over a constant forecast is found by grid search
    rng = np.random.default_rng(0)
    cs = rng.uniform(0.5, 3.0, size=90)
    split = make_split(np.zeros((90, 1)), cs[:, None])
    cfg = TrainConfig(mode="chain", q=0.0, beta=0.0, lr=0.1, lr_step=150, lr_decay=0.5,
                      epochs=400, batch_size=60, seed=2)
    res = train(cfg, predictor.init_params([1, 1], seed=5), [DC_AGENT], make_pool([DC_AGENT], [split]))
    b_hat = to_raw([split], predictor.forward_batch(res.params, np.zeros((1, 1))))[0, 0]

    train_c = split.train_y_raw[:, 0]
    grid = np.linspace(0.3, 3.5, 3201)
    regrets = [np.mean([regret(DC_AGENT, b, c) for c in train_c]) for b in grid]
    b_grid = grid[int(np.argmin(regrets))]
    assert abs(b_hat - b_grid) < 1e-2


def test_chain_mode_rejects_charging_agents():
    split = make_split(np.zeros((20, 1)), np.ones((20, 1)))
    ev = AgentSpec(1, "charging", ChargingContext(0.0, 0.5, 1.0, 1))
    with pytest.raises(ConfigError):
        train(TrainConfig(mode="chain"), predictor.init_params([1, 1], seed=0), [ev], make_pool([ev], [split]))


def test_plain_equals_chain_at_beta_one():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, size=(60, 2))
    ys = (xs @ np.array([1.5, -0.5]))[:, None] + 2.0
    ctx = rng.uniform(1, 3, size=60)
    split = make_split(xs, ys, ctx=ctx)
    p0 = predictor.init_params([2, 3, 1], seed=6)
    pool = make_pool([DC_AGENT], [split])
    plain = train(TrainConfig(mode="plain", lr=0.05, epochs=4, batch_size=20, seed=9), p0, [DC_AGENT], pool)
    chain = train(TrainConfig(mode="chain", beta=1.0, lr=0.05, epochs=4, batch_size=20, seed=9), p0, [DC_AGENT], pool)
    assert np.array_equal(plain.params.values, chain.params.values)
    assert [row["combined"] for row in plain.step_log] == [row["combined"] for row in chain.step_log]


def test_reproducibility_bitwise():
    xs, ys = linear_data(seed=5)
    cfg = TrainConfig(mode="pg", q=1.0, lr=0.01, epochs=5, batch_size=25, seed=7, std=0.2)
    p0 = predictor.init_params([1, 1], seed=1)
    # identical (config, data, seed) twice
    a = train(cfg, p0, [DC_AGENT], make_pool([DC_AGENT], [make_split(xs, ys)]))
    b = train(cfg, p0, [DC_AGENT], make_pool([DC_AGENT], [make_split(xs, ys)]))
    assert np.array_equal(a.params.values, b.params.values)


def test_lr_schedule_decays_by_step():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    cfg = TrainConfig(mode="plain", lr=0.08, lr_step=3, lr_decay=0.5, epochs=3, batch_size=33, seed=0)
    res = train(cfg, predictor.init_params([1, 1], seed=0), [DC_AGENT], make_pool([DC_AGENT], [split]))
    lrs = [row["lr"] for row in res.step_log]
    expected = [0.08 * 0.5 ** (t // 3) for t in range(len(lrs))]
    assert lrs == pytest.approx(expected)


def _reference_plain_updates(cfg, theta, split):
    """The optimizer written out on y = w*x + b: squared-error gradients by hand,
    the clip, the lr schedule, then SGD with momentum or Adam.  Returns the
    final (w, b) and how many steps the clip scaled."""
    rng = np.random.default_rng(cfg.seed)
    n, b = len(split.train_x), cfg.batch_size
    steps = n // b
    velocity = adam_m = adam_v = np.zeros(2)
    ys = to_normalized([split], split.train_y_raw)
    clipped = 0
    for t in range(cfg.epochs * steps):
        k = t % steps
        if k == 0:
            perm = rng.permutation(n)
        sel = perm[k * b : (k + 1) * b]
        x, y = split.train_x[sel, 0], ys[sel, 0]
        resid = theta[0] * x + theta[1] - y
        grad = np.array([2.0 * np.mean(resid * x), 2.0 * np.mean(resid)])
        if cfg.grad_clip is not None and np.linalg.norm(grad) > cfg.grad_clip:
            grad *= cfg.grad_clip / np.linalg.norm(grad)
            clipped += 1
        lr = cfg.lr * cfg.lr_decay ** (t // cfg.lr_step)
        if cfg.optimizer == "sgd":
            velocity = cfg.momentum * velocity + grad
            theta = theta - lr * velocity
        else:
            adam_m = 0.9 * adam_m + 0.1 * grad
            adam_v = 0.999 * adam_v + 0.001 * grad**2
            m_hat, v_hat = adam_m / (1.0 - 0.9 ** (t + 1)), adam_v / (1.0 - 0.999 ** (t + 1))
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return theta, clipped


@pytest.mark.parametrize("optimizer, momentum, grad_clip", [("sgd", 0.9, 0.5), ("adam", 0.0, None)])
def test_optimizer_matches_hand_written_updates(optimizer, momentum, grad_clip):
    xs, ys = linear_data()
    split = make_split(xs, ys + 1.0)
    p0 = predictor.init_params([1, 1], seed=3)
    cfg = TrainConfig(mode="plain", lr=0.05, lr_step=5, lr_decay=0.7, epochs=3, batch_size=25, seed=2,
                      optimizer=optimizer, momentum=momentum, grad_clip=grad_clip)
    res = train(cfg, p0, [DC_AGENT], make_pool([DC_AGENT], [split]))
    expected, clipped = _reference_plain_updates(cfg, p0.values, split)
    assert len(res.step_log) == 12
    assert (clipped > 0) == (grad_clip is not None)
    assert np.allclose(res.params.values, expected, rtol=1e-12, atol=1e-14)
    assert not np.allclose(res.params.values, p0.values, rtol=0.0, atol=1e-3)


def test_clip_norm_is_bitwise_np_linalg_norm():
    rng = np.random.default_rng(8)
    grads = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) for n in (1, 2, 41, 337, 4097) for _ in range(4)]
    grads += [g * scale for g in grads[:8] for scale in (1e150, 3e151, 1e-160, 7e-161)]  # near overflow, subnormal squares
    with_zeros = rng.standard_normal(300)
    with_zeros[rng.uniform(size=300) < 0.5] = 0.0
    grads += [with_zeros, np.zeros(5), np.zeros(1), -np.zeros(3)]
    with np.errstate(over="ignore"):  # some squares overflow: both read inf
        for g in grads:
            assert training._norm(g).hex() == float(np.linalg.norm(g)).hex(), g


def _out_of_place_optimizer(config, theta):
    """The optimizer as new arrays each step: the formulas `training._optimizer` updates in place."""
    first = second = np.zeros_like(theta)
    def update(grad, t):
        nonlocal first, second, theta
        if config.grad_clip is not None:
            norm = float(np.linalg.norm(grad))
            if norm > config.grad_clip:
                grad = grad * (config.grad_clip / norm)
        lr_t = config.lr * config.lr_decay ** (t // config.lr_step)
        if config.optimizer == "sgd":
            first = config.momentum * first + grad
            theta = theta - lr_t * first
        else:
            first = 0.9 * first + 0.1 * grad
            second = 0.999 * second + 0.001 * grad**2
            m_hat = first / (1.0 - 0.9 ** (t + 1))
            v_hat = second / (1.0 - 0.999 ** (t + 1))
            theta = theta - lr_t * m_hat / (np.sqrt(v_hat) + 1e-8)
        return theta
    return update


@pytest.mark.parametrize("grad_clip", [None, 1.5])
@pytest.mark.parametrize("optimizer, momentum", [("adam", 0.0), ("sgd", 0.0), ("sgd", 0.9)])
def test_in_place_optimizer_is_bitwise_the_out_of_place_formulas(optimizer, momentum, grad_clip):
    rng = np.random.default_rng(5)
    config = TrainConfig(lr=0.03, lr_step=7, lr_decay=0.6, optimizer=optimizer, momentum=momentum,
                         grad_clip=grad_clip)
    theta = rng.standard_normal(41)
    reference = _out_of_place_optimizer(config, theta.copy())
    update = training._optimizer(config, theta)
    clipped = 0
    for t in range(50):
        grad = rng.standard_normal(41) * 10.0 ** rng.uniform(-3, 1)
        clipped += grad_clip is not None and np.linalg.norm(grad) > grad_clip
        expected = reference(grad.copy(), t)
        update(grad, t)
        assert np.array_equal(theta.view(np.uint64), expected.view(np.uint64)), t
    assert (clipped > 0) == (grad_clip is not None)


def test_divergence_guard_raises_with_step():
    xs, ys = linear_data()
    split = make_split(xs, ys)
    cfg = TrainConfig(mode="plain", lr=1e12, epochs=30, batch_size=25, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(cfg, predictor.init_params([1, 4, 1], seed=0), [DC_AGENT], make_pool([DC_AGENT], [split]))
    assert err.value.step is not None
    assert err.value.agent_id == 0


def test_non_finite_update_raises_divergence_with_step():
    # a finite gradient times lr=1e308 overflows theta itself; this used to
    # surface as a ValueError from the next step's parameter vector.  Targets
    # are normalized, features are not: large features make a large gradient
    xs, ys = linear_data()
    cfg = TrainConfig(mode="plain", lr=1e308, epochs=2, batch_size=25, seed=0)
    pool = make_pool([DC_AGENT], [make_split(100.0 * xs, ys)])
    with pytest.raises(DivergenceError, match="non-finite parameters") as err:
        train(cfg, predictor.init_params([1, 4, 1], seed=0), [DC_AGENT], pool)
    assert err.value.step == 0


def test_pg_step_matches_batch_op():
    # one pg step (single draw), reconstructed row by row: the summed
    # log-density gradients of the draws times the scalar batch loss
    xs, ys = linear_data(n=30, seed=11)
    split = make_split(xs, ys, train_frac=0.8)
    p0 = predictor.init_params([1, 1], seed=2)
    lr, std = 0.05, 0.3
    cfg = TrainConfig(mode="pg", q=1.0, lr=lr, std=std, epochs=1, batch_size=24, seed=13,
                      optimizer="sgd", pg_samples=1)
    res = train(cfg, p0, [DC_AGENT], make_pool([DC_AGENT], [split]))

    rng = np.random.default_rng(13)
    perm = rng.permutation(split.train_x.shape[0])
    sel = perm[:24]
    X = split.train_x[sel]
    eps = rng.standard_normal((1, 24, 1))
    scores = np.stack([row_score(p0, X[i], eps[0, i], std) for i in range(24)])
    raws = to_raw([split], predictor.forward_batch(p0, X) + std * eps[0])
    regrets = [regret(DC_AGENT, float(raws[i, 0]), float(split.train_y_raw[sel][i, 0]))
               for i in range(24)]
    loss = objective.equitable_loss([np.mean(regrets)], q=1.0)
    expected = p0.values - lr * scores.sum(axis=0) * loss
    assert np.allclose(res.params.values, expected, atol=1e-10)


def _three_agent_pool():
    """A charging agent, a data-center agent with a workload stream and one
    without, 8 training and 4 test rows each.  Both data-center agents read
    the mean of the three-output forecast window."""
    rng = np.random.default_rng(21)
    ev = AgentSpec(0, "charging", ChargingContext(0.2, 2.3, 1.0, 3))
    dc = AgentSpec(1, "datacenter", DataCenterContext(2.0, 3.0))
    dc_mean = AgentSpec(2, "datacenter", DataCenterContext(1.5, 8.0))
    ev_split = make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 3)))
    dc_split = make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 3)), ctx=rng.uniform(1.0, 4.0, 12))
    mean_split = make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 3)))
    return [ev, dc, dc_mean], [ev_split, dc_split, mean_split]


def _sample_regret(agent, split, raw, outcome, ctx):
    if agent.family == "charging":
        return regret(agent, raw, outcome)
    c_hat = raw.mean()  # a data-center agent reads the mean of the forecast window
    context = None if ctx is None else DataCenterContext(float(ctx), agent.context.latency_weight)
    return regret(agent, c_hat, outcome[0], context=context)


def _reference_pg_sgd(cfg, params, agents, splits):
    """SGD on the per-sample score-function estimate averaged over draws, drawing
    randomness in the trainer's order.

    A draw's estimate is the summed log-density gradients of its sampled rows
    times its batch loss minus its baseline.
    """
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
                    raws = to_raw(splits, sample)
                    ctxs = None if split.train_ctx is None else split.train_ctx[sel]
                    regrets.append([
                        _sample_regret(agent, split, raws[i], split.train_outcome[sel][i],
                                       None if ctxs is None else ctxs[i])
                        for i in range(len(sel))
                    ])
                    sq_errors.append(np.sum((sample - to_normalized(splits, split.train_y_raw[sel])) ** 2, axis=1))
                    scores.extend(row_score(params, split.train_x[sel][i], eps[m][d][i], std) for i in range(len(sel)))
                loss = (1.0 - cfg.beta) * objective.equitable_loss([np.mean(r) for r in regrets], cfg.q)
                loss += cfg.beta * float(np.sum([np.mean(e) for e in sq_errors]))
                draws.append((np.stack(scores), loss))
            losses = np.array([loss for _, loss in draws])
            if cfg.pg_baseline and n_draws > 1:
                bases = (losses.sum() - losses) / (n_draws - 1)
            else:
                bases = np.full(n_draws, 0.0 if ema is None or not cfg.pg_baseline else ema)
            grad = np.mean([scores.sum(axis=0) * (loss - base) for (scores, loss), base in zip(draws, bases)], axis=0)
            params = params.with_values(params.values - cfg.lr * grad)
            ema = losses.mean() if ema is None else 0.9 * ema + 0.1 * losses.mean()
    return params


@pytest.mark.parametrize(
    "pg_samples, epochs, batch_size, steps_per_epoch",
    [
        # leave-one-out baseline over draws; EMA baseline over steps; both
        # with b = 6 of 8 rows, hence one step per epoch
        pytest.param(4, 1, 6, 1, id="4-1"),
        pytest.param(1, 2, 6, 1, id="1-2"),
        # b = 2: four steps per epoch, each reading its own row of the
        # epoch's batch index
        pytest.param(3, 2, 2, 4, id="3-2-b2"),
    ],
)
def test_pg_step_at_acceptance_config_matches_batch_op(pg_samples, epochs, batch_size, steps_per_epoch):
    agents, splits = _three_agent_pool()
    p0 = predictor.init_params([2, 4, 3], seed=4)
    cfg = TrainConfig(mode="pg", q=1.0, beta=0.5, lr=0.05, lr_step=10**6, std=0.3, epochs=epochs,
                      batch_size=batch_size, seed=17, optimizer="sgd", pg_baseline=True, pg_samples=pg_samples)
    res = train(cfg, p0, agents, make_pool(agents, splits))
    assert len(res.step_log) == epochs * steps_per_epoch
    expected = _reference_pg_sgd(cfg, p0, agents, splits)
    assert np.allclose(res.params.values, expected.values, rtol=0.0, atol=1e-10)
    assert not np.allclose(res.params.values, p0.values, rtol=0.0, atol=1e-6)


def _chain_step(q=1.0, beta=0.5):
    """One SGD step (lr=1) in chain mode on a two-output model, whose mean
    is each agent's c_hat: a data-center agent with a workload stream and
    two without, 8 training rows each and a batch of 6.

    Returns the pool, the initial params, the config, the trained result and
    each agent's batch rows."""
    rng = np.random.default_rng(5)
    agents = [
        AgentSpec(0, "datacenter", DataCenterContext(2.0, 3.0)),
        AgentSpec(1, "datacenter", DataCenterContext(1.2, 0.8)),
        AgentSpec(2, "datacenter", DataCenterContext(1.5, 8.0)),
    ]
    splits = [
        make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 2)), ctx=rng.uniform(1.0, 4.0, 12)),
        make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 2))),
        make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 2))),
    ]
    p0 = predictor.init_params([2, 4, 2], seed=3)
    cfg = TrainConfig(mode="chain", q=q, beta=beta, lr=1.0, lr_step=10**6, epochs=1, batch_size=6,
                      seed=11, optimizer="sgd")
    res = train(cfg, p0, agents, make_pool(agents, splits))
    assert len(res.step_log) == 1
    perm_rng = np.random.default_rng(cfg.seed)
    sels = [perm_rng.permutation(len(s.train_x))[:6] for s in splits]
    return agents, splits, p0, cfg, res, sels


def test_chain_step_matches_finite_differences_of_batch_loss():
    agents, splits, p0, cfg, res, sels = _chain_step()
    grad = p0.values - res.params.values

    def batch_loss(values):
        params = p0.with_values(values)
        mean_regrets, mse = [], 0.0
        for agent, split, sel in zip(agents, splits, sels):
            preds = predictor.forward_batch(params, split.train_x[sel])
            raws = to_raw(splits, preds)
            ctxs = [None] * len(sel) if split.train_ctx is None else split.train_ctx[sel]
            mean_regrets.append(np.mean([
                _sample_regret(agent, split, raws[i], split.train_outcome[sel][i], ctxs[i])
                for i in range(len(sel))
            ]))
            mse += float(np.mean(np.sum((preds - to_normalized(splits, split.train_y_raw[sel])) ** 2, axis=1)))
        return (1.0 - cfg.beta) * objective.equitable_loss(mean_regrets, cfg.q) + cfg.beta * mse

    h = 1e-5
    fd = np.array([
        (batch_loss(p0.values + h * e) - batch_loss(p0.values - h * e)) / (2 * h)
        for e in np.eye(p0.values.size)
    ])
    assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6


# beta = 0 leaves the regret term alone in the cotangent; with beta > 0 an
# ulp of one term can vanish in the sum, so several blends cover both terms
@pytest.mark.parametrize("q, beta", [(1.0, 0.0), (2.0, 0.0), (0.5, 0.0), (1.0, 0.1), (2.0, 0.3),
                                     (0.5, 0.6), (3.0, 0.1), (1.5, 0.6), (1.0, 0.9)])
def test_chain_step_is_bitwise_the_per_row_repeat_cotangent(q, beta):
    # at b = 6, a / b and a * (1 / b) often round differently (at the
    # bench's b = 32 they never do), so this pins the float expression of
    # the step's per-agent weights: the reference spreads them to the rows
    # with np.repeat(weight, b) and reduces the agent means with reduceat
    agents, splits, p0, cfg, res, sels = _chain_step(q, beta)
    b = len(sels[0])
    X = np.concatenate([s.train_x[sel] for s, sel in zip(splits, sels)])
    Y = np.concatenate([to_normalized(splits, s.train_y_raw[sel]) for s, sel in zip(splits, sels)])
    preds, acts = predictor.forward_batch(p0, X, keep=True)
    c_hat, dchat, w, lam, c = [], [], [], [], []
    for agent, split, sel, p in zip(agents, splits, sels, np.split(preds, len(agents))):
        raw = to_raw(splits, p)
        # d c_hat / d output: the window mean spreads the target scale over both outputs
        c_hat.append(raw.mean(axis=1))
        dchat.append(np.full((len(sel), 2), target_stats(splits)[1] / 2))
        w.append(np.full(len(sel), agent.context.workload) if split.train_ctx is None else split.train_ctx[sel])
        lam.append(np.full(len(sel), agent.context.latency_weight))
        c.append(split.train_outcome[sel][:, 0])
    w, lam, c = np.concatenate(w), np.concatenate(lam), np.concatenate(c)
    values, dvalues = dc_regret_batch(w, lam, np.concatenate(c_hat), c, dc_optimal_batch(w, lam, c))
    slope = dvalues[:, None] * np.concatenate(dchat)
    rbar = np.clip(np.add.reduceat(values, np.arange(0, len(values), b)) / b, 0.0, None)
    weight = (1.0 - cfg.beta) * ((cfg.q + 1.0) * rbar**cfg.q / b)
    cots = np.zeros_like(preds)
    cots += np.repeat(weight, b)[:, None] * slope
    cots += cfg.beta * (2.0 / b) * (preds - Y)
    grad = predictor.vjp_batch(p0, X, cots, acts)
    assert np.array_equal(res.params.values, p0.values - cfg.lr * grad)


@pytest.mark.parametrize("mode", ["plain", "chain", "pg"])
def test_each_step_runs_one_forward_pass(mode, monkeypatch):
    # the backward pass reuses the step's forward activations, and the mode's
    # cotangent goes through the step's one vjp.  Each op is reached through
    # its module, where the benchmark's tracer wraps it: an op inlined into
    # the step would read 0 calls here, and 0 ms in a traced run.  The tracer
    # counts rows from positional arguments (1 of chain_grad and
    # ev_regret_batch, 2 of dc_regret_batch), which must hold the step's R,
    # D * R_ev and D * R_dc rows
    agents, splits = _three_agent_pool()
    if mode == "chain":  # chain needs data-center agents only
        agents, splits = agents[1:], splits[1:]
    ops = [(predictor, "forward_batch", None), (predictor, "vjp_batch", None), (objective, "chain_grad", 1),
           (objective, "equitable_loss", None), (objective, "pg_grad", None),
           (training, "ev_regret_batch", 1), (training, "dc_regret_batch", 2)]
    calls = {name: [] for _, name, _ in ops}
    for module, name, at in ops:
        real, log = getattr(module, name), calls[name]
        monkeypatch.setattr(module, name, lambda *a, log=log, real=real, at=at, **k:
                            log.append(at is not None and len(a[at])) or real(*a, **k))
    cfg = TrainConfig(mode=mode, q=1.0, beta=0.5, std=0.3, epochs=3, batch_size=4, seed=3, pg_samples=3)
    res = train(cfg, predictor.init_params([2, 4, 3], seed=5), agents, make_pool(agents, splits))
    steps = len(res.step_log)
    assert steps > 2
    per_step = {"forward_batch", "vjp_batch"} | {
        "plain": {"chain_grad"}, "chain": {"chain_grad", "equitable_loss", "dc_regret_batch"},
        "pg": {"pg_grad", "equitable_loss", "ev_regret_batch", "dc_regret_batch"}}[mode]
    assert {name: len(log) for name, log in calls.items()} == {name: steps * (name in per_step) for name in calls}
    n_ev = 4 * sum(a.family == "charging" for a in agents)  # b = 4 rows of each agent
    n_draws = 3 if mode == "pg" else 1
    rows = {"chain_grad": 4 * len(agents), "ev_regret_batch": n_draws * n_ev,
            "dc_regret_batch": n_draws * (4 * len(agents) - n_ev)}
    assert {name: set(calls[name]) for name in rows} == {name: {n} if calls[name] else set() for name, n in rows.items()}


def _charging_pool():
    """Charging agents only, with 1 to 4 of 4 slots and integer signals that tie; 6 training rows each."""
    rng = np.random.default_rng(31)
    agents = [AgentSpec(m, "charging", ChargingContext(0.0, 0.8 * (k - 0.5), 0.8, 4)) for m, k in enumerate(range(1, 5))]
    splits = [make_split(rng.uniform(-1, 1, (9, 2)), rng.integers(1, 4, (9, 4)).astype(float)) for _ in agents]
    return agents, splits


def _two_steps_of_regrets(rows, raws, steps):
    """Two steps' regrets, each scored from its views of one epoch's regret inputs.

    The ranking and its work arrays are reused, so the second call must
    leave the first call's result as it was.
    """
    inputs = rows.regret_inputs(steps)
    first = rows.regrets(raws[0], [a[0] for a in inputs])
    kept = first.copy()
    second = rows.regrets(raws[1], [a[1] for a in inputs])
    assert np.array_equal(first, kept)
    return first, second


def test_charging_regrets_match_per_sample_regret_across_calls():
    # two steps' draws scored by one pool's rows: the ranking and its work
    # arrays are reused, and neither call's result may change with the other
    agents, splits = _charging_pool()
    assert [required_slots(a.context) for a in agents] == [1, 2, 3, 4]
    n_draws, batch = 3, 3
    pool = make_pool(agents, splits)
    rows = _StackedRows(agents, pool, pool.train, batch, 4, n_draws=n_draws)
    assert rows.ev_rows == slice(None)
    rng = np.random.default_rng(32)
    perms = [rng.permutation(6) for _ in agents]
    steps = rows.epoch_index(perms, 2)
    raws = rng.integers(0, 3, size=(2, n_draws, steps.shape[1], 4)).astype(float)
    raws[rng.uniform(size=raws.shape) < 0.15] = np.nan
    raws[0, 0, :, :2] = np.inf, -np.inf
    assert np.isnan(raws).sum() > 10
    for k, values in enumerate(_two_steps_of_regrets(rows, raws, steps)):
        for d in range(n_draws):
            for r, m in enumerate(np.repeat(np.arange(len(agents)), batch)):
                realized = splits[m].train_outcome[perms[m][k * batch + r % batch]]
                assert values[d, r] == regret(agents[m], raws[k, d, r], realized)

    # a slot count outside 1..T is refused when the pool is built
    bad = AgentSpec(9, "charging", ChargingContext(0.0, 1e-14, 1.0, 4))
    assert required_slots(bad.context) == 0
    with pytest.raises(InfeasibleActionError, match="between 1 and 4"):
        make_pool(agents + [bad], splits + splits[:1])


def _mixed_pool(order):
    """`_charging_pool`'s chargers (agents 0-3) and two data-center agents (4, with a workload stream, and 5),
    listed in `order`; every agent has 6 training and 3 test rows, and every forecast has 4 values."""
    agents, splits = _charging_pool()
    rng = np.random.default_rng(33)
    agents += [AgentSpec(4, "datacenter", DataCenterContext(2.0, 3.0)),
               AgentSpec(5, "datacenter", DataCenterContext(1.5, 8.0))]
    splits += [make_split(rng.uniform(-1, 1, (9, 2)), rng.uniform(0.5, 3.0, (9, 4)), ctx=rng.uniform(1.0, 4.0, 9)),
               make_split(rng.uniform(-1, 1, (9, 2)), rng.uniform(0.5, 3.0, (9, 4)))]
    return [agents[m] for m in order], [splits[m] for m in order]


CONTIGUOUS, INTERLEAVED = (4, 5, 0, 1, 2, 3), (0, 4, 1, 2, 5, 3)


@pytest.mark.parametrize("order", [CONTIGUOUS, INTERLEAVED])
def test_mixed_regrets_match_per_sample_regret_across_calls(order):
    # each family's rows are addressed by a slice when they form one run (the
    # data-center agents listed first, as every built mixed pool lists them),
    # and by their index array otherwise; both score every sample exactly
    agents, splits = _mixed_pool(order)
    n_draws, batch = 3, 3
    pool = make_pool(agents, splits)
    rows = _StackedRows(agents, pool, pool.train, batch, 4, n_draws=n_draws)
    owner = np.repeat(np.arange(len(agents)), batch)
    charging = np.array([a.family == "charging" for a in agents])[owner]
    if order == CONTIGUOUS:
        assert (rows.ev_rows, rows.dc_rows) == (slice(6, 18), slice(0, 6))
    else:
        assert np.array_equal(rows.ev_rows, charging.nonzero()[0])
        assert np.array_equal(rows.dc_rows, (~charging).nonzero()[0])
    rng = np.random.default_rng(34)
    perms = [rng.permutation(6) for _ in agents]
    steps = rows.epoch_index(perms, 2)
    raws = rng.integers(0, 3, size=(2, n_draws, steps.shape[1], 4)).astype(float)
    raws[:, :, ~charging] = rng.uniform(-0.5, 3.0, size=raws[:, :, ~charging].shape)
    raws[(rng.uniform(size=raws.shape) < 0.15) & charging[:, None]] = np.nan
    raws[0, 0, charging, :2] = np.inf, -np.inf
    raws[1, 0, (~charging).nonzero()[0][:2]] = [[-1.0], [1e300]]  # the forecast floor and an absurd forecast
    assert np.isnan(raws).sum() > 10
    for k, values in enumerate(_two_steps_of_regrets(rows, raws, steps)):
        for d in range(n_draws):
            for r, m in enumerate(owner):
                i, split = perms[m][k * batch + r % batch], splits[m]
                ctx = None if split.train_ctx is None else split.train_ctx[i]
                assert values[d, r] == _sample_regret(agents[m], split, raws[k, d, r], split.train_outcome[i], ctx)


def test_pg_scores_each_step_with_one_charging_regret_call(monkeypatch):
    # the benchmark's per-layer counts read this binding: one call per step
    # over the D * R_ev forecast rows (positional argument 1), one in evaluate
    agents, splits = _charging_pool()
    calls = []
    real = training.ev_regret_batch
    monkeypatch.setattr(training, "ev_regret_batch", lambda *a: calls.append(len(a[1])) or real(*a))
    p0 = predictor.init_params([2, 3, 4], seed=1)
    cfg = TrainConfig(mode="pg", q=1.0, beta=0.5, std=0.3, epochs=1, batch_size=2, seed=4, pg_samples=5)
    res = train(cfg, p0, agents, make_pool(agents, splits))
    assert len(res.step_log) == 3
    assert calls == [5 * 2 * len(agents)] * 3
    calls.clear()
    evaluate(res.params, agents, make_pool(agents, splits))
    assert calls == [3 * len(agents)]


@pytest.mark.parametrize("order", [CONTIGUOUS, INTERLEAVED])
def test_pg_scores_each_step_of_a_mixed_pool_with_one_call_per_family(monkeypatch, order):
    # the benchmark's per-layer counts on its mixed pool read these bindings:
    # per step one charging call over the D * R_ev forecast rows (positional
    # argument 1) and one data-center call over the D * R_dc forecasts
    # (positional argument 2), and one of each in evaluate
    agents, splits = _mixed_pool(order)
    calls = {"ev_regret_batch": [], "dc_regret_batch": []}
    for name, at in (("ev_regret_batch", 1), ("dc_regret_batch", 2)):
        real, log = getattr(training, name), calls[name]
        monkeypatch.setattr(training, name, lambda *a, real=real, log=log, at=at: log.append(len(a[at])) or real(*a))
    p0 = predictor.init_params([2, 3, 4], seed=1)
    cfg = TrainConfig(mode="pg", q=1.0, beta=0.5, std=0.3, epochs=1, batch_size=2, seed=4, pg_samples=5)
    res = train(cfg, p0, agents, make_pool(agents, splits))
    assert len(res.step_log) == 3
    assert calls == {"ev_regret_batch": [5 * 2 * 4] * 3, "dc_regret_batch": [5 * 2 * 2] * 3}
    for log in calls.values():
        log.clear()
    evaluate(res.params, agents, make_pool(agents, splits))
    assert calls == {"ev_regret_batch": [3 * 4], "dc_regret_batch": [3 * 2]}


def test_non_positive_realized_intensity_is_refused_before_training():
    # the pool scores every row's hindsight once, when it is built, so a plain
    # run that never scores a decision is refused too
    agents, splits = _three_agent_pool()
    for part in ("train", "test"):
        outcome = getattr(splits[2], f"{part}_outcome").copy()
        outcome[1, 0] = 0.0
        broken = splits[:2] + [splits[2]._replace(**{f"{part}_outcome": outcome})]
        with pytest.raises(ConfigError, match=f"data-center agent 2, {part} split"):
            make_pool(agents, broken)


@pytest.mark.parametrize("call", ["plain", "pg", "evaluate"])
def test_agents_other_than_the_pools_are_refused(call):
    # the pool's hindsight costs are its own agents'; another agent's
    # decisions would be scored against them
    agents, splits = _three_agent_pool()
    pool = make_pool(agents, splits)
    other = replace(agents[1], context=DataCenterContext(2.0, 30.0))
    p0 = predictor.init_params([2, 4, 3], seed=5)
    for changed, message in (([agents[0], other, agents[2]], "agent 1 differs from the pool's agent 1"),
                             (agents[:2], "2 agents but 3 data splits")):
        with pytest.raises(ConfigError, match=message):
            if call == "evaluate":
                evaluate(p0, changed, pool)
            else:
                train(TrainConfig(mode=call, std=0.3, epochs=1, batch_size=4), p0, changed, pool)


def test_charging_horizon_must_match_model_outputs():
    # a 3-slot agent served by a 2-output model must be refused, not trained
    agents, splits = _three_agent_pool()
    p0 = predictor.init_params([2, 4, 2], seed=4)
    cfg = TrainConfig(mode="pg", std=0.3, epochs=1, batch_size=6, seed=17)
    with pytest.raises(ConfigError, match="horizon 3"):
        train(cfg, p0, agents, make_pool(agents, splits))
    with pytest.raises(ConfigError, match="horizon 3"):
        evaluate(p0, agents, make_pool(agents, splits))


@pytest.mark.parametrize("call", ["plain", "chain", "pg", "evaluate"])
def test_target_width_must_match_model_outputs(call):
    # one-value targets under a three-output model used to broadcast across
    # the outputs and train; evaluate then died in metrics.mse
    rng = np.random.default_rng(2)
    agents = [AgentSpec(m, "datacenter", DataCenterContext(2.0, 1.0 + m)) for m in range(3)]
    splits = [make_split(rng.uniform(-1, 1, (12, 2)), rng.uniform(0.5, 3.0, (12, 1))) for _ in agents]
    p0 = predictor.init_params([2, 4, 3], seed=1)
    with pytest.raises(ConfigError, match="agent 0 has 1 target values per row but the model emits 3"):
        if call == "evaluate":
            evaluate(p0, agents, make_pool(agents, splits))
        else:
            train(TrainConfig(mode=call, std=0.3, epochs=1, batch_size=4), p0, agents, make_pool(agents, splits))


def _first_rows(split, part, n):
    """`split` with only the first `n` rows of its `part` ("train" or "test")."""
    fields = (f"{part}_{f}" for f in ("x", "y_raw", "outcome", "ctx"))
    return split._replace(**{f: getattr(split, f)[:n] for f in fields if getattr(split, f) is not None})


@pytest.mark.parametrize("call", ["train", "evaluate"])
def test_pool_that_does_not_fit_is_refused(call):
    # the part a call reads is refused when the pool is built
    agents, splits = _three_agent_pool()
    part, prefix = ("training", "train") if call == "train" else ("test", "test")
    empty = [_first_rows(s, prefix, 0) for s in splits]

    with pytest.raises(ConfigError, match="3 agents but 2 data splits"):
        PoolData(agents, stack(agents[:2], splits[:2]))
    no_rows = Part(np.empty((0, 2)), np.empty((0, 3)), np.empty((0, 3)), np.empty(0), 0)
    with pytest.raises(ConfigError, match="empty agent pool"):
        PoolData([], PoolWindows(no_rows, no_rows))
    with pytest.raises(ConfigError, match=f"every agent has an empty {part} split"):
        make_pool(agents, empty)


@pytest.mark.parametrize("part", ["train", "test"])
def test_pool_whose_part_is_not_n_rows_per_agent_is_refused(part):
    # agent m owns rows m*n .. (m+1)*n - 1 of every array of a part; a part
    # of another shape would hand rows to the wrong agent
    agents, splits = _three_agent_pool()
    windows = stack(agents, splits)
    name = "training" if part == "train" else "test"
    got = getattr(windows, part)
    message = f"the {name} split's arrays must share one row count, n rows for each of 3 agents"
    for bad in (stack(agents, splits[:2] + [_first_rows(splits[2], part, -1)]),  # one agent a row short
                replace(windows, **{part: replace(got, workload=got.workload[:-3])})):  # one array an agent short
        with pytest.raises(ConfigError, match=message):
            PoolData(agents, bad)
    with pytest.raises(ConfigError, match="3 agents but 2 data splits"):
        PoolData(agents, replace(windows, **{part: replace(got, n_agents=2)}))


def test_evaluate_perfect_predictor():
    # targets equal a constant the model can represent exactly with zero weights
    split = make_split(np.zeros((40, 1)), np.full((40, 1), 2.0))
    params = predictor.init_params([1, 1], seed=0).with_values(np.zeros(2))
    summary = evaluate(params, [DC_AGENT], make_pool([DC_AGENT], [split]))
    assert summary.per_agent_regret[0] <= 1e-12
    assert summary.variance == 0.0
    assert summary.c95_minus_c5 == 0.0
    assert summary.entropy == pytest.approx(0.0)  # M=1: log(1)
    assert summary.mse <= 1e-20


def test_evaluate_deterministic():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, size=(50, 2))
    ys = rng.uniform(1, 2, size=(50, 1))
    split = make_split(xs, ys)
    params = predictor.init_params([2, 3, 1], seed=8)
    a = evaluate(params, [DC_AGENT], make_pool([DC_AGENT], [split]))
    b = evaluate(params, [DC_AGENT], make_pool([DC_AGENT], [split]))
    assert np.array_equal(a.per_agent_regret, b.per_agent_regret)
    assert a.as_dict() == b.as_dict()


def _lockstep_inputs(mode, pg_samples=1):
    """A pool, initial parameters and four configs that differ only in q and beta; q = 1e300 overflows in pg."""
    agents, splits = _mixed_pool(INTERLEAVED)
    if mode == "chain":
        agents, splits = zip(*[(a, s) for a, s in zip(agents, splits) if a.family == "datacenter"])
    base = TrainConfig(mode=mode, lr=0.05, epochs=3, batch_size=2, optimizer="adam", grad_clip=2.0,
                       pg_samples=pg_samples, pg_baseline=True, seed=5)
    configs = [replace(base, q=q, beta=beta) for q, beta in ((0.0, 0.0), (1e300, 0.0), (1.0, 0.5), (2.0, 1.0))]
    return list(agents), make_pool(list(agents), list(splits)), predictor.init_params([2, 5, 4], seed=3), configs


@pytest.mark.parametrize("mode, pg_samples", [("plain", 1), ("chain", 1), ("pg", 1), ("pg", 3)])
def test_runs_trained_together_are_bitwise_their_solo_runs(mode, pg_samples):
    # the runs share the rows, the RNG, every epoch's batches and each pg
    # step's draw, and keep their own parameters, optimizer, baseline (the
    # EMA at one draw) and step log; a run that diverges stops alone
    agents, pool, params, configs = _lockstep_inputs(mode, pg_samples)
    runs = train(configs, params, agents, pool)
    assert isinstance(runs, TrainRuns)
    results = runs.outcomes
    assert len(results) == len(configs)
    # the call's step log is every run's, a stopped run's too
    assert len(runs.step_log) == sum(9 if not isinstance(r, Exception) else r.step for r in results)
    for config, result in zip(configs, results):
        try:
            solo = train(config, params, agents, pool)
        except DivergenceError as exc:
            assert isinstance(result, DivergenceError)
            assert (str(result), result.step, result.agent_id) == (str(exc), exc.step, exc.agent_id)
            continue
        assert result.params.values.tobytes() == solo.params.values.tobytes()
        assert result.step_log == solo.step_log and len(solo.step_log) == 9
        assert repr(result.std) == repr(solo.std)
    if mode == "pg":  # the overflowing run stopped early, and its siblings trained on
        assert isinstance(results[1], DivergenceError) and results[1].step < 8
        assert sum(isinstance(r, DivergenceError) for r in results) == 1


@pytest.mark.parametrize("change", [
    {"epochs": 4}, {"batch_size": 3}, {"pg_samples": 2}, {"std": 0.5}, {"seed": 6}, {"mode": "plain"},
    {"lr": 0.01}, {"optimizer": "sgd"},
], ids=lambda change: next(iter(change)))
def test_runs_trained_together_may_differ_only_in_q_and_beta(change):
    agents, pool, params, configs = _lockstep_inputs("pg")
    with pytest.raises(ValueError, match="may differ only in q and beta"):
        train([configs[0], replace(configs[2], **change)], params, agents, pool)
    with pytest.raises(ValueError, match="at least one config"):
        train([], params, agents, pool)
