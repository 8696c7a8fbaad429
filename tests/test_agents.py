import itertools
import json

import numpy as np
import pytest

from equicast import agents
from equicast.agents import (
    AgentSpec,
    ChargingContext,
    DataCenterContext,
    SlotRanking,
    dc_act,
    dc_act_jacobian,
    dc_cost,
    dc_cost_grad_action,
    dc_optimal,
    dc_optimal_batch,
    dc_regret_batch,
    ev_act,
    ev_cost,
    ev_optimal,
    ev_optimal_batch,
    ev_regret_batch,
    regret,
    required_slots,
    row_sums,
)
from equicast.errors import ConfigError, InfeasibleActionError, SchemaError


def grid_search_dc(ctx, c, step=1e-4, width=10.0):
    ps = np.arange(ctx.workload + step, ctx.workload + width, step)
    costs = ps * c + ctx.latency_weight * ctx.workload / (ps - ctx.workload)
    i = int(np.argmin(costs))
    return float(ps[i]), float(costs[i])


def enumerate_ev(ctx, energy):
    best = None
    for combo in itertools.combinations(range(ctx.horizon), required_slots(ctx)):
        x = np.zeros(ctx.horizon, dtype=int)
        x[list(combo)] = 1
        cost = ev_cost(ctx, x, energy)
        if best is None or cost < best[1]:
            best = (x, cost)
    return best


# --- data-center family


def test_dc_cost_values():
    ctx = DataCenterContext(workload=1.0, latency_weight=1.0)
    assert dc_cost(ctx, 2.0, 1.0) == pytest.approx(3.0)
    ctx4 = DataCenterContext(workload=4.0, latency_weight=1.0)
    assert dc_cost(ctx4, 6.0, 1.0) == pytest.approx(8.0)


def test_dc_cost_infeasible_allocation():
    ctx = DataCenterContext(workload=1.0, latency_weight=1.0)
    with pytest.raises(InfeasibleActionError):
        dc_cost(ctx, 1.0, 1.0)


def test_scalar_oracles_refuse_inputs_outside_their_domain():
    dc = DataCenterContext(workload=1.0, latency_weight=1.0)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"intensity must be positive, got {c}"):
            dc_cost(dc, 2.0, c)
        with pytest.raises(ValueError, match=f"intensity must be positive, got {c}"):
            dc_optimal(dc, c)
    ev = ChargingContext(initial=0.0, demand=1.5, rate=1.0, horizon=3)
    for short in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="must have length 3"):
            ev_cost(ev, [1, 1, 0], short)
        with pytest.raises(ValueError, match="must have length 3"):
            ev_cost(ev, short, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="forecast must have length 3"):
            ev_act(ev, short)


def test_dc_act_matches_grid_search():
    for w, lam, c in ((1.0, 1.0, 1.0), (4.0, 1.0, 1.0), (2.5, 3.0, 0.7)):
        ctx = DataCenterContext(workload=w, latency_weight=lam)
        p_grid, _ = grid_search_dc(ctx, c)
        assert dc_act(ctx, c) == pytest.approx(p_grid, abs=1e-3)


def test_dc_act_clamps_bad_forecasts():
    ctx = DataCenterContext(workload=1.0, latency_weight=1.0)
    p = dc_act(ctx, -5.0)
    assert np.isfinite(p)
    assert p == pytest.approx(1.0 + np.sqrt(1.0 / 1e-6))


def test_dc_act_stays_feasible_for_huge_forecasts():
    # sqrt(lam*w/c) underflows for absurd forecasts; the policy must still
    # return p > w and a finite cost
    ctx = DataCenterContext(workload=5.0, latency_weight=2.0)
    for c_hat in (1e12, 1e300):
        p = dc_act(ctx, c_hat)
        assert p > ctx.workload
        assert np.isfinite(dc_cost(ctx, p, 1.5))
    spec = AgentSpec(0, "datacenter", ctx)
    assert np.isfinite(regret(spec, 1e300, 1.5))
    batch, _ = dc_regret_batch([5.0], [2.0], [1e300], [1.5], dc_optimal_batch([5.0], [2.0], [1.5]))
    assert batch[0] == pytest.approx(regret(spec, 1e300, 1.5), rel=1e-12)


def test_dc_act_jacobian_closed_form_and_clamp():
    ctx = DataCenterContext(workload=1.0, latency_weight=1.0)
    assert dc_act_jacobian(ctx, 1.0) == pytest.approx(-0.5)
    assert dc_act_jacobian(ctx, 1e-9) == 0.0
    assert dc_act_jacobian(ctx, -2.0) == 0.0


def test_dc_act_jacobian_finite_differences():
    ctx = DataCenterContext(workload=4.0, latency_weight=1.0)
    h = 1e-6
    for c_hat in (0.5, 1.0, 2.7):
        fd = (dc_act(ctx, c_hat + h) - dc_act(ctx, c_hat - h)) / (2 * h)
        jac = dc_act_jacobian(ctx, c_hat)
        assert abs(jac - fd) / abs(fd) < 1e-6


def test_dc_optimal_reference_points():
    assert dc_optimal(DataCenterContext(1.0, 1.0), 1.0) == pytest.approx((2.0, 3.0))
    assert dc_optimal(DataCenterContext(4.0, 1.0), 1.0) == pytest.approx((6.0, 8.0))


def test_dc_optimal_vs_grid_search_100_cases():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ctx = DataCenterContext(workload=float(rng.uniform(0.5, 4)), latency_weight=float(rng.uniform(0.5, 4)))
        c = float(rng.uniform(0.5, 4))
        _, cost_grid = grid_search_dc(ctx, c)
        _, cost_star = dc_optimal(ctx, c)
        assert cost_grid >= cost_star - 1e-12
        assert cost_grid - cost_star <= 1e-4


def test_dc_optimal_local_probe():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ctx = DataCenterContext(workload=float(rng.uniform(0.5, 4)), latency_weight=float(rng.uniform(0.5, 4)))
        c = float(rng.uniform(0.5, 4))
        p_star, cost_star = dc_optimal(ctx, c)
        assert dc_cost(ctx, p_star + 0.01, c) >= cost_star
        if p_star - 0.01 > ctx.workload:
            assert dc_cost(ctx, p_star - 0.01, c) >= cost_star


def test_dc_cost_grad_action_is_cost_derivative():
    ctx = DataCenterContext(workload=2.0, latency_weight=3.0)
    h = 1e-7
    for p in (2.5, 3.0, 6.0):
        fd = (dc_cost(ctx, p + h, 1.3) - dc_cost(ctx, p - h, 1.3)) / (2 * h)
        assert dc_cost_grad_action(ctx, p, 1.3) == pytest.approx(fd, rel=1e-5)


# --- charging family


def test_ev_cost_values():
    ctx = ChargingContext(initial=0.0, demand=3.9, rate=2.0, horizon=3)
    assert ev_cost(ctx, [1, 0, 1], [3.0, 1.0, 2.0]) == pytest.approx(10.0)
    assert ev_cost(ctx, [0, 0, 0], [3.0, 1.0, 2.0]) == 0.0
    ctx1 = ChargingContext(initial=0.0, demand=1.9, rate=1.0, horizon=3)
    assert ev_cost(ctx1, [0, 1, 1], [3.0, 1.0, 2.0]) == pytest.approx(3.0)


def test_ev_act_picks_cheapest_slots():
    ctx = ChargingContext(initial=0.0, demand=2.0, rate=1.0, horizon=3)
    assert list(ev_act(ctx, np.array([3.0, 1.0, 2.0]))) == [0, 1, 1]


def test_ev_act_full_horizon():
    ctx = ChargingContext(initial=0.0, demand=2.8, rate=1.0, horizon=3)
    assert list(ev_act(ctx, np.array([5.0, 1.0, 2.0]))) == [1, 1, 1]


def test_ev_act_tie_break_earliest():
    ctx = ChargingContext(initial=0.0, demand=2.0, rate=1.0, horizon=3)
    assert list(ev_act(ctx, np.array([1.0, 1.0, 1.0]))) == [1, 1, 0]


def test_ev_act_permutation_equivariance():
    rng = np.random.default_rng(3)
    ctx = ChargingContext(initial=0.0, demand=3.6, rate=1.0, horizon=6)
    e = rng.uniform(0.1, 2.0, size=6)
    base = ev_act(ctx, e)
    perm = rng.permutation(6)
    permuted = ev_act(ctx, e[perm])
    assert np.array_equal(permuted, base[perm])


def test_ev_optimal_reference_and_enumeration():
    ctx = ChargingContext(initial=0.0, demand=2.0, rate=1.0, horizon=3)
    sched, cost = ev_optimal(ctx, np.array([3.0, 1.0, 2.0]))
    assert list(sched) == [0, 1, 1] and cost == pytest.approx(3.0)

    rng = np.random.default_rng(4)
    for _ in range(25):
        horizon = 8
        k = int(rng.integers(1, horizon + 1))
        ctx = ChargingContext(initial=0.0, demand=(k - 0.5), rate=1.0, horizon=horizon)
        e = rng.uniform(0.1, 3.0, size=horizon)
        _, cost = ev_optimal(ctx, e)
        _, best = enumerate_ev(ctx, e)
        assert cost == best


def test_ev_constant_signal_cost():
    ctx = ChargingContext(initial=0.0, demand=2.5, rate=1.5, horizon=5)
    e = np.full(5, 1.7)
    _, cost = ev_optimal(ctx, e)
    assert cost == pytest.approx(required_slots(ctx) * 1.5 * 1.7)


def test_required_slots_and_feasibility():
    assert required_slots(ChargingContext(0.0, 2.0, 1.0, 4)) == 2
    assert required_slots(ChargingContext(1.0, 2.5, 1.0, 4)) == 2
    with pytest.raises(ConfigError):
        ChargingContext(initial=0.0, demand=9.5, rate=1.0, horizon=4)


# --- regret


def test_regret_perfect_prediction():
    dc = AgentSpec(0, "datacenter", DataCenterContext(2.0, 1.5))
    assert regret(dc, 1.3, 1.3) <= 1e-12
    ev = AgentSpec(1, "charging", ChargingContext(0.0, 2.4, 1.0, 4))
    e = np.array([1.0, 3.0, 0.5, 2.0])
    assert regret(ev, e, e) == 0.0


def test_regret_datacenter_hand_value():
    # w=1, lam=1, y=1, yhat=4: allocation 1.5, cost 3.5, optimum 3 -> regret 0.5
    dc = AgentSpec(0, "datacenter", DataCenterContext(1.0, 1.0))
    assert regret(dc, 4.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_regret_charging_hand_value():
    ev = AgentSpec(1, "charging", ChargingContext(0.0, 1.0, 1.0, 2))
    assert regret(ev, np.array([2.0, 1.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)


def test_regret_nonnegative_random():
    rng = np.random.default_rng(5)
    dc = AgentSpec(0, "datacenter", DataCenterContext(2.0, 5.0))
    for _ in range(200):
        r = regret(dc, float(rng.uniform(-1, 4)), float(rng.uniform(0.2, 4)))
        assert r >= 0.0
    ev = AgentSpec(1, "charging", ChargingContext(0.0, 3.3, 1.0, 6))
    for _ in range(200):
        r = regret(ev, rng.uniform(0, 3, size=6), rng.uniform(0.1, 3, size=6))
        assert r >= 0.0


def test_regret_below_tolerance_is_an_oracle_bug(monkeypatch):
    # an optimum that costs more than the action taken is an inconsistent oracle, not a clamped zero
    dc = AgentSpec(0, "datacenter", DataCenterContext(2.0, 1.5))
    ev = AgentSpec(1, "charging", ChargingContext(0.0, 2.4, 1.0, 4))
    e = np.array([1.0, 3.0, 0.5, 2.0])
    real_dc, real_ev = agents.dc_optimal, agents.ev_optimal
    monkeypatch.setattr(agents, "dc_optimal", lambda ctx, c: (real_dc(ctx, c)[0], real_dc(ctx, c)[1] + 1e-6))
    monkeypatch.setattr(agents, "ev_optimal", lambda ctx, y: (real_ev(ctx, y)[0], real_ev(ctx, y)[1] + 1e-6))
    for spec, y_hat, y in ((dc, 1.3, 1.3), (ev, e, e)):
        with pytest.raises(ValueError, match="decision oracle is inconsistent"):
            regret(spec, y_hat, y)
    # the batched ops check the `best` they are handed
    w, lam, c = np.array([2.0, 3.0]), np.array([1.5, 4.0]), np.array([1.3, 0.7])
    best = dc_optimal_batch(w, lam, c)
    assert np.all(dc_regret_batch(w, lam, c, c, best)[0] <= 1e-12)
    with pytest.raises(ValueError, match="below -1e-09"):
        dc_regret_batch(w, lam, c, c, best + 1e-6)
    ranking = SlotRanking([2, 3], [1.0, 2.0], 4)
    realized = np.array([e, e[::-1]])
    best = ev_optimal_batch(ranking, realized)
    assert np.all(ev_regret_batch(ranking, realized, realized, best) == 0.0)
    with pytest.raises(ValueError, match="below -1e-09"):
        ev_regret_batch(ranking, realized, realized, best + 1e-6)


def test_regret_batch_helpers_match_scalar_path():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.5, 5, size=100)
    lam = rng.uniform(0.5, 50, size=100)
    c_hat = rng.uniform(-0.5, 3, size=100)
    c_hat[:2] = 1e-6, 1.5e-6  # at the forecast floor and just above it
    c = rng.uniform(0.3, 3, size=100)
    batch, slope = dc_regret_batch(w, lam, c_hat, c, dc_optimal_batch(w, lam, c))
    assert np.sum(slope == 0.0) > 5
    for i in range(100):
        ctx = DataCenterContext(w[i], lam[i])
        spec = AgentSpec(0, "datacenter", ctx)
        assert batch[i] == pytest.approx(regret(spec, c_hat[i], c[i]), abs=1e-12)
        expected = dc_cost_grad_action(ctx, dc_act(ctx, c_hat[i]), c[i]) * dc_act_jacobian(ctx, c_hat[i])
        assert slope[i] == pytest.approx(expected, rel=1e-12, abs=0.0)

    ctx = ChargingContext(0.0, 4.3, 1.1, 8)
    spec = AgentSpec(1, "charging", ctx)
    eh = rng.uniform(0.1, 3, size=(50, 8))
    ee = rng.uniform(0.1, 3, size=(50, 8))
    ranking = SlotRanking(np.full(50, required_slots(ctx)), ctx.rate, 8)
    best = ev_optimal_batch(ranking, ee)
    batch = ev_regret_batch(ranking, eh, ee, best)
    for i in range(50):
        assert best[i] == ev_optimal(ctx, ee[i])[1]
        assert batch[i] == pytest.approx(regret(spec, eh[i], ee[i]), abs=1e-12)

    # several agents' (k, rate) in one call, three draws of forecasts per
    # realized row, and integer forecasts so rows tie at the k-th value
    specs = [
        AgentSpec(m, "charging", ChargingContext(0.1 * m, 0.1 * m + rate * (k - 0.5), rate, 8))
        for m, (k, rate) in enumerate([(1, 0.7), (3, 1.1), (4, 2.0), (7, 0.3), (8, 1.4)])
    ]
    owner = np.repeat(np.arange(len(specs)), 12)
    slots = [required_slots(specs[m].context) for m in owner]
    rates = [specs[m].context.rate for m in owner]
    realized = rng.integers(1, 4, size=(len(owner), 8)).astype(float)
    realized[::3] += rng.uniform(0, 0.5, size=(len(owner[::3]), 8))
    draws = rng.integers(0, 4, size=(3, len(owner), 8)).astype(float)
    draws[0, 5, 2] = np.nan  # ranks last, as in ev_act's stable argsort
    # rows 48.. have k = T = 8; rows 12.. k = 3, 24.. k = 4, 36.. k = 7
    draws[1, 49, :3] = np.inf, -np.inf, np.nan  # k = T with +-inf and NaN
    draws[2, 12:24] = np.arange(8.0)[::-1]  # no ties
    draws[2, 12, :2] = -np.inf, np.inf
    draws[2, 14, 0] = np.nan
    draws[1, 24:36] = [0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0]  # ties from the (k+1)-th value on, not at the k-th
    draws[1, 36] = [1.0, 2.0, 3.0, 4.0, 5.0, np.nan, np.nan, 0.0]  # NaN at the k-th sorted position
    draws[1, 37] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, np.nan, 0.0]  # NaN at the (k+1)-th
    draws[1, 38] = np.nan
    draws[2, 36] = [-np.inf, 0.0, -np.inf, 1.0, np.inf, -np.inf, 2.0, np.inf]  # k-th and (k+1)-th tie at +inf
    draws[2, 37] = [np.inf, -np.inf, 0.0, -np.inf, 1.0, -np.inf, 2.0, 3.0]  # -inf ties below the k-th
    best = ev_optimal_batch(SlotRanking(slots, rates, 8), realized)
    ranking = SlotRanking(slots, rates, 8, n_draws=3)
    batch = ev_regret_batch(ranking, draws.reshape(-1, 8), realized, best).reshape(3, -1)
    for i, m in enumerate(owner):
        assert best[i] == ev_optimal(specs[m].context, realized[i])[1]
    ties = following_ties = nan_at_k = 0
    for d in range(3):
        for i, m in enumerate(owner):
            row = draws[d, i]
            ordered = np.sort(row)
            ties += np.sum(row == ordered[slots[i] - 1]) > 1
            following_ties += slots[i] < 8 and ordered[slots[i]] == ordered[slots[i] - 1]
            nan_at_k += np.isnan(ordered[slots[i] - 1])
            assert batch[d, i] == regret(specs[m], row, realized[i])
    assert ties > 50 and following_ties > 50 and nan_at_k >= 3
    with pytest.raises(InfeasibleActionError):
        SlotRanking(np.full(len(owner), 9), 1.0, 8, n_draws=3)
    with pytest.raises(ValueError):
        ev_regret_batch(ranking, draws.reshape(-1, 8)[:-1], realized, best)
    with pytest.raises(ValueError):
        ev_optimal_batch(ranking, realized)  # a ranking of three blocks
    with pytest.raises(ValueError):
        ev_optimal_batch(SlotRanking(np.full(len(owner), 2), 1.0, 8), np.where(realized > 2, np.inf, realized))


def test_dc_optimal_batch_matches_scalar_optimum():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 5, size=40)
    lam = rng.uniform(0.5, 50, size=40)
    c = rng.uniform(0.01, 4, size=40)
    best = dc_optimal_batch(w, lam, c)
    for i in range(40):
        assert best[i] == dc_optimal(DataCenterContext(w[i], lam[i]), c[i])[1]
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            dc_optimal_batch(w[:3], lam[:3], [1.0, bad, 2.0])


def test_dc_regret_batch_scores_stacked_draws_like_single_blocks():
    # D blocks of B forecasts against B realized rows, as pg scores its draws
    rng = np.random.default_rng(9)
    n_rows, n_draws = 30, 4
    w = rng.uniform(0.5, 5, size=n_rows)
    lam = rng.uniform(0.5, 50, size=n_rows)
    c = rng.uniform(0.3, 3, size=n_rows)
    c_hat = rng.uniform(-0.5, 3, size=(n_draws, n_rows))
    c_hat[1, :2] = 1e-6, 1e300  # the floor and an absurd forecast
    best = dc_optimal_batch(w, lam, c)
    values, slopes = dc_regret_batch(w, lam, c_hat.ravel(), c, best)
    assert values.shape == slopes.shape == (n_draws * n_rows,)
    for d in range(n_draws):
        one_values, one_slopes = dc_regret_batch(w, lam, c_hat[d], c, best)
        assert np.array_equal(values[d * n_rows:(d + 1) * n_rows], one_values)
        assert np.array_equal(slopes[d * n_rows:(d + 1) * n_rows], one_slopes)
        for i in range(n_rows):
            spec = AgentSpec(0, "datacenter", DataCenterContext(w[i], lam[i]))
            assert one_values[i] == pytest.approx(regret(spec, c_hat[d, i], c[i]), abs=1e-12)
    with pytest.raises(ValueError, match="realized rows"):
        dc_regret_batch(w, lam, c_hat.ravel()[:-1], c, best)


def _rows_to_sum(rng, n_rows, width):
    """Rows whose entries span 16 orders of magnitude, one all -0.0, some with +-inf or NaN."""
    a = rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(-8, 8, size=(n_rows, width))
    a[1] = -0.0
    a[2, rng.integers(width)] = np.inf
    a[3, rng.integers(width)] = -np.inf
    a[4, rng.integers(width)] = np.nan
    a[5, rng.integers(width, size=2)] = np.inf, -np.inf
    return a


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_row_sums_is_numpys_sum_bit_for_bit():
    # row_sums copies numpy 2.4.6's pairwise summation order; a numpy that
    # sums in another order must fail here, not change results silently.
    # Widths 1..300 cross the 8-accumulator, 16 and 128 (split) boundaries.
    rng = np.random.default_rng(12)
    with np.errstate(invalid="ignore"):  # inf - inf
        _check_row_sums(rng)
    assert _bits(row_sums(np.full((2, 12), -0.0))).tolist() == [0, 0]  # +0.0, as numpy's


def _check_row_sums(rng):
    for width in range(1, 301):
        a = _rows_to_sum(rng, 12, width)
        for shaped in (a, a.reshape(3, 4, width)):
            assert np.array_equal(_bits(row_sums(shaped)), _bits(np.sum(shaped, axis=-1))), (width, shaped.shape)
        for row in a[:6]:
            assert _bits(row_sums(row)) == _bits(np.sum(row)), width


def _ev_optimal_np_sum(ranking, slots, e):
    """The hindsight cost the numpy way: ev_act's stable-argsort mask, then np.sum over the slots."""
    chosen = np.arange(e.shape[1]) < np.asarray(slots)[:, None]
    mask = np.empty(e.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(e, axis=1, kind="stable"), chosen, axis=1)
    return ranking.rate * np.sum(np.multiply(e, mask), axis=1)


@pytest.mark.parametrize("horizon", [5, 12, 20])
def test_charging_batch_ops_equal_the_np_sum_recipe_bit_for_bit(horizon):
    rng = np.random.default_rng(horizon)
    n_rows, n_draws = 40, 3
    slots = rng.integers(1, horizon + 1, size=n_rows)
    rates = rng.uniform(0.2, 3.0, size=n_rows)
    realized = rng.integers(1, 4, size=(n_rows, horizon)) * rng.uniform(0.1, 1e3, size=(n_rows, 1))
    forecasts = rng.integers(0, 4, size=(n_draws * n_rows, horizon)).astype(float)  # ties at the threshold
    forecasts[n_rows:] *= rng.uniform(1e-3, 1e3, size=(2 * n_rows, horizon))
    forecasts[::7, ::2] = np.nan  # NaN thresholds
    ranking = SlotRanking(slots, rates, horizon)
    best = ev_optimal_batch(ranking, realized)
    assert np.array_equal(_bits(best), _bits(_ev_optimal_np_sum(ranking, slots, realized)))
    drawn = SlotRanking(slots, rates, horizon, n_draws)
    # the cost of acting on each forecast, charged on its realized row
    mask = np.empty(forecasts.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(forecasts, axis=1, kind="stable"),
                      np.arange(horizon) < drawn.slots[:, None], axis=1)
    product = np.multiply(realized, mask.reshape(n_draws, n_rows, horizon))
    expected = np.clip((drawn.rate * np.sum(product, axis=2) - best).reshape(-1), 0.0, None)
    assert np.array_equal(_bits(ev_regret_batch(drawn, forecasts, realized, best)), _bits(expected))


def test_ev_regret_batch_refuses_slot_counts_outside_horizon():
    # the counts are checked once, when the ranking that both batched ops
    # take is built
    for slots in ([0, 0, 0, 0], [7, 7, 7, 7], [2, 2, 0, 2], [2, 7, 2, 2]):
        with pytest.raises(InfeasibleActionError, match="between 1 and 6"):
            SlotRanking(slots, 1.5, 6, n_draws=2)


# --- contexts and pool files


def test_context_validation():
    with pytest.raises(ConfigError):
        DataCenterContext(workload=0.0, latency_weight=1.0)
    with pytest.raises(ConfigError):
        DataCenterContext(workload=1.0, latency_weight=-2.0)
    with pytest.raises(ConfigError):
        ChargingContext(initial=2.0, demand=1.0, rate=1.0, horizon=3)
    with pytest.raises(ConfigError):
        AgentSpec(0, "windfarm", DataCenterContext(1.0, 1.0))
    with pytest.raises(ConfigError):
        AgentSpec(0, "charging", DataCenterContext(1.0, 1.0))


def test_agent_pool_roundtrip(tmp_path):
    pool = [
        AgentSpec(0, "datacenter", DataCenterContext(2.0, 3.0), data_ref="a.csv"),
        AgentSpec(1, "charging", ChargingContext(0.5, 3.0, 1.2, 6, 1.0, 0.3)),
    ]
    path = tmp_path / "agents.json"
    agents.save_agent_pool(path, pool)
    loaded = agents.load_agent_pool(path)
    assert loaded == pool


def test_agent_pool_rejects_unknown_fields(tmp_path):
    doc = {"agents": [{"agent_id": 0, "family": "datacenter",
                       "context": {"workload": 1.0, "latency_weight": 1.0, "color": "red"}}]}
    path = tmp_path / "agents.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        agents.load_agent_pool(path)


def test_agent_pool_rejects_invalid_context(tmp_path):
    doc = {"agents": [{"agent_id": 0, "family": "charging",
                       "context": {"initial": 5.0, "demand": 1.0, "rate": 1.0, "horizon": 3}}]}
    path = tmp_path / "agents.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        agents.load_agent_pool(path)
