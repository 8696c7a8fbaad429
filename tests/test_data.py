import dataclasses

import numpy as np
import pytest

from equicast import data, training
from equicast.data import (
    SplitSpec, grid_components, load_csv, synth_agents, synth_carbon, synth_charging, synth_mixed, window_split,
)
from equicast.agents import required_slots
from equicast.errors import ConfigError, SchemaError


# --- generators


def test_synth_carbon_deterministic():
    a = synth_carbon(200, seed=5)
    b = synth_carbon(200, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, synth_carbon(200, seed=6))


def test_synth_carbon_pure_sinusoid_when_noiseless():
    s = synth_carbon(48, seed=0, base=2.0, daily_amplitude=0.5, noise_std=0.0)
    t = np.arange(48)
    expected = np.clip(2.0 + 0.5 * np.sin(2 * np.pi * t / 24.0), 0.1, None)
    assert np.allclose(s, expected)


def test_synth_carbon_clamp_floor():
    s = synth_carbon(500, seed=1, base=1.0, daily_amplitude=2.0, noise_std=1.0)
    assert s.min() >= 0.05 * 1.0 - 1e-12


def test_synth_carbon_rejects_bad_base():
    with pytest.raises(ConfigError):
        synth_carbon(100, seed=0, base=0.0)


def test_synth_agents_lambda_schemes():
    agents, _ = synth_agents(5, lambda_scheme="same", seed=0, length=100)
    assert all(a.context.latency_weight == 2.0 for a in agents)
    agents, _ = synth_agents(50, lambda_scheme="grid", seed=0, length=100)
    lams = [a.context.latency_weight for a in agents]
    assert lams[0] == pytest.approx(2.0) and lams[-1] == pytest.approx(100.0)
    assert np.allclose(np.diff(lams), 2.0)


def test_synth_agents_deterministic_and_positive():
    a1, d1 = synth_agents(6, heterogeneity="different", seed=3, length=150)
    a2, d2 = synth_agents(6, heterogeneity="different", seed=3, length=150)
    assert a1 == a2
    assert np.array_equal(d1.workloads, d2.workloads)
    assert np.array_equal(d1.agent_targets, d2.agent_targets)
    assert d1.workloads.min() > 0
    assert d1.agent_targets.min() > 0


def test_synth_agents_workload_spread_order_of_magnitude():
    _, ds = synth_agents(12, heterogeneity="different", seed=0, length=400)
    spread = data.heterogeneity_summary(ds)["workloads"]
    assert spread["max"] / max(spread["min"], 1e-12) >= 10.0


def test_synth_charging_feasible_and_deterministic():
    a1, d1 = synth_charging(8, horizon=12, heterogeneity="different", seed=2, length=150)
    a2, _ = synth_charging(8, horizon=12, heterogeneity="different", seed=2, length=150)
    assert a1 == a2
    for spec in a1:
        assert 1 <= required_slots(spec.context) <= spec.context.horizon


def test_synth_charging_carbon_target_mode():
    agents, ds = synth_charging(4, horizon=6, seed=0, length=100, predict_target="carbon")
    # model targets collapse to the shared carbon stream; outcomes keep the mixes
    assert np.array_equal(ds.agent_targets[0], ds.agent_targets[3])
    assert ds.outcome_targets is not None
    assert not np.array_equal(ds.outcome_targets[0], ds.outcome_targets[3])


def test_synth_mixed_targets_and_outcomes():
    agents, ds = synth_mixed(7, horizon=5, seed=0, length=90)
    carbon, water, price = grid_components(90, 0)
    assert [a.agent_id for a in agents] == list(range(7))
    assert [a.family for a in agents] == ["datacenter"] * 2 + ["charging"] * 5
    # every agent forecasts carbon; a data center's outcome is carbon too,
    # a charger's its own mix (pure carbon for a device charger)
    assert np.array_equal(ds.signal, carbon)
    assert all(np.array_equal(t, carbon) for t in ds.agent_targets)
    for agent, outcome in zip(agents, ds.outcome_targets):
        ctx = agent.context
        mix = carbon if agent.family == "datacenter" else np.clip(
            carbon + ctx.water_weight * water + ctx.price_weight * price, 0.01, None)
        assert np.array_equal(outcome, mix)
    assert ds.workloads is None


def test_synth_mixed_needs_one_agent_of_each_kind():
    # two agents used to give a pool of three
    with pytest.raises(ConfigError, match="at least 3 agents"):
        synth_mixed(2)


# --- csv ingestion


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_carbon_csv(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,carbon_intensity\n0,1.5\n1,2.5\n2,2.0\n")
    ds = load_csv(p, "carbon")
    assert np.array_equal(ds.timestamps, [0, 1, 2])
    assert np.array_equal(ds.signal, [1.5, 2.5, 2.0])


def test_load_csv_skips_comment_header(tmp_path):
    p = write(tmp_path, "c.csv", "# config_hash=abc seed=0\ntimestamp,E\n0,1.0\n1,2.0\n")
    ds = load_csv(p, "energy")
    assert np.array_equal(ds.signal, [1.0, 2.0])


def test_load_csv_missing_column(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,intensity\n0,1.5\n")
    with pytest.raises(SchemaError, match="carbon_intensity"):
        load_csv(p, "carbon")


def test_load_csv_non_numeric_cell_reports_line(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,carbon_intensity\n0,1.5\n1,oops\n")
    with pytest.raises(SchemaError, match=":3"):
        load_csv(p, "carbon")


def test_load_csv_non_monotone_timestamps(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,carbon_intensity\n0,1.5\n0,2.0\n")
    with pytest.raises(SchemaError, match="increasing"):
        load_csv(p, "carbon")


def test_load_workload_csv(tmp_path):
    rows = ["timestamp,agent_id,demand"]
    for t in range(3):
        for a in range(2):
            rows.append(f"{t},{a},{1.0 + a + 0.1 * t}")
    p = write(tmp_path, "w.csv", "\n".join(rows) + "\n")
    ds = load_csv(p, "workload")
    assert ds.workloads.shape == (2, 3)
    assert ds.workloads[1, 2] == pytest.approx(2.2)


def test_load_workload_rejects_nonpositive_demand(tmp_path):
    p = write(tmp_path, "w.csv", "timestamp,agent_id,demand\n0,0,0.0\n")
    with pytest.raises(SchemaError, match="positive"):
        load_csv(p, "workload")


def test_load_csv_rejects_unknown_schema(tmp_path):
    # pools carry their charging contexts in agents.json; there is no charging CSV
    p = write(tmp_path, "ch.csv", "agent_id,initial,demand,rate,horizon\n0,0.0,2.5,1.0,4\n")
    with pytest.raises(SchemaError, match="unknown schema"):
        load_csv(p, "charging")


def test_csv_roundtrip_series(tmp_path):
    ts = np.arange(5)
    vals = np.array([1.0, 2.5, 0.3333333333333333, 4.0, 5.5])
    p = tmp_path / "s.csv"
    data.write_series_csv(p, ts, vals, "carbon_intensity", comment="seed=1")
    ds = load_csv(p, "carbon")
    assert np.array_equal(ds.signal, vals)


# --- windowing


def test_window_counting_minimal():
    signal = np.arange(13.0)
    ws = window_split(signal, signal, lookback=12, split=SplitSpec(0.67, 0), target_steps=1)
    assert ws.train_x.shape[0] + ws.test_x.shape[0] == 1


def test_window_split_is_frozen():
    signal = np.arange(30.0)
    ws = window_split(signal, signal, lookback=3, split=SplitSpec(0.5, 0))
    assert ws.train_outcome is ws.train_y_raw and ws.test_outcome is ws.test_y_raw
    # targets stay raw: the one target transform is the pool's, not the split's
    assert not any(hasattr(ws, name) for name in ("train_y", "test_y", "target_mean", "target_scale"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ws.predict_adapter = "window_mean"  # a setting nothing reads must not be accepted


def test_window_too_short_rejected():
    signal = np.arange(12.0)
    with pytest.raises(ValueError):
        window_split(signal, signal, lookback=12, split=SplitSpec(0.67, 0))


def test_window_contents_and_targets():
    signal = np.arange(20.0)
    ws = window_split(signal, signal * 10, lookback=3, split=SplitSpec(0.5, 0, chronological=True), target_steps=2)
    # first window: features [0,1,2], targets [30, 40]
    raw_x = ws.train_x[0] * ws.feature_std + ws.feature_mean
    assert np.allclose(raw_x, [0, 1, 2])
    assert np.allclose(ws.train_y_raw[0], [30.0, 40.0])


def test_split_disjoint_and_covering():
    signal = np.sin(np.arange(60.0))
    ws = window_split(signal, signal, lookback=5, split=SplitSpec(0.67, seed=4))
    n = ws.train_x.shape[0] + ws.test_x.shape[0]
    assert n == 60 - 5
    combined = np.sort(np.concatenate([ws.train_idx, ws.test_idx]))
    assert np.array_equal(combined, np.arange(n))


def test_chronological_split_keeps_test_after_train():
    signal = np.arange(40.0)
    ws = window_split(signal, signal, lookback=4, split=SplitSpec(0.5, 0, chronological=True))
    assert ws.train_idx.max() < ws.test_idx.min()
    # test targets all later than every train target
    assert ws.test_y_raw.min() > ws.train_y_raw.max()


def test_train_features_are_zscored():
    rng = np.random.default_rng(8)
    signal = rng.uniform(1, 5, size=300)
    ws = window_split(signal, signal, lookback=6, split=SplitSpec(0.67, seed=1))
    assert np.max(np.abs(ws.train_x.mean(axis=0))) < 1e-6
    assert np.max(np.abs(ws.train_x.std(axis=0) - 1.0)) < 1e-6


def test_target_transform_roundtrip():
    # splits keep raw targets; the trainer normalizes them once with the
    # pool's stats and maps forecasts back with the same two scalars
    rng = np.random.default_rng(9)
    signal = rng.uniform(1, 5, size=100)
    ws = window_split(signal, signal, lookback=4, split=SplitSpec(0.67, seed=2))
    agents, _ = synth_agents(1, seed=0, length=100)
    rows = training._StackedRows(agents, [ws], "train", None, n_outputs=1, scored=False)
    assert (rows.mean, rows.scale) == training.target_stats([ws])
    assert abs(rows.y.mean()) < 1e-12 and abs(rows.y.std() - 1.0) < 1e-12
    assert np.allclose(rows.to_raw(rows.y), ws.train_y_raw, atol=1e-12)


def test_context_and_outcome_alignment():
    signal = np.arange(30.0)
    ctx = 100 + np.arange(30.0)
    outcome = np.arange(30.0) * 2
    ws = window_split(signal, signal, lookback=3, split=SplitSpec(0.5, 0, chronological=True),
                      target_steps=1, context_series=ctx, outcome_series=outcome, outcome_steps=2)
    # window i targets time i+3; its context must be ctx[i+3], outcome [2(i+3), 2(i+4)]
    i = ws.train_idx[0]
    assert ws.train_ctx[0] == ctx[i + 3]
    assert np.allclose(ws.train_outcome[0], [2 * (i + 3), 2 * (i + 4)])


@pytest.mark.parametrize("chronological", [False, True])
@pytest.mark.parametrize("target_steps, outcome_steps", [(3, 1), (1, 4)])
def test_windows_match_explicit_slices_and_copy_the_input(target_steps, outcome_steps, chronological):
    rng = np.random.default_rng(12)
    n, lookback = 40, 5
    features = rng.uniform(1, 5, size=(n, 2))  # two feature columns
    target, ctx, outcome = rng.uniform(1, 5, size=(3, n))
    series = (features, target, ctx, outcome)
    ws = window_split(features, target, lookback, SplitSpec(0.6, seed=3, chronological=chronological),
                      target_steps=target_steps, context_series=ctx, outcome_series=outcome,
                      outcome_steps=outcome_steps)
    n_windows = n - lookback - max(target_steps, outcome_steps) + 1
    assert len(ws.train_idx) + len(ws.test_idx) == n_windows
    before = [np.copy(getattr(ws, f)) for f in vars(ws) if isinstance(getattr(ws, f), np.ndarray)]
    for part in ("train", "test"):
        for row, i in enumerate(getattr(ws, f"{part}_idx")):
            x = getattr(ws, f"{part}_x")[row] * ws.feature_std + ws.feature_mean
            assert np.allclose(x, features[i : i + lookback], rtol=0.0, atol=1e-12)
            assert np.array_equal(getattr(ws, f"{part}_y_raw")[row], target[i + lookback : i + lookback + target_steps])
            assert getattr(ws, f"{part}_ctx")[row] == ctx[i + lookback]
            assert np.array_equal(
                getattr(ws, f"{part}_outcome")[row], outcome[i + lookback : i + lookback + outcome_steps]
            )
    for s in series:
        s *= -1.0
    after = [getattr(ws, f) for f in vars(ws) if isinstance(getattr(ws, f), np.ndarray)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
