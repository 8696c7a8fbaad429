import dataclasses
import re

import numpy as np
import pytest

from equicast import data, harness, training
from equicast.data import (
    SplitSpec, grid_components, load_series, load_workloads, synth_agents, synth_carbon, synth_charging, synth_mixed, window_split,
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


def read(path, kind):
    """Read a file of one kind with its reader: a carbon or an energy series, or workloads."""
    if kind == "workload":
        return load_workloads(path)
    return load_series(path, {"carbon": "carbon_intensity", "energy": "E"}[kind])


def test_load_carbon_csv(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,carbon_intensity\n0,1.5\n1,2.5\n2,2.0\n")
    ts, values = load_series(p, "carbon_intensity")
    assert np.array_equal(ts, [0, 1, 2])
    assert np.array_equal(values, [1.5, 2.5, 2.0])


def test_load_csv_skips_comment_header(tmp_path):
    p = write(tmp_path, "c.csv", "# config_hash=abc seed=0\ntimestamp,E\n0,1.0\n1,2.0\n")
    assert np.array_equal(load_series(p, "E")[1], [1.0, 2.0])


def test_load_csv_missing_column(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,intensity\n0,1.5\n")
    with pytest.raises(SchemaError, match="carbon_intensity"):
        load_series(p, "carbon_intensity")


def test_load_csv_non_numeric_cell_reports_line(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,carbon_intensity\n0,1.5\n1,oops\n")
    with pytest.raises(SchemaError, match=":3"):
        load_series(p, "carbon_intensity")


def test_load_csv_non_monotone_timestamps(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,carbon_intensity\n0,1.5\n0,2.0\n")
    with pytest.raises(SchemaError, match="increasing"):
        load_series(p, "carbon_intensity")


@pytest.mark.parametrize("schema, text, message", [
    ("carbon", "# a comment only\n\n", ": no header row found"),
    ("carbon", "timestamp,carbon_intensity\n# no rows follow\n", ": no data rows"),
    ("carbon", "timestamp,carbon_intensity\n0,1.5\n1,nan\n", ":3: column 'carbon_intensity' is not finite: 'nan'"),
    ("energy", "timestamp,E\n0,1.5\n1\n", ":3: row has no 'E' cell"),
    ("workload", "timestamp,agent_id,demand\n0,0,inf\n", ":2: column 'demand' is not finite: 'inf'"),
    ("workload", "timestamp,agent_id,demand\n1,0,1.0\n0,0,1.0\n", ": timestamps must be strictly increasing per agent"),
    ("workload", "timestamp,agent_id,demand\n0,0,1.0\n1,0,1.0\n0,1,1.0\n2,1,1.0\n",
     ": agent 1 does not cover the same timestamps as agent 0"),
    # a column read twice, and a row longer than the header, used to load
    ("energy", "# seed=1\ntimestamp,E,E\n0,1.0,2.0\n",
     ":2: header ['timestamp', 'E', 'E'] names column(s) ['E'] more than once"),
    ("workload", "timestamp,agent_id,demand,demand\n0,0,1.0,-1.0\n",
     ":1: header ['timestamp', 'agent_id', 'demand', 'demand'] names column(s) ['demand'] more than once"),
    ("energy", "timestamp,E\n0,1.0\n1,1.0,7\n", ":3: row has 3 cells but the header has 2"),
])
def test_load_csv_refusals_name_the_file(tmp_path, schema, text, message):
    p = write(tmp_path, "c.csv", text)
    with pytest.raises(SchemaError, match=re.escape(f"{p}{message}")):
        read(p, schema)


def test_load_csv_allows_a_repeated_column_it_does_not_read(tmp_path):
    p = write(tmp_path, "c.csv", "timestamp,E,note,note\n0,1.0,a,b\n1,2.0,c,d\n")
    assert np.array_equal(load_series(p, "E")[1], [1.0, 2.0])


def test_load_workload_csv(tmp_path):
    rows = ["timestamp,agent_id,demand"]
    for t in range(3):
        for a in range(2):
            rows.append(f"{t},{a},{1.0 + a + 0.1 * t}")
    p = write(tmp_path, "w.csv", "\n".join(rows) + "\n")
    ts, agent_ids, demands = load_workloads(p)
    assert np.array_equal(ts, [0, 1, 2]) and agent_ids == [0, 1]
    assert demands.shape == (2, 3)
    assert demands[1, 2] == pytest.approx(2.2)


def test_load_workload_rejects_nonpositive_demand(tmp_path):
    p = write(tmp_path, "w.csv", "timestamp,agent_id,demand\n0,0,0.0\n")
    with pytest.raises(SchemaError, match="positive"):
        load_workloads(p)


def test_csv_roundtrip_series(tmp_path):
    ts = np.arange(5)
    vals = np.array([1.0, 2.5, 0.3333333333333333, 4.0, 5.5])
    p = tmp_path / "s.csv"
    data.write_series_csv(p, ts, vals, "carbon_intensity", comment="seed=1")
    assert np.array_equal(load_series(p, "carbon_intensity")[1], vals)


# --- windowing


def window_pool(signal, targets, lookback, split, steps=1, outcomes=None, workloads=None):
    """`window_split` of a shared signal; outcomes default to the targets and workloads to zeros."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    outcomes = targets if outcomes is None else np.atleast_2d(outcomes)
    workloads = np.zeros(targets.shape) if workloads is None else np.atleast_2d(workloads)
    return window_split(signal, targets, outcomes, workloads, lookback, split, steps=steps)


def window_ids(part, lookback, offsets):
    """Each row's window index, read off targets whose agent-m series is t + offsets[m]."""
    return (part.y_raw[:, 0] - lookback - np.repeat(offsets, len(part.x) // part.n_agents)).astype(int)


def test_window_counting_minimal():
    signal = np.arange(13.0)
    ws = window_pool(signal, signal, lookback=12, split=SplitSpec(0.67, 0))
    assert len(ws.train.x) + len(ws.test.x) == 1


def test_window_split_is_frozen():
    signal = np.arange(30.0)
    ws = window_pool(signal, signal, lookback=3, split=SplitSpec(0.5, 0))
    # targets stay raw: the one target transform is the pool's, fitted to its agents
    assert not any(hasattr(ws.train, name) for name in ("y", "target_mean", "target_scale"))
    for value in (ws, ws.train, ws.test):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.predict_adapter = "window_mean"  # a setting nothing reads must not be accepted


def test_window_too_short_rejected():
    signal = np.arange(12.0)
    with pytest.raises(ValueError):
        window_pool(signal, signal, lookback=12, split=SplitSpec(0.67, 0))
    with pytest.raises(ValueError, match="1-D signal"):
        window_pool(signal, signal[:-1], lookback=3, split=SplitSpec(0.67, 0))


def test_window_contents_and_targets():
    signal = np.arange(20.0)
    ws = window_pool(signal, signal * 10, lookback=3, split=SplitSpec(0.5, 0, chronological=True), steps=2)
    # first window: features [0,1,2] z-scored by the 8 train windows, targets [30, 40]
    train_windows = np.array([signal[i : i + 3] for i in range(8)])
    assert len(ws.train.x) == 8
    assert np.allclose(ws.train.x[0], ([0, 1, 2] - train_windows.mean(axis=0)) / train_windows.std(axis=0))
    assert np.allclose(ws.train.y_raw[0], [30.0, 40.0])


def test_split_disjoint_and_covering():
    signal = np.sin(np.arange(60.0))
    ws = window_pool(signal, np.arange(60.0), lookback=5, split=SplitSpec(0.67, seed=4))
    train_ids, test_ids = (window_ids(p, 5, [0]) for p in (ws.train, ws.test))
    assert len(train_ids) + len(test_ids) == 60 - 5
    assert np.array_equal(np.sort(np.concatenate([train_ids, test_ids])), np.arange(55))
    # one permutation, not the time order
    assert not np.array_equal(train_ids, np.arange(len(train_ids)))


def test_chronological_split_keeps_test_after_train():
    signal = np.arange(40.0)
    ws = window_pool(signal, signal, lookback=4, split=SplitSpec(0.5, 0, chronological=True))
    assert np.all(np.diff(window_ids(ws.train, 4, [0])) == 1)
    # test targets all later than every train target
    assert ws.test.y_raw.min() > ws.train.y_raw.max()


def test_train_features_are_zscored():
    rng = np.random.default_rng(8)
    signal = rng.uniform(1, 5, size=300)
    ws = window_pool(signal, np.stack([signal, 2 * signal]), lookback=6, split=SplitSpec(0.67, seed=1))
    # every agent's rows are the same feature windows
    first, second = np.split(ws.train.x, 2)
    assert np.array_equal(first, second)
    assert np.max(np.abs(first.mean(axis=0))) < 1e-6
    assert np.max(np.abs(first.std(axis=0) - 1.0)) < 1e-6


def test_target_transform_roundtrip():
    # parts keep raw targets; the pool normalizes them once with its stats
    # and maps forecasts back with the same two scalars
    rng = np.random.default_rng(9)
    signal = rng.uniform(1, 5, size=100)
    ws = window_pool(signal, signal, lookback=4, split=SplitSpec(0.67, seed=2))
    agents, _ = synth_agents(1, seed=0, length=100)
    pool = training.PoolData(agents, ws)
    assert (pool.mean, pool.scale) == (float(ws.train.y_raw.mean()), float(ws.train.y_raw.std()))
    rows = training._StackedRows(agents, pool, pool.train, None, n_outputs=1)
    y = rows.normalized()
    assert abs(y.mean()) < 1e-12 and abs(y.std() - 1.0) < 1e-12
    assert np.allclose(rows.to_raw(y), ws.train.y_raw, atol=1e-12)


def test_context_and_outcome_alignment():
    signal = np.arange(30.0)
    ctx = 100 + np.arange(30.0)
    outcome = np.arange(30.0) * 2
    ws = window_pool(signal, signal, lookback=3, split=SplitSpec(0.5, 0, chronological=True), steps=2,
                     outcomes=outcome, workloads=ctx)
    # window i targets times i+3 and i+4; its workload must be ctx[i+3], its outcome [2(i+3), 2(i+4)]
    i = window_ids(ws.train, 3, [0])[0]
    assert ws.train.workload[0] == ctx[i + 3]
    assert np.array_equal(ws.train.outcome[0], [2 * (i + 3), 2 * (i + 4)])


@pytest.mark.parametrize("chronological", [False, True])
@pytest.mark.parametrize("steps, n_agents", [(3, 1), (1, 4)])
def test_windows_match_explicit_slices_and_copy_the_input(steps, n_agents, chronological):
    rng = np.random.default_rng(12)
    n, lookback = 40, 5
    signal = rng.uniform(1, 5, size=n)
    offsets = 1000.0 * np.arange(n_agents)
    targets = np.arange(n) + offsets[:, None]  # agent m's target at time t is t + 1000 m
    outcomes, workloads = rng.uniform(1, 5, size=(2, n_agents, n))
    series = (signal, targets, outcomes, workloads)
    ws = window_split(*series, lookback, SplitSpec(0.6, seed=3, chronological=chronological), steps=steps)
    n_windows = n - lookback - steps + 1
    train_ids = window_ids(ws.train, lookback, offsets)[: len(ws.train.x) // n_agents]
    windows = np.array([signal[i : i + lookback] for i in range(n_windows)])
    mean, std = windows[train_ids].mean(axis=0), windows[train_ids].std(axis=0)
    before = [np.copy(getattr(p, f.name)) for p in (ws.train, ws.test) for f in dataclasses.fields(p)]
    for part in (ws.train, ws.test):
        assert part.n_agents == n_agents
        owners = np.repeat(np.arange(n_agents), len(part.x) // n_agents)
        for row, (m, i) in enumerate(zip(owners, window_ids(part, lookback, offsets))):
            at = slice(i + lookback, i + lookback + steps)
            assert np.allclose(part.x[row], (windows[i] - mean) / std, rtol=0.0, atol=1e-12)
            assert np.array_equal(part.y_raw[row], targets[m, at])
            assert np.array_equal(part.outcome[row], outcomes[m, at])
            assert part.workload[row] == workloads[m, i + lookback]
    assert sum(len(p.x) for p in (ws.train, ws.test)) == n_agents * n_windows
    for s in series:
        s *= -1.0
    after = [getattr(p, f.name) for p in (ws.train, ws.test) for f in dataclasses.fields(p)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def _reference_window_split(features_series, target_series, lookback, split, target_steps=1, context_series=None,
                            outcome_series=None, outcome_steps=None):
    """One agent's windows, as the pool was once windowed agent by agent: a dict of its train_*/test_* arrays."""
    x_series = np.asarray(features_series, dtype=float)
    y_series = np.asarray(target_series, dtype=float)
    outcome_steps = target_steps if outcome_steps is None else outcome_steps
    n_windows = x_series.shape[0] - lookback - max(target_steps, outcome_steps) + 1

    def windows(series, first, width):
        return np.stack([series[first + i : first + i + width] for i in range(n_windows)])

    X, Y = windows(x_series, 0, lookback), windows(y_series, lookback, target_steps)
    outcome = Y if outcome_series is None else windows(np.asarray(outcome_series, dtype=float), lookback, outcome_steps)
    n_train = int(round(split.train_fraction * n_windows))
    n_train = min(max(n_train, 1), n_windows - 1) if n_windows > 1 else 1
    order = np.arange(n_windows) if split.chronological else np.random.default_rng(split.seed).permutation(n_windows)
    idx = {"train": np.sort(order[:n_train]), "test": np.sort(order[n_train:])}
    f_mean = X[idx["train"]].mean(axis=0)
    f_std = X[idx["train"]].std(axis=0)
    f_std = np.where(f_std < 1e-9, 1.0, f_std)
    out = {}
    for part, at in idx.items():
        out[f"{part}_x"] = (X[at] - f_mean) / f_std
        out[f"{part}_y_raw"] = Y[at]
        out[f"{part}_outcome"] = outcome[at]
        out[f"{part}_ctx"] = None if context_series is None else np.asarray(context_series, dtype=float)[lookback + at]
    return out


@pytest.mark.parametrize("seed", [0, 1, 9001])
@pytest.mark.parametrize("chronological", [False, True])
@pytest.mark.parametrize("pool", [
    dict(application="datacenter", n_agents=6),
    dict(application="charging", n_agents=8, predict_target="combined"),
    dict(application="charging", n_agents=8, predict_target="carbon"),
    dict(application="mixed", n_agents=9),
], ids=["datacenter", "charging", "carbon", "mixed"])
def test_pool_windows_equal_the_per_agent_reference_stacked(pool, chronological, seed):
    # the pool is windowed once for all its agents; agent by agent, then
    # stacked in agent order, gives bitwise the same rows and target stats
    config = harness.ExperimentConfig(**pool, heterogeneity="different", chronological=chronological, seed=seed)
    agents, ds = harness._synthesize(config, seed)
    steps = 1 if config.application == "datacenter" else config.horizon
    split = SplitSpec(config.train_fraction, seed=seed, chronological=chronological)
    refs = [
        _reference_window_split(
            ds.signal, ds.agent_targets[m], config.lookback, split, target_steps=steps,
            context_series=None if ds.workloads is None else ds.workloads[m],
            outcome_series=None if ds.outcome_targets is None else ds.outcome_targets[m],
            outcome_steps=1 if agent.family == "datacenter" else steps,
        )
        for m, agent in enumerate(agents)
    ]
    built = harness.build_pool(config, seed).splits
    for name, part in (("train", built.train.rows), ("test", built.test.rows)):
        def stacked(field):
            return np.concatenate([ref[f"{name}_{field}"] for ref in refs])
        n = len(part.x) // part.n_agents
        assert [len(ref[f"{name}_x"]) for ref in refs] == [n] * part.n_agents
        assert np.array_equal(part.x, stacked("x"))
        assert np.array_equal(part.y_raw, stacked("y_raw"))
        charging = np.repeat([a.family == "charging" for a in agents], n)
        # a data-center row reads the first step of its outcome window
        assert np.array_equal(part.outcome[:, 0], np.concatenate([ref[f"{name}_outcome"][:, 0] for ref in refs]))
        if charging.any():
            assert np.array_equal(part.outcome[charging], np.concatenate(
                [ref[f"{name}_outcome"] for ref, a in zip(refs, agents) if a.family == "charging"]))
        workloads = [
            ref[f"{name}_ctx"] if ref[f"{name}_ctx"] is not None and a.family == "datacenter"
            else np.full(len(ref[f"{name}_x"]), a.context.workload if a.family == "datacenter" else 0.0)
            for ref, a in zip(refs, agents)
        ]
        assert np.array_equal(part.workload[~charging], np.concatenate(workloads)[~charging])
    pooled = np.concatenate([ref["train_y_raw"].ravel() for ref in refs])
    assert (built.mean, built.scale) == (float(pooled.mean()), max(float(pooled.std()), 1e-9))
