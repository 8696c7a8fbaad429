import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from equicast import harness, predictor, training
from equicast.agents import regret
from equicast.errors import ConfigError, DivergenceError, SchemaError
from equicast.harness import ExperimentConfig, build_pool, config_from_dict, config_hash, run_experiment
from equicast.training import TrainConfig, evaluate


def small_config(**kw):
    base = dict(application="datacenter", n_agents=3, heterogeneity="different",
                lambda_scheme="grid", length=80, lookback=6, hidden=4,
                train=TrainConfig(mode="plain", lr=0.05, epochs=2, batch_size=16))
    base.update(kw)
    return ExperimentConfig(**base)


def test_pool_shares_one_target_transform():
    # train and test rows of every agent go through the pool's one transform
    pool = build_pool(small_config(n_agents=4), seed=0)
    train_raw = pool.splits.train.rows.y_raw
    assert (pool.splits.mean, pool.splits.scale) == (float(train_raw.mean()), float(train_raw.std()))
    for part in (pool.splits.train, pool.splits.test):
        rows = training._StackedRows(pool.agents, pool.splits, part, None, pool.arch[-1])
        assert (rows.mean, rows.scale) == (pool.splits.mean, pool.splits.scale)
        assert np.allclose(rows.to_raw(rows.normalized()), part.rows.y_raw, atol=1e-12)


def test_pool_charging_shapes():
    cfg = small_config(application="charging", n_agents=3, horizon=5, length=90)
    pool = build_pool(cfg, seed=1)
    assert pool.arch == [6, 4, 5]
    for part in (pool.splits.train, pool.splits.test):
        assert part.rows.n_agents == 3
        assert part.rows.y_raw.shape[1] == 5
        assert part.rows.outcome.shape[1] == 5


def test_mixed_pool_structure():
    cfg = small_config(application="mixed", n_agents=7, horizon=5, length=90)
    pool = build_pool(cfg, seed=0)
    families = [a.family for a in pool.agents]
    assert families.count("datacenter") >= 1
    assert families.count("charging") >= 2
    # device chargers: zero mixing weights present in the pool
    charging = [a for a in pool.agents if a.family == "charging"]
    assert any(a.context.water_weight == 0.0 and a.context.price_weight == 0.0 for a in charging)
    assert any(a.context.water_weight > 0.0 for a in charging)
    assert pool.arch[-1] == 5
    # a data-center row's realized intensity is the next value of its outcome
    # series: with a chronological split, the test part's row j is window
    # n_train + j, whose first target step is lookback + n_train + j
    chrono = replace(cfg, chronological=True)
    _, ds = harness._synthesize(chrono, 0)
    chrono_pool = build_pool(chrono, seed=0).splits
    test, n_train = chrono_pool.test.rows, len(chrono_pool.train.rows.x) // len(pool.agents)
    for m, outcome in enumerate(np.split(test.outcome, len(pool.agents))):
        if pool.agents[m].family == "datacenter":
            first = chrono.lookback + n_train
            assert np.array_equal(outcome[:, 0], ds.outcome_targets[m][first : first + len(outcome)])
    # a data-center agent's regret is scored on the mean of its raw forecast window
    params = predictor.init_params(pool.arch, 0)
    data = pool.splits
    summary = evaluate(params, pool.agents, data)
    test_x, test_outcome = (np.split(a, len(pool.agents)) for a in (data.test.rows.x, data.test.rows.outcome))
    for m, agent in enumerate(pool.agents):
        if agent.family != "datacenter":
            continue
        raws = data.mean + data.scale * predictor.forward_batch(params, test_x[m])
        by_mean = np.mean([regret(agent, float(r.mean()), float(c[0])) for r, c in zip(raws, test_outcome[m])])
        by_first = np.mean([regret(agent, float(r[0]), float(c[0])) for r, c in zip(raws, test_outcome[m])])
        assert summary.per_agent_regret[m] == pytest.approx(by_mean, rel=1e-9)
        assert summary.per_agent_regret[m] != pytest.approx(by_first, rel=1e-6)


def test_run_experiment_deterministic():
    cfg = small_config()
    _, [(a, _)] = run_experiment(cfg, cfg.seed, [(cfg.train.q, cfg.train.beta)])
    _, [(b, _)] = run_experiment(cfg, cfg.seed, [(cfg.train.q, cfg.train.beta)])
    assert np.array_equal(a.per_agent_regret, b.per_agent_regret)
    assert a.as_dict() == b.as_dict()


def test_config_hash_tracks_content():
    cfg = small_config()
    assert config_hash(cfg) == config_hash(small_config())
    assert config_hash(cfg) != config_hash(small_config(seed=1))


def test_config_from_dict_round_trip():
    cfg = small_config(repeats=2, sweep_q_plus_1=(1.0, 2.0))
    rebuilt = config_from_dict(cfg.as_dict())
    assert rebuilt == cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(application="nuclear")
    with pytest.raises(ConfigError):
        ExperimentConfig(sweep_beta=(1.5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(sweep_q_plus_1=(0.5,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="sweep_q_plus_1"):
            ExperimentConfig(sweep_q_plus_1=(1.0, bad))
    with pytest.raises(ConfigError):
        config_from_dict({"n_agents": 0})
    for name in ("lookback", "horizon", "hidden", "length"):
        with pytest.raises(ConfigError, match="must all be >= 1"):
            ExperimentConfig(**{name: 0})


def test_sweep_counts_and_order():
    cfg = small_config(repeats=2, sweep_q_plus_1=(1.0, 2.0), sweep_beta=(0.0,))
    rows = harness.run_sweep(cfg)
    assert len(rows) == 4  # 2 q values x 1 beta x 2 repeats
    keys = [(r.q_plus_1, r.beta, r.seed) for r in rows]
    assert keys == [(1.0, 0.0, 0), (1.0, 0.0, 1), (2.0, 0.0, 0), (2.0, 0.0, 1)]
    assert all(r.status == "ok" for r in rows)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rows_are_bitwise_their_solo_runs(jobs):
    # a seed's cells train in one pass, sharing the pool, the RNG stream and
    # each pg step's draw; q+1 = 1e300 overflows the equitable loss at step
    # 0 (water_weight 50 makes a charger's regret exceed 1), and that run
    # fails alone
    cfg = small_config(application="mixed", n_agents=4, horizon=4, length=70, lookback=4, water_weight=50.0,
                       repeats=2, sweep_q_plus_1=(1.0, 2.0, 1e300), sweep_beta=(0.0, 0.5),
                       train=TrainConfig(mode="pg", lr=0.01, epochs=2, batch_size=8, optimizer="adam",
                                         pg_baseline=True, pg_samples=2))
    rows = harness.run_sweep(cfg, jobs=jobs)
    assert [(r.q_plus_1, r.beta, r.seed) for r in rows] == [
        (qp1, beta, seed) for qp1 in (1.0, 2.0, 1e300) for beta in (0.0, 0.5) for seed in (0, 1)
    ]
    for row in rows:
        _, [solo] = run_experiment(cfg, row.seed, [(row.q_plus_1 - 1.0, row.beta)])
        assert row.status == ("failed" if row.q_plus_1 == 1e300 else "ok")
        if row.status == "failed":
            assert isinstance(solo, DivergenceError) and "at step 0" in str(solo)
            assert row.error == f"DivergenceError: {solo}"
            continue
        summary, _ = solo
        assert row.summary.per_agent_regret.tobytes() == summary.per_agent_regret.tobytes()
        assert json.dumps(row.summary.as_dict()) == json.dumps(summary.as_dict())


def test_generate_then_load_pool_matches_memory(tmp_path):
    # a pool trains the same from its files as from memory: bitwise equal
    # splits, stats and arch ("carbon" and "mixed" also write outcome files)
    for name, cfg in (
        ("datacenter", small_config(n_agents=2)),
        ("charging", small_config(application="charging", n_agents=3, horizon=5, length=90)),
        ("carbon", small_config(application="charging", n_agents=3, horizon=5, length=90, predict_target="carbon")),
        ("mixed", small_config(application="mixed", n_agents=7, horizon=5, length=90)),
    ):
        harness.generate_files(cfg, tmp_path / name)
        loaded = harness.load_pool(tmp_path / name, cfg, seed=cfg.seed)
        assert len(loaded.splits.agents) == cfg.n_agents, name
        assert_same_pool(loaded, build_pool(cfg, seed=cfg.seed))


def assert_same_pool(loaded, mem):
    assert loaded.arch == mem.arch
    assert (loaded.splits.mean, loaded.splits.scale) == (mem.splits.mean, mem.splits.scale)
    for a, b in ((loaded.splits.train, mem.splits.train), (loaded.splits.test, mem.splits.test)):
        assert np.array_equal(a.best, b.best)
        for field in dataclasses.fields(a.rows):
            assert np.array_equal(getattr(a.rows, field.name), getattr(b.rows, field.name)), field.name
    assert [(a.family, a.context) for a in loaded.agents] == [(a.family, a.context) for a in mem.agents]


@pytest.fixture
def datacenter_files(tmp_path):
    cfg = small_config()
    harness.generate_files(cfg, tmp_path)
    return cfg, tmp_path


@pytest.mark.parametrize("override, message", [
    ({"application": "charging"}, "names application 'datacenter'"),  # used to train the files' pool silently
    ({"application": "mixed"}, "names application 'datacenter'"),
    ({"n_agents": 7}, "has 3 agents"),
    # the synthesis fields: these trained the files' pool silently
    ({"length": 500}, "records length 80 but the config's length is 500"),
    ({"heterogeneity": "similar"}, "records heterogeneity 'different'"),
    ({"lambda_scheme": "same"}, "records lambda_scheme 'grid'"),
    ({"water_weight": 2.0}, "records water_weight 1.0"),
    ({"price_weight": 0.0}, "records price_weight 1.0"),
    ({"predict_target": "carbon"}, "records predict_target 'combined'"),
])
def test_load_pool_refuses_files_of_another_pool(tmp_path, override, message):
    # a synthesis field is compared where the files' generator reads it: the
    # mixing weights and predict_target only in a charging pool
    charging_only = {"water_weight", "price_weight", "predict_target"} & set(override)
    cfg = small_config(application="charging" if charging_only else "datacenter")
    harness.generate_files(cfg, tmp_path)
    with pytest.raises(ConfigError, match=message):
        build_pool(replace(cfg, data_dir=str(tmp_path), **override), seed=0)


# the rows above build data-center or charging files; these compare horizon,
# and the fields of a mixed pool's files
@pytest.mark.parametrize("application, override, message", [
    ("charging", {"horizon": 4}, "records horizon 12 but the config's horizon is 4"),
    ("mixed", {"lambda_scheme": "same"}, "records lambda_scheme 'grid'"),
    ("mixed", {"water_weight": 2.0}, "records water_weight 1.0"),
])
def test_load_pool_refuses_charging_and_mixed_files_of_another_pool(tmp_path, application, override, message):
    cfg = small_config(application=application)
    harness.generate_files(cfg, tmp_path)
    with pytest.raises(ConfigError, match=message):
        build_pool(replace(cfg, data_dir=str(tmp_path), **override), seed=0)


@pytest.mark.parametrize("application, unread, read", [
    ("datacenter", {"horizon": 4, "water_weight": 2.0, "price_weight": 0.0, "predict_target": "carbon"},
     {"heterogeneity": "similar"}),
    ("charging", {"lambda_scheme": "same"}, {"horizon": 4, "predict_target": "carbon"}),
    # a mixed data_dir used to refuse a config that differed only here
    ("mixed", {"heterogeneity": "similar", "predict_target": "carbon"}, {"horizon": 4, "lambda_scheme": "same"}),
])
def test_load_pool_compares_only_the_fields_its_generator_reads(tmp_path, application, unread, read):
    cfg = small_config(application=application, horizon=5, length=90)
    harness.generate_files(cfg, tmp_path)
    other = replace(cfg, **unread)
    assert_same_pool(build_pool(replace(other, data_dir=str(tmp_path)), seed=0), build_pool(other, seed=0))
    for name, value in read.items():
        with pytest.raises(ConfigError, match=f"records {name} {getattr(cfg, name)!r}"):
            build_pool(replace(cfg, data_dir=str(tmp_path), **{name: value}), seed=0)


def test_load_pool_refuses_files_without_application(datacenter_files):
    cfg, data_dir = datacenter_files
    meta = json.loads((data_dir / "meta.json").read_text())
    del meta["application"]
    (data_dir / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="names application None"):
        build_pool(replace(cfg, data_dir=str(data_dir)), seed=0)


@pytest.mark.parametrize("application, name", [
    ("datacenter", "target_m001.csv"),  # used to die with a raw ValueError
    ("datacenter", "workloads.csv"),
    ("charging", "outcome_m002.csv"),
])
def test_load_pool_refuses_files_shorter_than_the_signal(tmp_path, application, name):
    cfg = small_config(application=application, horizon=5, predict_target="carbon", data_dir=str(tmp_path))
    harness.generate_files(cfg, tmp_path)
    path = tmp_path / name  # drop the last 5 of 80 timestamps (every agent's, in workloads.csv)
    lines = [line for line in path.read_text().splitlines() if not (line[:1].isdigit() and int(line.split(",")[0]) >= 75)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=name):
        build_pool(cfg, seed=0)


@pytest.mark.parametrize("application, name", [
    ("datacenter", "target_m001.csv"),  # used to train on the mislabelled rows
    ("datacenter", "workloads.csv"),
    ("charging", "outcome_m002.csv"),
])
def test_load_pool_refuses_files_with_other_timestamps(tmp_path, application, name):
    cfg = small_config(application=application, horizon=5, predict_target="carbon", data_dir=str(tmp_path))
    harness.generate_files(cfg, tmp_path)
    path = tmp_path / name  # double every timestamp (every agent's, in workloads.csv)
    lines = [f"{2 * int(line.split(',')[0])},{line.split(',', 1)[1]}" if line[:1].isdigit() else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=f"{name} has timestamp 2 at data row 2 where signal.csv has 1"):
        build_pool(cfg, seed=0)


@pytest.mark.parametrize("heterogeneity", ["similar", "different"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_context_workloads_are_their_rows_medians(tmp_path, seed, heterogeneity):
    # `load_pool` refuses a data-center agent whose context workload differs
    # from the median of its workloads.csv row, so `generate` must write it
    cfg = small_config(heterogeneity=heterogeneity, seed=seed)
    harness.generate_files(cfg, tmp_path)
    build_pool(replace(cfg, data_dir=str(tmp_path)), seed=seed)


def test_load_pool_refuses_workloads_of_another_pool(datacenter_files):
    cfg, data_dir = datacenter_files
    path = data_dir / "workloads.csv"
    lines = [line for line in path.read_text().splitlines() if not (line[:1].isdigit() and line.split(",")[1] == "2")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="workloads.csv has 2 agents but agents.json has 3"):
        build_pool(replace(cfg, data_dir=str(data_dir)), seed=0)
