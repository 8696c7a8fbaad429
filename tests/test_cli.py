import json

import pytest

from equicast import cli, harness, predictor, verify
from equicast.errors import ConfigError
from equicast.harness import config_from_dict


def tiny_config(**overrides):
    doc = {
        "application": "datacenter",
        "n_agents": 3,
        "heterogeneity": "different",
        "lambda_scheme": "grid",
        "length": 80,
        "lookback": 6,
        "hidden": 4,
        "seed": 0,
        "train": {"mode": "plain", "lr": 0.05, "epochs": 2, "batch_size": 16},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_json_and_toml_agree(tmp_path):
    doc = tiny_config()
    json_path = write_config(tmp_path, doc)
    toml_lines = [
        'application = "datacenter"', "n_agents = 3", 'heterogeneity = "different"',
        'lambda_scheme = "grid"', "length = 80", "lookback = 6", "hidden = 4", "seed = 0",
        "[train]", 'mode = "plain"', "lr = 0.05", "epochs = 2", "batch_size = 16",
    ]
    toml_path = tmp_path / "config.toml"
    toml_path.write_text("\n".join(toml_lines) + "\n")
    assert cli.load_config(json_path) == cli.load_config(toml_path)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"applicaton": "datacenter"})
    with pytest.raises(ConfigError, match="unknown train config"):
        config_from_dict({"train": {"learning_rate": 0.1}})


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1


def test_generate_writes_pool_files(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "agents.json").exists()
    assert (out / "signal.csv").exists()
    assert (out / "workloads.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["application"] == "datacenter"
    assert "config_hash" in meta and "heterogeneity_summary" in meta
    pool = json.loads((out / "agents.json").read_text())
    assert len(pool["agents"]) == 3


def test_generate_agent_counts_scale(tmp_path):
    dc = write_config(tmp_path, tiny_config(n_agents=50, length=40, lookback=4), "dc.json")
    out = tmp_path / "dc"
    assert cli.main(["generate", "--config", dc, "--out", str(out)]) == 0
    assert len(json.loads((out / "agents.json").read_text())["agents"]) == 50

    ev = write_config(
        tmp_path,
        tiny_config(application="charging", n_agents=70, length=40, lookback=4, horizon=6),
        "ev.json",
    )
    out = tmp_path / "ev"
    assert cli.main(["generate", "--config", ev, "--out", str(out)]) == 0
    assert len(json.loads((out / "agents.json").read_text())["agents"]) == 70


def test_generate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["generate", "--config", cfg, "--out", str(out_a)])
    cli.main(["generate", "--config", cfg, "--out", str(out_b)])
    for name in ("agents.json", "signal.csv", "workloads.csv", "target_m001.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_emits_outputs_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    assert cli.main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    summary = json.loads((out_a / "summary.json").read_text())
    for key in ("variance", "mean", "c95_minus_c5", "mse", "entropy"):
        assert key in summary["summary"]
    assert summary["config_hash"] == harness.config_hash(cli.load_config(cfg))
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
    # the step log's squared error is in normalized units, unlike summary.json's mse
    assert (out_a / "steps.csv").read_text().splitlines()[1] == "step,lr,equitable,mse_norm,combined"
    params, meta = predictor.load_checkpoint(out_a / "checkpoint.json")
    assert params.values.size > 0 and meta["lookback"] == 6


def test_train_on_generated_files_roundtrip(tmp_path):
    cfg_doc = tiny_config()
    cfg = write_config(tmp_path, cfg_doc)
    data_dir = tmp_path / "data"
    cli.main(["generate", "--config", cfg, "--out", str(data_dir)])

    cfg_doc["data_dir"] = str(data_dir)
    cfg_file = write_config(tmp_path, cfg_doc, "config_files.json")
    out = tmp_path / "run_files"
    assert cli.main(["train", "--config", cfg_file, "--out", str(out)]) == 0
    # in-memory pool and file-loaded pool give the same summary
    out_mem = tmp_path / "run_mem"
    cli.main(["train", "--config", cfg, "--out", str(out_mem)])
    mem = json.loads((out_mem / "summary.json").read_text())["summary"]
    files = json.loads((out / "summary.json").read_text())["summary"]
    assert mem["per_agent_regret"] == pytest.approx(files["per_agent_regret"], rel=1e-9)


def test_train_charging_and_mixed(tmp_path):
    ev = write_config(
        tmp_path,
        tiny_config(application="charging", n_agents=4, horizon=6, length=90,
                    train={"mode": "pg", "lr": 0.01, "epochs": 2, "batch_size": 16,
                           "pg_samples": 2, "std": 0.3}),
        "ev.json",
    )
    assert cli.main(["train", "--config", ev, "--out", str(tmp_path / "ev_run")]) == 0
    mixed = write_config(
        tmp_path,
        tiny_config(application="mixed", n_agents=6, horizon=6, length=90,
                    train={"mode": "pg", "lr": 0.01, "epochs": 2, "batch_size": 16,
                           "pg_samples": 2, "std": 0.3}),
        "mixed.json",
    )
    assert cli.main(["train", "--config", mixed, "--out", str(tmp_path / "mx_run")]) == 0


def test_evaluate_uses_checkpoint(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    cli.main(["train", "--config", cfg, "--out", str(run)])
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(out)])
    assert rc == 0
    trained = json.loads((run / "summary.json").read_text())["summary"]
    evaluated = json.loads((out / "summary.json").read_text())["summary"]
    assert trained["per_agent_regret"] == pytest.approx(evaluated["per_agent_regret"], rel=1e-12)


@pytest.mark.parametrize("override, message", [
    ({"hidden": 5}, "layer sizes [6, 4, 1]"),  # used to evaluate silently
    ({"lookback": 8}, "lookback 6"),  # used to die with a raw ValueError
])
def test_evaluate_refuses_mismatched_checkpoint(tmp_path, capsys, override, message):
    run = tmp_path / "run"
    cli.main(["train", "--config", write_config(tmp_path, tiny_config()), "--out", str(run)])
    cfg = write_config(tmp_path, tiny_config(**override), name="other.json")
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_evaluate_refuses_other_pools_target_stats(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    meta = json.loads((run / "checkpoint.json").read_text())["extra"]
    assert {"target_mean", "target_scale"} <= set(meta)
    # another seed synthesizes another pool; its stats used to de-normalize silently
    rc = cli.main(["evaluate", "--config", cfg, "--seed", "1", "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert "checkpoint target_mean" in capsys.readouterr().err


def test_evaluate_accepts_checkpoint_without_target_stats(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    doc = json.loads((run / "checkpoint.json").read_text())
    for key in ("target_mean", "target_scale"):
        del doc["extra"][key]
    (run / "checkpoint.json").write_text(json.dumps(doc))
    rc = cli.main(["evaluate", "--config", cfg, "--checkpoint", str(run / "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 0


def test_divergence_exits_2(tmp_path):
    doc = tiny_config(train={"mode": "plain", "lr": 1e12, "epochs": 10, "batch_size": 16})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_sweep_rows_and_regret_files(tmp_path):
    doc = tiny_config(repeats=3, sweep_q_plus_1=[1, 2, 5], sweep_beta=[0.0])
    doc["train"].update({"mode": "pg", "pg_samples": 2, "std": 0.3, "lr": 0.01,
                         "optimizer": "adam", "grad_clip": 5.0, "pg_baseline": True})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "q_plus_1,beta,seed,variance,mean,c95_minus_c5,mse,status"
    rows = lines[2:]
    assert len(rows) == 9  # 3 q values x 1 beta x 3 repeats
    regret_files = sorted(out.glob("regrets_*.csv"))
    assert len(regret_files) == 9
    body = regret_files[0].read_text().splitlines()
    assert body[1] == "agent_id,mean_regret"
    assert len(body) == 2 + 3  # comment + header + one row per agent


def test_sweep_records_failures_and_continues(tmp_path, monkeypatch):
    doc = tiny_config(repeats=1, sweep_q_plus_1=[1, 2], sweep_beta=[0.0])
    cfg = write_config(tmp_path, doc)

    real = harness.run_experiment

    def flaky(config, seed=None, train_config=None):
        if train_config is not None and train_config.q == 1.0:
            raise RuntimeError("injected failure")
        return real(config, seed=seed, train_config=train_config)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    lines = (out / "sweep.csv").read_text().splitlines()[2:]
    statuses = [line.split(",")[7] for line in lines]
    assert statuses == ["ok", "failed"]


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [verify.SuiteResult("alpha", True, "fine")]
    monkeypatch.setattr(verify, "run_all", lambda seed=0: ok)
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] alpha" in out

    bad = [verify.SuiteResult("alpha", True, "fine"), verify.SuiteResult("beta", False, "broken")]
    monkeypatch.setattr(verify, "run_all", lambda seed=0: bad)
    assert cli.main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] beta" in out


def test_verify_negative_control(monkeypatch):
    # an injected oracle bug must be caught by the suite
    from equicast import agents as agents_module

    real = agents_module.dc_optimal

    def broken(ctx, c):
        p, cost = real(ctx, c)
        return p, cost - 0.01
    monkeypatch.setattr(agents_module, "dc_optimal", broken)
    result = verify.check_decision_oracles(n_cases=5, seed=0)
    assert not result.passed


def test_sweep_parallel_jobs_match_serial(tmp_path):
    doc = tiny_config(repeats=2, sweep_q_plus_1=[1, 2], sweep_beta=[0.0])
    cfg = write_config(tmp_path, doc)
    out_s, out_p = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out_s)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out_p), "--jobs", "2"]) == 0
    strip = lambda p: (p / "sweep.csv").read_text()
    assert strip(out_s) == strip(out_p)
