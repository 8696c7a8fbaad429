"""Smoke test of the benchmark at a tiny size (one-second runs).

    python3 -m pytest bench/test_smoke.py -q

It runs every workload untraced and traced and checks the result line
against BENCHMARK.json: every metric is emitted with its unit, the layers a
workload exercises report nonzero work, the exact per-step counts of today's
code repeat across seeds, and the benchmark refuses to run without the
package sources.  The verify workload cannot be shrunk (its suite sizes are
correctness bars), so the whole file takes about two minutes on two cores.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TRAINING_LAYERS = (
    "data.window_split.", "harness.build_pool.ms", "predictor.", "training.", "test_",
)
DC_CHAIN_LAYERS = (
    "agents.regret.", "agents.dc_act.", "agents.dc_act_jacobian.", "agents.dc_cost_grad_action.",
    "objective.",
)
# per-layer metrics that must show work on each workload
ACTIVE = {
    "charging-pg": TRAINING_LAYERS + ("agents.ev_regret_batch.",),
    "datacenter-chain": TRAINING_LAYERS + DC_CHAIN_LAYERS,
    "mixed-sweep": TRAINING_LAYERS
    + ("agents.ev_regret_batch.", "agents.dc_regret_batch.", "harness.run_experiment.ms"),
    "verify": tuple(
        m["name"] for m in SPEC["per_layer"] if m["name"].startswith("verify.") and m["name"].endswith(".s")
    ),
}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@functools.lru_cache(maxsize=None)
def metrics_of(workload: str, seed: int, trace: int) -> dict:
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = metrics_of(workload, 0, trace)
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]
        if not trace:
            assert value > 0, m["name"]
        elif m["name"].startswith(ACTIVE[workload]) and m["name"] != "verify.suites_failed":
            assert value > 0, f"{m['name']} shows no work on {workload}"


def test_exact_counts_repeat_across_runs():
    counts = [metrics_of("charging-pg", seed, 1) for seed in (0, 1)]
    for metrics in counts:
        assert metrics["predictor.vjp_batch.rows_per_step"][0] == 2560
        assert metrics["agents.ev_regret_batch.calls_per_step"][0] == 20
        assert metrics["data.window_split.calls"][0] == 40
        assert metrics["training.steps"][0] == 190
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["name"].endswith(("calls_per_step", "rows_per_step", ".calls", "training.steps"))]
    assert [counts[0][n] for n in exact] == [counts[1][n] for n in exact]
    chain = metrics_of("datacenter-chain", 0, 1)
    assert chain["agents.regret.calls_per_step"][0] == 320
    assert chain["objective.chain_grad.rows_per_step"][0] == 320


def test_refuses_to_run_without_the_package_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run_bench("charging-pg", 0, 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
