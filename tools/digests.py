"""sha256 digests of training runs, sweeps and `verify` results at fixed seeds.

    python3 tools/digests.py > tests/digests.txt

Run it in two checkouts and `diff` the outputs: equal lines mean bitwise
equal results.  `tests/test_digests.py` compares this checkout's output
with the checked-in `tests/digests.txt`.  The first line names numpy's
version and its BLAS, which may round differently.  Each (config, seed)
line covers the trained parameters' bytes, the step log as JSON, `repr` of
the Gaussian std and the `evaluate` summary (`as_dict`, as JSON).  Each
seed's `sweep` line hashes the rows of `harness.run_sweep` on the
benchmark's mixed sweep from that seed, once at `jobs` 1 and once at 2:
each row's cell, status, error and summary.  Each seed's `verify` line
gives one short digest per suite of `verify.run_all`'s results, so a diff
names the suite whose detail changed.

The pools and trainers are the benchmark's (`bench/run.py`), and the
variants below each change one thing about them.  A run builds its inputs
the way the benchmark's training workloads do: the pool, the initial
parameters and the trainer seed all come from the seed.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (puts src/ on the path and pins BLAS to one thread)
import numpy as np  # noqa: E402
from equicast import harness, training, verify  # noqa: E402

SEEDS = (0, 1, 9001)
MIXED_PG = bench.MIXED.train
CONFIGS = {
    "charging-pg": (bench.CHARGING, bench.CHARGING_PG),
    "datacenter-chain": (bench.DATACENTER, bench.DATACENTER_CHAIN),
    "mixed-pg-q1-beta0.5": (bench.MIXED, replace(MIXED_PG, q=1.0, beta=0.5)),
    "mixed-pg-q4-beta0": (bench.MIXED, replace(MIXED_PG, q=4.0, beta=0.0)),
    "charging-plain": (bench.CHARGING, replace(bench.CHARGING_PG, mode="plain")),
    "datacenter-plain": (bench.DATACENTER, replace(bench.DATACENTER_CHAIN, mode="plain")),
    "mixed-plain": (bench.MIXED, replace(MIXED_PG, mode="plain")),
    "datacenter-chain-beta0-sgd-momentum-batch27": (bench.DATACENTER, replace(
        bench.DATACENTER_CHAIN, beta=0.0, optimizer="sgd", momentum=0.5, batch_size=27)),
    "datacenter-chain-beta1": (bench.DATACENTER, replace(bench.DATACENTER_CHAIN, beta=1.0)),
    "datacenter-chain-batch-over-n": (bench.DATACENTER, replace(bench.DATACENTER_CHAIN, batch_size=100_000)),
    "charging-pg-1-draw": (bench.CHARGING, replace(bench.CHARGING_PG, pg_samples=1)),
    "charging-pg-no-baseline": (bench.CHARGING, replace(bench.CHARGING_PG, pg_baseline=False)),
    "datacenter-pg-8-draws": (bench.DATACENTER, replace(
        bench.DATACENTER_CHAIN, mode="pg", pg_samples=8, pg_baseline=True)),
}


def sha(*parts: bytes, short: bool = False) -> str:
    digest = hashlib.sha256(b"\0".join(parts)).hexdigest()
    return digest[:12] if short else digest


def run_digest(config, trainer, seed: int) -> str:
    pool, params, trainer = bench.Training(config, trainer).setup(seed)
    result = training.train(trainer, params, pool.agents, pool.splits)
    summary = training.evaluate(result.params, pool.agents, pool.splits, q=trainer.q, beta=trainer.beta, seed=seed)
    return sha(
        result.params.values.tobytes(),
        json.dumps(result.step_log).encode(),
        repr(result.std).encode(),
        json.dumps(summary.as_dict()).encode(),
    )


def header() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    return f"# numpy={np.__version__} blas={blas['name']} {blas['version']} ({config})"


def sweep_digest(seed: int, jobs: int) -> str:
    rows = harness.run_sweep(replace(bench.MIXED, seed=seed), jobs=jobs)
    return sha(json.dumps([
        [r.q_plus_1, r.beta, r.seed, r.status, r.error, r.summary and r.summary.as_dict()] for r in rows
    ]).encode())


def main() -> int:
    print(header(), flush=True)
    for name, (config, trainer) in CONFIGS.items():
        for seed in SEEDS:
            print(f"{name} seed={seed} {run_digest(config, trainer, seed)}", flush=True)
    for seed in SEEDS:
        print(f"sweep seed={seed} jobs1={sweep_digest(seed, 1)} jobs2={sweep_digest(seed, 2)}", flush=True)
    for seed in SEEDS:
        suites = " ".join(
            f"{r.name}={sha(json.dumps([r.passed, r.detail]).encode(), short=True)}" for r in verify.run_all(seed)
        )
        print(f"verify seed={seed} {suites}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
