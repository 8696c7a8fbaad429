"""equicast benchmark: four workloads, one command, one result line per run.

    python3 bench/run.py --workload charging-pg --seed 0 --seconds 25 --trace 0

A run builds the workload's inputs from --seed, warms up, then runs
operations back to back from this one process (a closed loop: each call
waits for the previous one) for about --seconds, and checks every output.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced operations and reports the per-layer metrics
and the tracing overhead.  The metric names and units are the ones listed in
BENCHMARK.json at the root of the checkout.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  See
bench/README.md for what each workload and metric is for.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads: the sweep runs two
# worker processes on two cores, and this numpy's OpenBLAS would otherwise
# start up to 64 threads in each.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "equicast" / "__init__.py").is_file():
    sys.exit(f"bench: no equicast sources at {SRC}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np
from equicast import harness, predictor, training, verify
from equicast.harness import ExperimentConfig
from equicast.training import TrainConfig

from speed import SpeedProbe
from tracing import Tracer, layer_metrics

SETUP_REPS = 5  # set-up is timed this many times before the timed operations, then once per round

# The criterion-8/9 charging pool and its CHARGING_PG trainer at q=1,
# beta=0.5.  A call trains 10 epochs (190 steps) instead of 180, so one run
# times many calls; lr_step=1000 keeps the learning rate constant either way.
CHARGING = ExperimentConfig(
    application="charging", n_agents=20, heterogeneity="different",
    horizon=12, length=480, lookback=12, hidden=16,
)
CHARGING_PG = TrainConfig(
    mode="pg", q=1.0, beta=0.5, lr=0.01, lr_step=1000, lr_decay=0.5, epochs=10,
    batch_size=16, optimizer="adam", pg_baseline=True, grad_clip=5.0, pg_samples=8, std=0.3,
)
# The criterion-7 data-center pool, trained in chain mode at q=1, beta=0.5
# for 12 epochs (144 steps) per call.
DATACENTER = ExperimentConfig(
    application="datacenter", n_agents=10, heterogeneity="different",
    lambda_scheme="grid", length=600, lookback=12, hidden=16,
)
DATACENTER_CHAIN = TrainConfig(
    mode="chain", q=1.0, beta=0.5, lr=0.01, lr_step=500, lr_decay=0.5, epochs=12,
    batch_size=32, optimizer="adam", grad_clip=5.0,
)
# A 12-agent mixed pool swept over q+1 in {1, 2, 5} x 2 repeat seeds, each
# cell a short pg run (5 epochs, 95 steps), so per-run fixed costs show.
MIXED = ExperimentConfig(
    application="mixed", n_agents=12, horizon=12, length=480, lookback=12, hidden=16,
    repeats=2, sweep_q_plus_1=(1.0, 2.0, 5.0),
    train=TrainConfig(
        mode="pg", lr=0.01, lr_step=500, lr_decay=0.5, epochs=5, batch_size=16,
        optimizer="adam", pg_baseline=True, grad_clip=5.0, pg_samples=4,
    ),
)


@dataclass
class Op:
    """Outcome of one benchmark operation: a train call, a sweep or a run_all."""

    seconds: float  # wall time of the whole operation
    work: int  # train steps, sweep cells or verify suites completed
    work_seconds: float  # wall time the throughput is taken over
    attempted: int  # train runs, sweep cells or verify suites attempted
    failed: int
    problems: list = field(default_factory=list)
    fingerprint: bytes = b""  # must repeat exactly for a fixed seed
    quality: dict | None = None


def summary_problems(summary) -> list:
    r = summary.per_agent_regret
    scalars = (summary.variance, summary.mean, summary.c95_minus_c5, summary.mse, summary.entropy)
    problems = []
    if not (np.all(np.isfinite(r)) and all(math.isfinite(v) for v in scalars)):
        problems.append("non-finite run summary")
    if np.any(r < 0):
        problems.append(f"negative per-agent regret {float(r.min())}")
    return problems


QUALITY = ("test_regret_mean", "test_regret_var", "test_mse")


def quality(summaries) -> dict:
    return {
        "test_regret_mean": float(np.mean([s.mean for s in summaries])),
        "test_regret_var": float(np.mean([s.variance for s in summaries])),
        "test_mse": float(np.mean([s.mse for s in summaries])),
    }


def failed_op(elapsed: float, attempted: int, exc: Exception) -> Op:
    return Op(elapsed, 0, elapsed, attempted, attempted, [f"{type(exc).__name__}: {exc}"])


class Training:
    """`train` plus `evaluate` on one pool; the throughput is train steps/s."""

    throughput_name = "steps_per_s"
    min_ops = 2  # the determinism check compares calls at the same seed
    children_rss = False
    probed = True

    def __init__(self, config: ExperimentConfig, trainer: TrainConfig):
        self.config = config
        self.trainer = trainer

    def setup(self, seed: int):
        pool = harness.build_pool(self.config, seed)
        return pool, predictor.init_params(pool.arch, seed), replace(self.trainer, seed=seed)

    def warm_up(self, inputs) -> None:
        pool, params, trainer = inputs
        training.train(replace(trainer, epochs=1), params, pool.agents, pool.splits)

    def run(self, inputs, clock) -> Op:
        pool, params, trainer = inputs
        t0 = clock()
        try:
            result = training.train(trainer, params, pool.agents, pool.splits)
            t1 = clock()
            summary = training.evaluate(
                result.params, pool.agents, pool.splits, q=trainer.q, beta=trainer.beta, seed=trainer.seed
            )
        except Exception as exc:  # a diverged or crashed run is a failed operation
            return failed_op(clock() - t0, 1, exc)
        t2 = clock()
        problems = summary_problems(summary)
        if not all(math.isfinite(v) for row in result.step_log for v in row.values()):
            problems.append("non-finite step log")
        return Op(
            t2 - t0, len(result.step_log), t1 - t0, 1, int(bool(problems)), problems,
            fingerprint=result.params.values.tobytes(), quality=quality([summary]),
        )


class Sweep:
    """`run_sweep` over the mixed pool; the throughput is completed cells/s."""

    throughput_name = "cells_per_s"
    min_ops = 1
    children_rss = True
    # Not scaled by the host-speed probe: the workers run on both cores while
    # a probe in this process samples one, and in twenty runs scaling widened
    # the spread of the rate (0.059 and 0.097, against 0.053 and 0.064).
    probed = False

    def __init__(self, config: ExperimentConfig, jobs: int):
        self.config = config
        self.jobs = jobs

    def setup(self, seed: int):
        # what each cell pays before training: its pool and initial params
        pool = harness.build_pool(self.config, seed)
        return pool, predictor.init_params(pool.arch, seed), replace(self.config, seed=seed)

    def warm_up(self, inputs) -> None:
        # one-epoch cells: a short train call per cell, and the first
        # process pool's start-up, stay out of the timed sweeps
        config = inputs[2]
        harness.run_sweep(replace(config, train=replace(config.train, epochs=1)), jobs=self.jobs)

    def run(self, inputs, clock) -> Op:
        config = inputs[2]
        t0 = clock()
        try:
            rows = harness.run_sweep(config, jobs=self.jobs)
        except Exception as exc:  # the sweep itself broke: every cell failed
            cells = len(config.sweep_q_plus_1) * len(config.sweep_beta) * config.repeats
            return failed_op(clock() - t0, cells, exc)
        elapsed = clock() - t0
        problems, summaries, failed = [], [], 0
        for row in rows:
            cell = f"cell q+1={row.q_plus_1:g} beta={row.beta:g} seed={row.seed}"
            found = [row.error] if row.status != "ok" else summary_problems(row.summary)
            problems.extend(f"{cell}: {p}" for p in found)
            failed += int(bool(found))
            if row.summary is not None:
                summaries.append(row.summary)
        return Op(
            elapsed, len(rows) - failed, elapsed, len(rows), failed, problems,
            fingerprint=b"".join(s.per_agent_regret.tobytes() for s in summaries),
            quality=quality(summaries) if summaries else None,
        )


class Verify:
    """`verify.run_all` at the suites' default sizes; the throughput is suites/s."""

    throughput_name = "suites_per_s"
    min_ops = 2  # a second run_all grows the peak RSS; always run two so it reads the same
    children_rss = False
    probed = True

    def setup(self, seed: int):
        # run_all takes only a seed; what `equicast verify` pays before its
        # first suite is a fresh interpreter importing the package
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import equicast.verify"], env=env, cwd=ROOT, check=True)
        return seed

    def warm_up(self, inputs) -> None:
        pass  # each suite's first-call cost is negligible next to its 0.1-17 s of work

    def run(self, seed, clock) -> Op:
        t0 = clock()
        try:
            results = verify.run_all(seed)
        except Exception as exc:  # run_all catches suite crashes; this is a crash of run_all
            return failed_op(clock() - t0, 6, exc)
        elapsed = clock() - t0
        bad = [r for r in results if not r.passed]
        return Op(
            elapsed, len(results), elapsed, len(results), len(bad),
            [f"suite {r.name}: {r.detail}" for r in bad],
        )


# workload name -> factory taking whether the run is traced
WORKLOADS = {
    "charging-pg": lambda trace: Training(CHARGING, CHARGING_PG),
    "datacenter-chain": lambda trace: Training(DATACENTER, DATACENTER_CHAIN),
    # spans recorded in forked workers never reach this process
    "mixed-sweep": lambda trace: Sweep(MIXED, jobs=1 if trace else 2),
    "verify": lambda trace: Verify(),
}


def peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(seed: int) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} commit={git_commit()} seed={seed}"
    )


def measure(workload, seed: int, seconds: float, tracer: Tracer | None):
    """Set up, warm up, then run operations until the time is spent.

    Set-up runs SETUP_REPS times before the timed operations and once more
    after each round of them, so its median spans the same stretch of the
    host's speed as the operations.  An untraced run of a probed workload
    probes the host's speed during and after every round (see speed.py) and
    times everything with a clock that leaves the probes out.  With a tracer, every round runs one
    untraced and one traced operation, so both halves see the same machine
    state; a traced run does not probe.  The run stops at the round boundary
    nearest to `seconds`.
    """
    probe = SpeedProbe() if tracer is None and workload.probed else None
    clock = probe.clock if probe else time.perf_counter
    setup_times, run = [], 0

    def set_up():
        nonlocal run
        t0 = clock()
        if tracer is None:
            inputs = workload.setup(seed)
        else:
            inputs = tracer.op(run, workload.setup, seed)
            run += 1
        setup_times.append(clock() - t0)
        return inputs

    for _ in range(SETUP_REPS):
        inputs = set_up()
    workload.warm_up(inputs)

    plain_ops, traced_ops = [], []
    if probe:
        probe.start()
    try:
        start = time.perf_counter()
        rounds = 0
        while True:
            plain_ops.append(workload.run(inputs, clock))
            if tracer is not None:
                traced_ops.append(tracer.op(run, workload.run, inputs, clock))
                run += 1
            set_up()
            if probe:
                probe.sample()
            rounds += 1
            elapsed = time.perf_counter() - start
            enough = len(plain_ops) + len(traced_ops) >= workload.min_ops
            if enough and elapsed + elapsed / rounds / 2 >= seconds:
                break
    finally:
        if probe:
            probe.stop()
    return statistics.median(setup_times), plain_ops, traced_ops, probe


def collect(workload, setup_s: float, plain_ops, traced_ops, tracer: Tracer | None, probe: SpeedProbe | None):
    ops = plain_ops + traced_ops
    problems = [p for op in ops for p in op.problems]
    failed = sum(op.failed for op in ops)
    first = next((op.fingerprint for op in ops if op.fingerprint), b"")
    for i, op in enumerate(ops):
        if op.fingerprint and op.fingerprint != first:
            problems.append(f"operation {i} gave different results from operation 0 at the same seed")
            failed += 1
    # Work over time summed across the run, not a median of per-operation
    # rates: the host switches between a fast and a slow speed for seconds
    # at a time, and a median snaps to one of the two while the sum follows
    # the share of time spent in each.
    work_seconds = sum(op.work_seconds for op in plain_ops)
    rate = sum(op.work for op in plain_ops) / work_seconds if work_seconds else 0.0
    slowness = probe.slowness() if probe else None
    values = {
        "setup_s": setup_s,
        "rate": rate,
        "slowness": slowness,
        "norm_throughput": rate * slowness if probe else rate,
        "peak_rss_mb": peak_rss_mb(workload.children_rss),
    }
    if tracer is not None:
        values.update(layer_metrics(tracer.spans()))
        plain = statistics.median(op.seconds for op in plain_ops)
        values["trace.overhead_frac"] = statistics.median(op.seconds for op in traced_ops) / plain - 1.0
        values["verify.suites_failed"] = sum(op.failed for op in ops) if isinstance(workload, Verify) else 0
    first_quality = next((op.quality for op in ops if op.quality), None)
    values.update(first_quality or dict.fromkeys(QUALITY, 0.0))
    attempted = sum(op.attempted for op in ops)
    return values, attempted, failed, problems


def report(args, workload, values, spec, plain_ops, attempted, failed, problems) -> dict:
    """Print every metric by name and unit; return the ones the result line carries."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"equicast bench: workload={args.workload} seconds={args.seconds} trace={args.trace}")
    print(f"machine: {machine_info(args.seed)}")
    n = len(plain_ops)
    print(f"operations: {n} timed untraced, {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.4g})")
    if n:
        print(f"  {workload.throughput_name:<44} {values['rate']:.6g} 1/s (over {n} operations, as measured)")
        if values["slowness"] is not None:
            print(f"  {'host slowness (speed.py)':<44} {values['slowness']:.4g}")
    if isinstance(workload, Verify) and n:
        print(f"  {'verify_s':<44} {statistics.median(op.seconds for op in plain_ops):.6g} s")
    if not args.trace and any(values[name] for name in QUALITY):
        for name in QUALITY:  # fixed for a seed; the result line of --trace 1 carries them
            print(f"  {name:<44} {values[name]:.6g} {units[name]}")
    metrics = {}
    for name in names:
        metrics[name] = {"value": values[name], "unit": units[name]}
        print(f"  {name:<44} {values[name]:.6g} {units[name]}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload](bool(args.trace))
    tracer = Tracer() if args.trace else None
    setup_s, plain_ops, traced_ops, probe = measure(workload, args.seed, args.seconds, tracer)
    values, attempted, failed, problems = collect(workload, setup_s, plain_ops, traced_ops, tracer, probe)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    metrics = report(args, workload, values, spec, plain_ops, attempted, failed, problems)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
