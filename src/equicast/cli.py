"""Command-line entry point.

Subcommands:

* generate: write a synthetic agent pool + series files to disk
* train   : fit one model per the config, emit checkpoint/steps/summary
* evaluate: re-evaluate a checkpoint on the config's test split
* sweep   : grid over (q+1, beta, seed), emit sweep.csv and regret files
* verify  : run the oracle/gradient/theorem suites at the config's seed, nonzero exit on failure

Exit codes: 0 success, 1 usage or config error, 2 divergence, verification
failure or a failed sweep cell (the sweep still writes its table).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, predictor, training, verify
from .errors import USER_ERRORS, ConfigError, DivergenceError, read_object
from .harness import ExperimentConfig, config_from_dict, config_hash


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_object(path, ConfigError))


def _effective_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _write_summary(out: Path, config: ExperimentConfig, seed: int, summary: training.RunSummary) -> Path:
    doc = {
        "config_hash": config_hash(config),
        "seed": seed,
        "config": config.as_dict(),
        "summary": summary.as_dict(),
    }
    path = out / "summary.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def cmd_generate(args) -> int:
    config = _effective_config(args)
    meta = harness.generate_files(config, args.out)
    print(f"wrote pool of {config.n_agents} {config.application} agents to {args.out}")
    for stream, spread in meta["heterogeneity_summary"].items():
        print(f"  {stream}: 1-D Wasserstein spread vs agent 0 in [{spread['min']:.4g}, {spread['max']:.4g}]")
    return 0


def cmd_train(args) -> int:
    config = _effective_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pool, (outcome,) = harness.run_experiment(config, config.seed, [(config.train.q, config.train.beta)])
    if isinstance(outcome, Exception):
        raise outcome
    summary, result = outcome
    predictor.save_checkpoint(
        out / "checkpoint.json",
        result.params,
        std=result.std,
        lookback=config.lookback,
        # the pool's one target transform, so that `evaluate` de-normalizes with the same
        extra={"config_hash": config_hash(config), "seed": config.seed,
               "target_mean": pool.splits.mean, "target_scale": pool.splits.scale},
    )
    harness.write_step_log(out / "steps.csv", result.step_log, config, config.seed)
    path = _write_summary(out, config, config.seed, summary)
    print(f"trained {config.train.mode} model for {len(result.step_log)} steps; summary at {path}")
    print(json.dumps(summary.as_dict(), indent=2))
    return 0


def cmd_evaluate(args) -> int:
    config = _effective_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, meta = predictor.load_checkpoint(args.checkpoint)
    if meta["lookback"] != config.lookback:
        raise ConfigError(f"checkpoint lookback {meta['lookback']} does not match the config's {config.lookback}")
    pool = harness.build_pool(config, config.seed)
    if list(params.layer_sizes) != pool.arch:
        raise ConfigError(f"checkpoint layer sizes {list(params.layer_sizes)} do not match the config's {pool.arch}")
    # absent from older checkpoints: not checked
    for key, pooled in (("target_mean", pool.splits.mean), ("target_scale", pool.splits.scale)):
        if key in meta["extra"] and meta["extra"][key] != pooled:
            raise ConfigError(f"checkpoint {key} {meta['extra'][key]!r} does not match the rebuilt pool's {pooled!r}")
    # the hash covers the seed; the summary would record this config as the model's
    if "config_hash" in meta["extra"] and meta["extra"]["config_hash"] != config_hash(config):
        raise ConfigError(
            f"checkpoint was trained under config {meta['extra']['config_hash']!r}, not this config {config_hash(config)!r}"
        )
    summary = training.evaluate(
        params, pool.agents, pool.splits, q=config.train.q, beta=config.train.beta, seed=config.seed
    )
    path = _write_summary(out, config, config.seed, summary)
    print(json.dumps(summary.as_dict(), indent=2))
    print(f"summary at {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _effective_config(args)
    harness.check_sweep(config, args.jobs)  # before --out is made; `run_sweep` checks again for its other callers
    Path(args.out).mkdir(parents=True, exist_ok=True)  # a bad --out fails before the sweep trains
    rows = harness.run_sweep(config, jobs=args.jobs)
    path = harness.write_sweep_files(rows, args.out, config)
    failed = [r for r in rows if r.status != "ok"]
    print(f"{len(rows)} runs ({len(failed)} failed); table at {path}")
    for r in failed:
        print(f"  failed q+1={r.q_plus_1:g} beta={r.beta:g} seed={r.seed}: {r.error}")
    return 2 if failed else 0


def cmd_verify(args) -> int:
    results = verify.run_all(seed=_effective_config(args).seed)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        ok = ok and r.passed
    if not ok:
        print("verification FAILED")
        return 2
    print("all verification suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equicast", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_out in (
        ("generate", cmd_generate, True),
        ("train", cmd_train, True),
        ("evaluate", cmd_evaluate, True),
        ("sweep", cmd_sweep, True),
        ("verify", cmd_verify, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="experiment config file (.json or .toml)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if needs_out:
            p.add_argument("--out", default="runs", help="output directory")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True, help="checkpoint.json from a train run")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"{exc.phase} diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
