"""Experiment orchestration: pools, single runs, sweeps, and file emission.

An experiment is described by one declarative config (JSON or TOML source,
parsed into `ExperimentConfig`).  The same config drives `generate` (write
synthetic datasets to disk), `train` (fit one model and evaluate it), and
`sweep` (grid over fairness exponent / blend weight / repeat seeds).  Every
run is deterministic given the config and seed, and all emitted files carry
the config hash and seed.

Every pool, data-center, charging or mixed, is an (agents, series) pair
windowed by one call for all its agents, whether its series are synthesized
in memory or read back from the files `generate` wrote (`data_dir`), so a
pool trains bitwise the same from its files; it is stacked and fitted to
its agents once (`training.PoolData`), and every run on it reuses that.
The files must hold the config's pool: an application, agent count or
synthesis field (a parameter of the application's generator that names a
config field) other than the files record is a config error, and a series
file whose timestamps differ from `signal.csv`'s, a `workloads.csv` of other
agent ids than `agents.json`'s, or a data-center agent whose context workload
is not the median of its `workloads.csv` row, is a schema error.  A
data-center pool's files must hold `workloads.csv`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import data as datamod
from . import predictor, training
from .agents import AgentSpec, load_agent_pool, save_agent_pool
from .data import SplitSpec, load_series, load_workloads, synth_agents, synth_charging, synth_mixed, window_split
from .errors import USER_ERRORS, ConfigError, SchemaError, check_fields, read_object
from .training import PoolData, RunSummary, TrainConfig, TrainResult

# the values of the config's enumerated synthesis fields
_CHOICES = {
    "heterogeneity": ("similar", "different"), "lambda_scheme": ("same", "grid"), "predict_target": ("combined", "carbon"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    application: str = "datacenter"
    n_agents: int = 10
    heterogeneity: str = "different"
    lambda_scheme: str = "grid"
    horizon: int = 12
    lookback: int = 12
    hidden: int = 24
    length: int = 600
    train_fraction: float = 0.67
    chronological: bool = False
    water_weight: float = 1.0
    price_weight: float = 1.0
    predict_target: str = "combined"
    data_dir: str | None = None
    repeats: int = 1
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep_q_plus_1: tuple = (1.0,)
    sweep_beta: tuple = (0.0,)

    def __post_init__(self):
        if self.application not in APPLICATIONS:
            raise ConfigError(f"application must be one of {APPLICATIONS}, got '{self.application}'")
        # checked for every application, also where its generator does not read the field
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.train.seed != 0:  # `run_experiment` trains at the run's seed
            raise ConfigError(f"train.seed must be 0, got {self.train.seed}: a run's seed is the top-level 'seed' "
                              "(a sweep repeat runs at seed + rep)")
        if self.lookback < 1 or self.horizon < 1 or self.hidden < 1 or self.length < 1:
            raise ConfigError("lookback, horizon, hidden, and length must all be >= 1")
        if any(not (math.isfinite(qp1) and qp1 >= 1.0) for qp1 in self.sweep_q_plus_1):
            raise ConfigError(f"sweep_q_plus_1 values must be finite and >= 1, got {self.sweep_q_plus_1}")
        if any(not 0.0 <= b <= 1.0 for b in self.sweep_beta):
            raise ConfigError(f"beta values must lie in [0, 1], got {self.sweep_beta}")
        SplitSpec(self.train_fraction)  # refuses a fraction outside (0, 1)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sweep_q_plus_1"] = list(self.sweep_q_plus_1)
        d["sweep_beta"] = list(self.sweep_beta)
        return d


def config_from_dict(doc: dict) -> ExperimentConfig:
    check_fields(ExperimentConfig, doc, "config")
    doc = dict(doc)
    train_doc = doc.pop("train", {})
    check_fields(TrainConfig, train_doc, "train config")
    for key in ("sweep_q_plus_1", "sweep_beta"):
        if key in doc:
            doc[key] = tuple(doc[key])
    return ExperimentConfig(train=TrainConfig(**train_doc), **doc)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.as_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Pool construction


@dataclass(eq=False)
class Pool:
    agents: list[AgentSpec]
    splits: PoolData
    arch: list[int]


class _Application(NamedTuple):
    """An application's generator, the value column of its series files, which
    `generate_files` writes and `load_pool` reads, and the config fields the
    generator reads (`fields`)."""

    generate: Callable
    column: str
    fields: tuple[str, ...]


def _application(generate: Callable, column: str) -> _Application:
    """`fields` are `generate`'s parameters that name a config field, but
    `n_agents` (passed first) and `seed` (the run's seed)."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"n_agents", "seed"}
    return _Application(generate, column, tuple(p for p in inspect.signature(generate).parameters if p in names))


# read once, here: `build_pool` runs for every run of a sweep
_APPLICATIONS = {
    "datacenter": _application(synth_agents, "carbon_intensity"),
    "charging": _application(synth_charging, "E"),
    "mixed": _application(synth_mixed, "carbon_intensity"),
}
APPLICATIONS = tuple(_APPLICATIONS)


def _synthesize(config: ExperimentConfig, seed: int) -> tuple[list[AgentSpec], datamod.SeriesDataset]:
    """The agents and series of a synthetic pool."""
    app = _APPLICATIONS[config.application]
    return app.generate(config.n_agents, seed=seed, **{name: getattr(config, name) for name in app.fields})


def _window_pool(config: ExperimentConfig, seed: int, agents: list[AgentSpec], ds: datamod.SeriesDataset) -> Pool:
    """Window a pool's series once, synthesized or loaded alike, and fit them to its agents.

    Each agent forecasts the next value (data-center pools) or the next
    `horizon` values (charging and mixed pools) of its target series from a
    lookback window of the shared signal.  Its outcome stream defaults to its
    targets, and its workload series to its own workload (0 for a charger).
    """
    steps = 1 if config.application == "datacenter" else config.horizon
    workloads = ds.workloads
    if workloads is None:
        own = [a.context.workload if a.family == "datacenter" else 0.0 for a in agents]
        workloads = np.repeat(np.array(own)[:, None], len(ds.signal), axis=1)
    split = SplitSpec(config.train_fraction, seed=seed, chronological=config.chronological)
    windows = window_split(ds.signal, ds.agent_targets, ds.outcome_targets, workloads, config.lookback, split, steps)
    return Pool(agents, PoolData(agents, windows), [config.lookback, config.hidden, steps])


def build_pool(config: ExperimentConfig, seed: int) -> Pool:
    """Load, or synthesize, the agent pool and window its data."""
    if config.data_dir is not None:
        return load_pool(config.data_dir, config, seed)
    return _window_pool(config, seed, *_synthesize(config, seed))


# ---------------------------------------------------------------------------
# Dataset files


def generate_files(config: ExperimentConfig, out_dir) -> dict:
    """Write the synthetic pool to CSV + JSON files; returns the meta document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed
    tag = f"config_hash={config_hash(config)} seed={seed}"

    agents, ds = _synthesize(config, seed)
    column = _APPLICATIONS[config.application].column

    def write_series(names, rows):
        for name, row in zip(names, rows):
            datamod.write_series_csv(out / name, ds.timestamps, row, column, comment=tag)
        return names

    write_series(["signal.csv"], [ds.signal])
    refs = write_series([f"target_m{m:03d}.csv" for m in range(config.n_agents)], ds.agent_targets)
    outcome_refs = None
    if ds.outcome_targets is not None:
        outcome_refs = write_series([f"outcome_m{m:03d}.csv" for m in range(config.n_agents)], ds.outcome_targets)
    if ds.workloads is not None:
        datamod.write_workload_csv(out / "workloads.csv", ds.timestamps, ds.workloads, comment=tag)
    agents = [replace(a, data_ref=refs[i]) for i, a in enumerate(agents)]
    save_agent_pool(out / "agents.json", agents)

    meta = {
        "config": config.as_dict(),
        "config_hash": config_hash(config),
        "seed": seed,
        "application": config.application,
        "schema_column": column,
        "outcome_refs": outcome_refs,
        "heterogeneity_summary": datamod.heterogeneity_summary(ds),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    return meta


def load_pool(data_dir, config: ExperimentConfig, seed: int) -> Pool:
    """Rebuild a pool from files written by `generate_files`; the files must hold the config's pool."""
    root = Path(data_dir)
    meta = read_object(root / "meta.json", SchemaError)
    recorded_config, outcome_refs = meta.get("config", {}), meta.get("outcome_refs")
    if not isinstance(recorded_config, dict):
        raise SchemaError(f"{root / 'meta.json'}: 'config' must be an object")
    if meta.get("application") != config.application:
        raise ConfigError(
            f"{root / 'meta.json'} names application {meta.get('application')!r} "
            f"but the config's application is {config.application!r}"
        )
    for name in _APPLICATIONS[config.application].fields:
        recorded = recorded_config.get(name)
        if recorded != getattr(config, name):
            raise ConfigError(
                f"{root / 'meta.json'} records {name} {recorded!r} but the config's {name} is {getattr(config, name)!r}"
            )
    agents = load_agent_pool(root / "agents.json")
    if len(agents) != config.n_agents:
        raise ConfigError(f"{root / 'agents.json'} has {len(agents)} agents but the config's n_agents is {config.n_agents}")
    for a in agents:
        if a.data_ref is None:
            raise SchemaError(f"{root / 'agents.json'}: agent {a.agent_id} has no 'data_ref' file name")
    if outcome_refs is not None and not (
        isinstance(outcome_refs, list) and len(outcome_refs) == len(agents) and all(isinstance(r, str) for r in outcome_refs)
    ):
        raise SchemaError(f"{root / 'meta.json'}: 'outcome_refs' must be null or a list of {len(agents)} file names")
    column = _APPLICATIONS[config.application].column
    timestamps, signal = load_series(root / "signal.csv", column)
    n = len(timestamps)

    def read(name, reader, *args):
        """What `reader` reads of file `name` after its timestamps, which must be signal.csv's."""
        path = root / name
        ts, *found = reader(path, *args)
        if len(ts) != n:
            raise SchemaError(f"{path} has {len(ts)} timestamps but signal.csv has {n}")
        if np.any(ts != timestamps):
            i = int(np.argmax(ts != timestamps))
            raise SchemaError(f"{path} has timestamp {ts[i]:g} at data row {i + 1} where signal.csv has {timestamps[i]:g}")
        return found

    def series(names):
        return np.stack([read(name, load_series, column)[0] for name in names])

    workloads = None  # `generate` writes workloads.csv for data-center pools only; another pool ignores one
    if config.application == "datacenter":
        found_ids, workloads = read("workloads.csv", load_workloads)
        ids = [a.agent_id for a in agents]
        if found_ids != ids:  # row m of the workloads is agent m's
            raise SchemaError(f"{root / 'workloads.csv'} has agent ids {found_ids} but agents.json has {ids}")
        for a, row in zip(agents, workloads):  # `generate` records each agent's median workload
            median = float(np.median(row))
            if a.family == "datacenter" and a.context.workload != median:
                raise SchemaError(
                    f"{root / 'agents.json'}: agent {a.agent_id} has context workload {a.context.workload!r} "
                    f"but the median of its row in workloads.csv is {median!r}"
                )
    ds = datamod.SeriesDataset(
        timestamps=timestamps,
        signal=signal,
        agent_targets=series([a.data_ref for a in agents]),
        outcome_targets=None if outcome_refs is None else series(outcome_refs),
        workloads=workloads,
    )
    return _window_pool(config, seed, agents, ds)


# ---------------------------------------------------------------------------
# Runs and sweeps


def run_experiment(
    config: ExperimentConfig, seed: int, cells: list[tuple[float, float]]
) -> tuple[Pool, list[tuple[RunSummary, TrainResult] | Exception]]:
    """Build the pool and initial params at `seed`, then train and evaluate one model per (q, beta) cell.

    The cells' models train in one `training.train` call from that pool and
    those params, each bitwise its solo run.  Returns the pool and, per
    cell, in order, its (summary, train result) or the exception that
    stopped it.
    """
    trainers = [replace(config.train, q=q, beta=beta, seed=seed) for q, beta in cells]
    pool = build_pool(config, seed)
    params = predictor.init_params(pool.arch, seed)
    outcomes = []
    for tc, result in zip(trainers, training.train(trainers, params, pool.agents, pool.splits).outcomes):
        if not isinstance(result, Exception):
            try:
                summary = training.evaluate(result.params, pool.agents, pool.splits, q=tc.q, beta=tc.beta, seed=seed)
                result = (summary, result)
            except Exception as exc:
                result = exc
        outcomes.append(result)
    return pool, outcomes


@dataclass(eq=False)
class SweepRow:
    q_plus_1: float
    beta: float
    seed: int
    status: str
    summary: RunSummary | None = None
    error: str = ""


def _sweep_task(args) -> list[SweepRow]:
    """The rows of some (q+1, beta) cells at one seed, in their order, from one `run_experiment` call.

    A user error (`USER_ERRORS`) ends the sweep, as it ends `train`; any other error fails its cell.
    """
    config, seed, cells = args
    try:
        _, outcomes = run_experiment(config, seed, [(qp1 - 1.0, beta) for qp1, beta in cells])
    except USER_ERRORS:
        raise
    except Exception as exc:  # no cell could train; each fails as its own run would
        outcomes = [exc] * len(cells)
    rows = []
    for (qp1, beta), outcome in zip(cells, outcomes):
        if isinstance(outcome, USER_ERRORS):
            raise outcome
        if isinstance(outcome, Exception):  # the sweep keeps going; the row records the failure
            rows.append(SweepRow(qp1, beta, seed, "failed", error=f"{type(outcome).__name__}: {outcome}"))
        else:
            rows.append(SweepRow(qp1, beta, seed, "ok", summary=outcome[0]))
    return rows


def sweep_label(value: float) -> str:
    """A grid value as the sweep files print it: in `sweep.csv` and in the regret files' names."""
    return f"{value:g}"


def check_sweep(config: ExperimentConfig, jobs: int) -> None:
    """Refuse a sweep that cannot run: fewer than one job, an empty grid, or
    a grid with two values that print alike (their files would collide)."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if not config.sweep_q_plus_1 or not config.sweep_beta:
        raise ConfigError("sweep grids must be nonempty")
    for name in ("sweep_q_plus_1", "sweep_beta"):
        labels = [sweep_label(v) for v in getattr(config, name)]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{name} values {list(getattr(config, name))} print as {labels} in sweep files: each must print apart")


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[SweepRow]:
    """One run per (q+1, beta, seed) cell of the config's grid, in (q+1, beta, seed) order.

    Each task trains up to ceil(cells / jobs) cells of one seed together
    (`_sweep_task`); `min(jobs, tasks)` worker processes run the tasks, or
    this process when that is one.
    """
    check_sweep(config, jobs)
    grid = [(qp1, beta) for qp1 in config.sweep_q_plus_1 for beta in config.sweep_beta]
    size = -(-len(grid) * config.repeats // jobs)
    tasks = [
        (config, config.seed + rep, grid[i : i + size]) for rep in range(config.repeats) for i in range(0, len(grid), size)
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            done = list(executor.map(_sweep_task, tasks))
    else:
        done = [_sweep_task(task) for task in tasks]
    rows = [row for task_rows in done for row in task_rows]  # seed by seed
    return [rows[rep * len(grid) + g] for g in range(len(grid)) for rep in range(config.repeats)]


def write_sweep_files(rows: list[SweepRow], out_dir, config: ExperimentConfig) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"config_hash={config_hash(config)} seed={config.seed}"
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w") as fh:
        fh.write(f"# {tag}\n")
        fh.write("q_plus_1,beta,seed,variance,mean,c95_minus_c5,mse,status\n")
        for row in rows:
            s = row.summary
            stats = ",,," if s is None else f"{s.variance!r},{s.mean!r},{s.c95_minus_c5!r},{s.mse!r}"
            fh.write(f"{sweep_label(row.q_plus_1)},{sweep_label(row.beta)},{row.seed},{stats},{row.status}\n")
    for row in rows:
        if row.summary is None:
            continue
        name = f"regrets_q{sweep_label(row.q_plus_1)}_b{sweep_label(row.beta)}_s{row.seed}.csv"
        with open(out / name, "w") as fh:
            fh.write(f"# {tag}\n")
            fh.write("agent_id,mean_regret\n")
            for m, val in enumerate(row.summary.per_agent_regret):
                fh.write(f"{m},{float(val)!r}\n")
    return sweep_path


def write_step_log(path, step_log: list[dict], config: ExperimentConfig, seed: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash(config)} seed={seed}\n")
        fh.write("step,lr,equitable,mse_norm,combined\n")
        for row in step_log:
            fh.write(f"{row['step']},{row['lr']!r},{row['equitable']!r},{row['mse_norm']!r},{row['combined']!r}\n")
