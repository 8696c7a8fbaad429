"""Synthetic series generation, CSV ingestion, windowing, and splits.

The synthetic world is one shared "grid" signal plus per-agent outcome
streams derived from it.  Agent heterogeneity enters in two places: how far
each agent's outcome stream drifts from the shared signal (offset + noise
scale), and the private decision contexts (workloads and latency weights, or
charging demands and component mixes).  The "similar" setting keeps
per-agent perturbations small; "different" spreads the noise scales over
more than an order of magnitude.  Each application has one generator
(`synth_agents`, `synth_charging`, `synth_mixed`) that returns the agent
specs and a `SeriesDataset`.  `window_split` windows a whole pool once: one
train/test split of the windows of the shared signal, the same for every
agent, and a frozen `PoolWindows` whose two `Part`s hold M agents x n rows
stacked in agent order (z-scored features; raw targets, outcomes and
workloads; the target transform is one per pool, fitted by
`training.PoolData`).

CSV files (header row required, '#' comment lines allowed before it) have
one reader per kind: `load_series` reads `timestamp` and a value column (its
application's, which `harness._APPLICATIONS` names), `load_workloads`
reads `timestamp,agent_id,demand`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .agents import AgentSpec, ChargingContext, DataCenterContext
from .errors import ConfigError, SchemaError, read_text


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.67
    seed: int = 0
    chronological: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train fraction must lie in (0, 1), got {self.train_fraction}")


@dataclass(eq=False)
class SeriesDataset:
    """A shared input signal plus optional per-agent outcome/context streams.

    Every array spans the timestamps, as its builders make it: the generators,
    and `harness.load_pool`, which refuses files of other timestamps.
    """

    timestamps: np.ndarray
    signal: np.ndarray | None = None
    agent_targets: np.ndarray | None = None  # (M, N) per-agent forecast targets
    outcome_targets: np.ndarray | None = None  # (M, N) decision streams, if distinct
    workloads: np.ndarray | None = None  # (M, N) per-agent demand series


# ---------------------------------------------------------------------------
# Generators


def synth_carbon(
    length: int,
    seed: int,
    base: float = 2.0,
    daily_amplitude: float = 0.6,
    noise_std: float = 0.15,
    phase: float = 0.0,
) -> np.ndarray:
    """Daily sinusoid around `base` (> 0) with Gaussian noise, floored at 0.05*base; `ExperimentConfig` checks `length`."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = base + daily_amplitude * np.sin(2.0 * np.pi * t / 24.0 + phase)
    series = series + noise_std * rng.standard_normal(length)
    return np.clip(series, 0.05 * base, None)


def grid_components(length: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The carbon, water and price series of the synthetic grid (seeds seed, seed + 1, seed + 2)."""
    carbon = synth_carbon(length, seed=seed, base=2.0, daily_amplitude=0.6, noise_std=0.10)
    water = synth_carbon(length, seed=seed + 1, base=1.0, daily_amplitude=0.45, noise_std=0.08, phase=2.1)
    price = synth_carbon(length, seed=seed + 2, base=1.5, daily_amplitude=0.7, noise_std=0.10, phase=4.2)
    return carbon, water, price


def synth_agents(
    n_agents: int,
    heterogeneity: str = "similar",
    lambda_scheme: str = "same",
    seed: int = 0,
    length: int = 600,
):
    """Data-center pool: shared signal, per-agent intensity and workload streams.

    Returns (agent specs, SeriesDataset).  Agent m's outcome stream is the
    shared signal plus a per-agent offset and noise.  "different" widens the
    offsets and splits the workload profiles into a tight cluster plus a
    scattered tail, so pairwise workload-distribution distances spread over
    at least an order of magnitude.
    The config fields arrive checked by `harness.ExperimentConfig`.
    """
    base = 2.0  # the shared signal's mean intensity, which scales the offsets and noise
    rng = np.random.default_rng(seed)
    signal = synth_carbon(length, seed=seed, base=base)

    if heterogeneity == "similar":
        offsets = rng.uniform(-0.03, 0.03, size=n_agents) * base
        noise_scales = rng.uniform(0.01, 0.03, size=n_agents) * base
        wl_bases = rng.uniform(4.5, 5.5, size=n_agents)
        wl_noise = rng.uniform(0.02, 0.05, size=n_agents)
    else:
        # ordered so later agents (larger latency weight under the grid
        # scheme) drift furthest from the shared signal: the worst-off
        # agents are the ones a reweighted forecast can actually help
        magnitudes = np.sort(rng.uniform(0.02, 0.35, size=n_agents)) * base
        offsets = magnitudes * rng.choice([-1.0, 1.0], size=n_agents)
        noise_scales = rng.uniform(0.02, 0.10, size=n_agents) * base
        # half the pool stays near one workload profile, the rest scatter
        # over a wide range: distance spread of >= one order of magnitude
        half = max(1, n_agents // 2)
        wl_bases = np.empty(n_agents)
        wl_noise = np.empty(n_agents)
        wl_bases[:half] = 5.0 * (1.0 + 0.02 * rng.uniform(-1, 1, size=half))
        wl_noise[:half] = 0.02
        wl_bases[half:] = np.exp(rng.uniform(np.log(2.0), np.log(12.0), size=n_agents - half))
        wl_noise[half:] = rng.uniform(0.1, 0.5, size=n_agents - half)

    targets = np.empty((n_agents, length))
    workloads = np.empty((n_agents, length))
    for m in range(n_agents):
        targets[m] = np.clip(
            signal + offsets[m] + noise_scales[m] * rng.standard_normal(length),
            0.05 * base,
            None,
        )
        workloads[m] = wl_bases[m] * np.exp(wl_noise[m] * rng.standard_normal(length))

    if lambda_scheme == "same":
        lams = np.full(n_agents, 2.0)
    else:
        lams = np.linspace(2.0, 100.0, n_agents)

    agent_list = [
        AgentSpec(
            agent_id=m,
            family="datacenter",
            context=DataCenterContext(workload=float(np.median(workloads[m])), latency_weight=float(lams[m])),
        )
        for m in range(n_agents)
    ]
    dataset = SeriesDataset(
        timestamps=np.arange(length),
        signal=signal,
        agent_targets=targets,
        workloads=workloads,
    )
    return agent_list, dataset


def synth_charging(
    n_agents: int,
    horizon: int = 12,
    heterogeneity: str = "similar",
    seed: int = 0,
    length: int = 600,
    water_weight: float = 1.0,
    price_weight: float = 1.0,
    predict_target: str = "combined",
):
    """Charging pool: shared reference energy signal, per-agent mixed streams.

    Each agent weighs the carbon/water/price components with its own
    (water_weight, price_weight) draw around the nominal mix, so agents
    disagree about which slots are cheap.  `predict_target` picks what the
    shared forecaster is trained on: the nominal combined signal windows
    ("combined") or the carbon component only ("carbon"); agent outcome
    streams always use the agent's own mix.
    The config fields arrive checked by `harness.ExperimentConfig`.
    """
    rng = np.random.default_rng(seed)
    carbon, water, price = grid_components(length, seed)

    if heterogeneity == "similar":
        gammas = water_weight * rng.uniform(0.85, 1.15, size=n_agents)
        etas = price_weight * rng.uniform(0.85, 1.15, size=n_agents)
        noise_scales = rng.uniform(0.01, 0.03, size=n_agents)
        rates = rng.uniform(1.5, 2.5, size=n_agents)
        slot_lo, slot_hi = max(1, horizon // 4), max(2, (3 * horizon) // 4)
    else:
        gammas = water_weight * np.exp(rng.uniform(np.log(0.15), np.log(2.8), size=n_agents))
        etas = price_weight * np.exp(rng.uniform(np.log(0.15), np.log(2.8), size=n_agents))
        noise_scales = np.exp(rng.uniform(np.log(0.01), np.log(0.20), size=n_agents))
        rates = np.exp(rng.uniform(np.log(0.6), np.log(4.0), size=n_agents))
        slot_lo, slot_hi = 1, max(1, horizon - 1)

    targets = np.empty((n_agents, length))
    specs = []
    for m in range(n_agents):
        stream = carbon + gammas[m] * water + etas[m] * price
        stream = stream + noise_scales[m] * rng.standard_normal(length)
        targets[m] = np.clip(stream, 0.01, None)
        k = int(rng.integers(slot_lo, slot_hi + 1))
        initial = float(rng.uniform(0.0, 1.0))
        demand = initial + (k - float(rng.uniform(0.2, 0.8))) * rates[m]
        specs.append(
            AgentSpec(
                agent_id=m,
                family="charging",
                context=ChargingContext(
                    initial=initial,
                    demand=float(demand),
                    rate=float(rates[m]),
                    horizon=horizon,
                    water_weight=float(gammas[m]),
                    price_weight=float(etas[m]),
                ),
            )
        )

    reference = carbon + water_weight * water + price_weight * price
    if predict_target == "carbon":
        # the forecaster is trained on the carbon component only, but each
        # agent's decisions are still scored against its own mixed stream
        dataset = SeriesDataset(
            timestamps=np.arange(length),
            signal=carbon,
            agent_targets=carbon[None, :].repeat(n_agents, axis=0),
            outcome_targets=targets,
        )
    else:
        dataset = SeriesDataset(
            timestamps=np.arange(length),
            signal=reference,
            agent_targets=targets,
        )
    return specs, dataset


def synth_mixed(
    n_agents: int,
    horizon: int = 12,
    lambda_scheme: str = "grid",
    seed: int = 0,
    length: int = 600,
    water_weight: float = 1.0,
    price_weight: float = 1.0,
):
    """Mixed pool: one carbon forecaster serving data-center, vehicle and device chargers.

    A third of the pool (at least one) are data-center agents, and the rest
    split into vehicle chargers and device chargers (pure carbon, slow
    rates).  Every agent's forecast target is the carbon signal; a data-center
    agent's outcome stream is carbon too, and a charger's is its own mix.
    The config fields arrive checked by `harness.ExperimentConfig`; this checks the 3 agents a mixed pool needs.
    """
    if n_agents < 3:
        raise ConfigError(f"a mixed pool needs at least 3 agents (data center, vehicle, device), got {n_agents}")
    rng = np.random.default_rng(seed)
    n_dc = max(1, n_agents // 3)
    n_ev = max(1, (n_agents - n_dc) // 2)
    n_dev = max(1, n_agents - n_dc - n_ev)
    carbon, water, price = grid_components(length, seed)

    specs = []
    outcomes = []
    lams = np.linspace(2.0, 100.0, n_dc) if lambda_scheme == "grid" else np.full(n_dc, 2.0)
    for i in range(n_dc):
        wl = float(rng.uniform(2.0, 8.0))
        specs.append(AgentSpec(len(specs), "datacenter", DataCenterContext(workload=wl, latency_weight=float(lams[i]))))
        outcomes.append(carbon)
    for i in range(n_ev + n_dev):
        is_device = i >= n_ev
        gamma = 0.0 if is_device else float(rng.uniform(0.5, 1.5)) * water_weight
        eta = 0.0 if is_device else float(rng.uniform(0.5, 1.5)) * price_weight
        rate = float(rng.uniform(0.05, 0.2)) if is_device else float(rng.uniform(1.0, 3.0))
        k = int(rng.integers(2, max(3, horizon - 1)))
        initial = float(rng.uniform(0.0, 0.5)) * rate
        demand = initial + (k - float(rng.uniform(0.2, 0.8))) * rate
        ctx = ChargingContext(
            initial=initial, demand=demand, rate=rate, horizon=horizon, water_weight=gamma, price_weight=eta,
        )
        specs.append(AgentSpec(len(specs), "charging", ctx))
        outcomes.append(np.clip(carbon + gamma * water + eta * price, 0.01, None))

    dataset = SeriesDataset(
        timestamps=np.arange(length),
        signal=carbon,
        agent_targets=carbon[None, :].repeat(len(specs), axis=0),
        outcome_targets=np.stack(outcomes),
    )
    return specs, dataset


def heterogeneity_summary(dataset: SeriesDataset) -> dict:
    """Spread of per-agent streams, reported as 1-D Wasserstein distances to agent 0."""
    out = {}
    for name in ("agent_targets", "workloads"):
        arr = getattr(dataset, name)
        if arr is None or arr.shape[0] < 2:
            continue
        ref = np.sort(arr[0])
        dists = [float(np.mean(np.abs(np.sort(arr[m]) - ref))) for m in range(1, arr.shape[0])]
        out[name] = {"min": min(dists), "max": max(dists)}
    return out


# ---------------------------------------------------------------------------
# CSV ingestion

_WORKLOAD_COLUMNS = ["timestamp", "agent_id", "demand"]


def _read_rows(path, columns: list[str]) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A CSV file's header, naming each of `columns` once, and its data rows, none longer, as (line number, cells)."""
    header, rows = None, []
    for lineno, line in enumerate(read_text(path, SchemaError).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in next(csv.reader([line]))]
        if header is None:
            header = cells
            twice = [c for c in columns if cells.count(c) > 1]
            if twice:
                raise SchemaError(f"{path}:{lineno}: header {header} names column(s) {twice} more than once")
        elif len(cells) > len(header):
            raise SchemaError(f"{path}:{lineno}: row has {len(cells)} cells but the header has {len(header)}")
        else:
            rows.append((lineno, cells))
    if header is None:
        raise SchemaError(f"{path}: no header row found")
    missing = [c for c in columns if c not in header]
    if missing:
        raise SchemaError(f"{path}: header {header} is missing column(s) {missing}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return header, rows


def _number(path, header: list[str], lineno: int, cells: list[str], column: str) -> float:
    """A row's cell in `column`, which must be a finite number."""
    at = header.index(column)
    if at >= len(cells):
        raise SchemaError(f"{path}:{lineno}: row has no '{column}' cell")
    try:
        value = float(cells[at])
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: column '{column}' is not numeric: {cells[at]!r}") from exc
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{lineno}: column '{column}' is not finite: {cells[at]!r}")
    return value


def load_series(path, column: str) -> tuple[np.ndarray, np.ndarray]:
    """A series file's timestamps, which must increase strictly, and its values in `column`."""
    header, rows = _read_rows(path, ["timestamp", column])
    ts, values = [], []
    for lineno, cells in rows:
        ts.append(_number(path, header, lineno, cells, "timestamp"))
        values.append(_number(path, header, lineno, cells, column))
    ts = np.asarray(ts)
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise SchemaError(f"{path}: timestamps must be strictly increasing (row {bad + 2})")
    return ts, np.asarray(values)


def load_workloads(path) -> tuple[np.ndarray, list[int], np.ndarray]:
    """A workload file's timestamps, its agent ids, sorted, and their (agents, timestamps) demands.

    One row per (timestamp, agent); every agent must have the first agent's
    timestamps, increasing strictly.
    """
    header, rows = _read_rows(path, _WORKLOAD_COLUMNS)
    per_agent: dict[int, list[tuple[float, float]]] = {}
    for lineno, cells in rows:
        t = _number(path, header, lineno, cells, "timestamp")
        a = _number(path, header, lineno, cells, "agent_id")
        if not a.is_integer():  # int() would read 1.5 as agent 1
            raise SchemaError(f"{path}:{lineno}: column 'agent_id' is not an integer: {cells[header.index('agent_id')]!r}")
        d = _number(path, header, lineno, cells, "demand")
        if d <= 0:
            raise SchemaError(f"{path}:{lineno}: demand must be positive, got {d}")
        per_agent.setdefault(int(a), []).append((t, d))
    agent_ids = sorted(per_agent)
    ts0 = [t for t, _ in per_agent[agent_ids[0]]]
    if any(ts0[i] >= ts0[i + 1] for i in range(len(ts0) - 1)):
        raise SchemaError(f"{path}: timestamps must be strictly increasing per agent")
    for a in agent_ids:
        if [t for t, _ in per_agent[a]] != ts0:
            raise SchemaError(f"{path}: agent {a} does not cover the same timestamps as agent {agent_ids[0]}")
    return np.asarray(ts0), agent_ids, np.asarray([[d for _, d in per_agent[a]] for a in agent_ids])


def _write_rows(path, comment: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(path, timestamps, values, column: str, comment: str) -> None:
    _write_rows(path, comment, ["timestamp", column], ([int(t), repr(float(v))] for t, v in zip(timestamps, values)))


def write_workload_csv(path, timestamps, workloads, comment: str) -> None:
    rows = ([int(t), m, repr(float(v))] for m in range(len(workloads)) for t, v in zip(timestamps, workloads[m]))
    _write_rows(path, comment, _WORKLOAD_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Windowing and splits


@dataclass(frozen=True, eq=False)
class Part:
    """One part ("train" or "test") of a pool's windows: M agents x n rows, stacked in agent order.

    Agent m owns rows m*n .. (m+1)*n - 1 of every array, n = len(x) // M.
    Features are z-scored per column with the train windows' statistics;
    targets, outcomes and workloads stay raw (the one target transform is the
    pool's, `training.PoolData`).
    """

    x: np.ndarray  # (R, lookback) feature windows
    y_raw: np.ndarray  # (R, steps) forecast targets
    outcome: np.ndarray  # (R, steps) realized decision inputs over the same steps (`y_raw` itself by default)
    workload: np.ndarray  # (R,) realized workload at the first step
    n_agents: int  # M


@dataclass(frozen=True, eq=False)
class PoolWindows:
    """A pool's windows, drawn once for all its agents."""

    train: Part
    test: Part


def _windows(series: np.ndarray, first: int, width: int, count: int) -> np.ndarray:
    """View of series[..., first + i : first + i + width] for i < count, shaped (..., count, width)."""
    return sliding_window_view(series[..., first : first + width + count - 1], width, axis=-1)


def window_split(signal, targets, outcomes, workloads, lookback: int, split: SplitSpec, steps: int = 1) -> PoolWindows:
    """Window a pool's series once: lookback windows of the shared `signal`, each agent's next `steps` values.

    `targets`, `outcomes` (None: the targets) and `workloads` are (M, N)
    series, one row per agent.  Window i's features are
    signal[i : i + lookback]; agent m's row of it predicts
    targets[m, i + lookback :][:steps], scores its decision against the same
    steps of outcomes[m] and reads workloads[m, i + lookback].
    One permutation of the windows (the time order when `split` is
    chronological) makes the train and test parts, the same for every agent.
    Every array returned is a copy: nothing aliases the input.
    """
    signal = np.asarray(signal, dtype=float)
    targets, workloads = np.asarray(targets, dtype=float), np.asarray(workloads, dtype=float)
    outcomes = targets if outcomes is None else np.asarray(outcomes, dtype=float)
    n = signal.shape[0]
    if signal.ndim != 1 or targets.shape[1:] != (n,) or not targets.shape == outcomes.shape == workloads.shape:
        raise ValueError(
            f"need a 1-D signal and (agents, {n}) target, outcome and workload series, "
            f"got {signal.shape}, {targets.shape}, {outcomes.shape} and {workloads.shape}"
        )
    n_windows = n - lookback - steps + 1
    if n_windows < 1:
        raise ConfigError(f"series of length {n} is too short for lookback {lookback} + horizon {steps}")

    n_train = int(round(split.train_fraction * n_windows))
    n_train = min(max(n_train, 1), n_windows - 1) if n_windows > 1 else 1
    if split.chronological:
        order = np.arange(n_windows)
    else:
        order = np.random.default_rng(split.seed).permutation(n_windows)
    train_idx, test_idx = np.sort(order[:n_train]), np.sort(order[n_train:])

    # read-only strided views of the series; the parts below are
    # fancy-indexed copies of them
    X = _windows(signal, 0, lookback, n_windows)
    Y = _windows(targets, lookback, steps, n_windows)
    outcome = _windows(outcomes, lookback, steps, n_windows)
    f_mean = X[train_idx].mean(axis=0)
    f_std = X[train_idx].std(axis=0)
    f_std = np.where(f_std < 1e-9, 1.0, f_std)

    def part(idx):
        y_raw = Y[:, idx].reshape(-1, steps)
        return Part(
            x=np.tile((X[idx] - f_mean) / f_std, (len(targets), 1)),
            y_raw=y_raw,
            outcome=y_raw if outcomes is targets else outcome[:, idx].reshape(-1, steps),
            workload=workloads[:, lookback + idx].ravel(),
            n_agents=len(targets),
        )

    return PoolWindows(part(train_idx), part(test_idx))
