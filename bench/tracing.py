"""Outside-in tracing of equicast's layers for the benchmark's traced runs.

`Tracer` replaces a fixed set of module attributes with wrappers that record
one span per call: (id, name, start, end, parent, run, count).  `count` is
the rows a batched call processed, or the steps a `train` call ran.  Spans
live in one flat float array while the run lasts and are written out once
at the end.  Wrapping happens at the binding the program actually calls:
`training` imports the agent functions by name at import time, so those are
wrapped as `equicast.training.<name>`, and `harness` does the same with
`window_split`; `predictor`, `objective`, `training` and `verify` functions
are reached through their module attribute.  A module's own functions look
their siblings up through the same attribute, so such internal calls are
traced too (`objective.pg_batch_grad` -> `equitable_loss` in `verify`).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


# (module, attribute, span name, how to count the work of one call)
# count: None, i for the rows of positional argument i, or "steps" for the
# length of a TrainResult's step log.
LAYERS = (
    ("equicast.harness", "build_pool", "harness.build_pool", None),
    ("equicast.harness", "window_split", "data.window_split", None),
    ("equicast.harness", "run_experiment", "harness.run_experiment", None),
    ("equicast.predictor", "init_params", "predictor.init_params", None),
    ("equicast.predictor", "forward_batch", "predictor.forward_batch", 1),
    ("equicast.predictor", "vjp_batch", "predictor.vjp_batch", 1),
    ("equicast.training", "ev_regret_batch", "agents.ev_regret_batch", 1),
    ("equicast.training", "dc_regret_batch", "agents.dc_regret_batch", 2),
    ("equicast.training", "regret", "agents.regret", None),
    ("equicast.training", "dc_act", "agents.dc_act", None),
    ("equicast.training", "dc_act_jacobian", "agents.dc_act_jacobian", None),
    ("equicast.training", "dc_cost_grad_action", "agents.dc_cost_grad_action", None),
    ("equicast.objective", "chain_grad", "objective.chain_grad", 1),
    ("equicast.objective", "equitable_loss", "objective.equitable_loss", None),
    ("equicast.training", "train", "training.train", "steps"),
    ("equicast.training", "evaluate", "training.evaluate", None),
    ("equicast.verify", "check_decision_oracles", "verify.decision_oracles", None),
    ("equicast.verify", "check_chain_gradient", "verify.chain_gradient", None),
    ("equicast.verify", "check_pg_estimator", "verify.pg_estimator", None),
    ("equicast.verify", "check_theorem_variance", "verify.theorem_variance", None),
    ("equicast.verify", "check_theorem_entropy", "verify.theorem_entropy", None),
    ("equicast.verify", "check_dual_norm", "verify.dual_norm", None),
)
OP = "bench.op"  # root span of one benchmark operation
NAMES = (OP,) + tuple(layer[2] for layer in LAYERS)
FIELDS = ("id", "name", "start", "end", "parent", "run", "count")

# per-step layers reported by the traced run, with whether rows are counted
PER_STEP = (
    ("predictor.forward_batch", True),
    ("predictor.vjp_batch", True),
    ("agents.ev_regret_batch", True),
    ("agents.dc_regret_batch", True),
    ("agents.regret", False),
    ("agents.dc_act", False),
    ("agents.dc_act_jacobian", False),
    ("agents.dc_cost_grad_action", False),
    ("objective.chain_grad", True),
)
SUITES = tuple(name for name in NAMES if name.startswith("verify."))


class Tracer:
    """Records spans around the layer functions during traced operations."""

    def __init__(self):
        self._buf = array("d")
        self._stack = [-1]
        self._next_id = 0
        self._run = -1

    def op(self, run: int, fn, *args):
        """Call `fn(*args)` as benchmark operation `run` with every layer wrapped.

        The operation gets a root span; the original functions are restored
        when it returns or raises.
        """
        self._run = run
        saved = []
        try:
            for module_name, attr, span_name, count in LAYERS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, NAMES.index(span_name), count))
            return self._wrap(fn, NAMES.index(OP), None)(*args)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name_id, count):
        buf, stack = self._buf, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            n = len(args[count]) if isinstance(count, int) else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count == "steps":
                    n = len(result.step_log)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.extend((span_id, name_id, start, end, parent, self._run, n))

        return wrapper

    def spans(self) -> np.ndarray:
        """All spans as an (n, 7) array in id order (parents before children)."""
        table = np.frombuffer(self._buf, dtype=float).reshape(-1, len(FIELDS))
        return table[np.argsort(table[:, 0], kind="stable")]

    def save(self, path) -> None:
        np.savez(path, spans=self.spans(), fields=np.array(FIELDS), names=np.array(NAMES))


def layer_metrics(spans: np.ndarray) -> dict:
    """Per-layer counts and times from a span table; see bench/README.md."""
    ids = spans[:, 0].astype(np.int64)
    assert np.array_equal(ids, np.arange(len(ids))), "span ids must be dense"
    name = spans[:, 1].astype(np.int64)
    dur = spans[:, 3] - spans[:, 2]
    parent = spans[:, 4].astype(np.int64)
    count = spans[:, 6]
    n = len(ids)

    # a parent is always created before its children, so one forward pass
    # settles "inside a train call" and one backward pass the self times
    train_id = NAMES.index("training.train")
    in_train = np.zeros(n, dtype=bool)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            in_train[i] = in_train[p] or name[p] == train_id
    child_time = np.zeros(n)
    np.add.at(child_time, parent[parent >= 0], dur[parent >= 0])
    self_time = dur - child_time

    def sel(layer, train_only=False):
        mask = name == NAMES.index(layer)
        return mask & in_train if train_only else mask

    def per_call_ms(layer):
        mask = sel(layer)
        return 1000.0 * float(dur[mask].sum()) / max(int(mask.sum()), 1)

    trains = sel("training.train")
    steps = float(count[trains].sum())
    per_step = 1.0 / steps if steps else 0.0
    m = {}
    pools = max(int(sel("harness.build_pool").sum()), 1)
    m["data.window_split.calls"] = int(sel("data.window_split").sum()) / pools
    m["data.window_split.ms"] = 1000.0 * float(dur[sel("data.window_split")].sum()) / pools
    m["harness.build_pool.ms"] = per_call_ms("harness.build_pool")
    m["predictor.init_params.ms"] = per_call_ms("predictor.init_params")
    for layer, with_rows in PER_STEP:
        mask = sel(layer, train_only=True)
        m[f"{layer}.calls_per_step"] = int(mask.sum()) * per_step
        if with_rows:
            m[f"{layer}.rows_per_step"] = float(count[mask].sum()) * per_step
        m[f"{layer}.ms_per_step"] = 1000.0 * float(dur[mask].sum()) * per_step
    fwd_rows = m["predictor.forward_batch.rows_per_step"]
    m["predictor.vjp_rows_per_forward_row"] = (
        m["predictor.vjp_batch.rows_per_step"] / fwd_rows if fwd_rows else 0.0
    )
    m["objective.equitable_loss.ms_per_step"] = (
        1000.0 * float(dur[sel("objective.equitable_loss", train_only=True)].sum()) * per_step
    )
    m["training.train.ms_per_step"] = 1000.0 * float(dur[trains].sum()) * per_step
    m["training.train.self_ms_per_step"] = 1000.0 * float(self_time[trains].sum()) * per_step
    m["training.steps"] = steps / max(int(trains.sum()), 1) if steps else 0.0
    m["training.evaluate.ms"] = per_call_ms("training.evaluate")
    m["harness.run_experiment.ms"] = per_call_ms("harness.run_experiment")
    n_runs = max(int(sel(SUITES[0]).sum()), 1)  # one span per run_all
    for suite in SUITES:
        m[f"{suite}.s"] = float(dur[sel(suite)].sum()) / n_runs
    return m
