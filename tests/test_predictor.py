import json

import numpy as np
import pytest

from equicast import predictor
from equicast.errors import ConfigError


def forward_row(params, x):
    """The network's output for one window, as a one-row batch."""
    return predictor.forward_batch(params, np.asarray(x, dtype=float)[None, :])[0]


def vjp_row(params, x, cotangent):
    """cotangent . d(output)/d(params) for one window, as a one-row batch."""
    X = np.asarray(x, dtype=float)[None, :]
    _, acts = predictor.forward_batch(params, X, keep=True)
    return predictor.vjp_batch(params, X, np.asarray(cotangent, dtype=float)[None, :], acts)


def fd_gradient(params, x, cotangent, h=1e-5):
    """Central finite differences of cotangent . forward_row(params, x) over params."""
    grad = np.zeros(params.values.size)
    for i in range(params.values.size):
        v = params.values.copy()
        v[i] += h
        up = float(cotangent @ forward_row(params.with_values(v), x))
        v[i] -= 2 * h
        dn = float(cotangent @ forward_row(params.with_values(v), x))
        grad[i] = (up - dn) / (2 * h)
    return grad


def test_init_deterministic():
    a = predictor.init_params([2, 1], seed=7)
    b = predictor.init_params([2, 1], seed=7)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, predictor.init_params([2, 1], seed=8).values)


def test_init_layout_arithmetic():
    p = predictor.init_params([2, 3, 1], seed=0)
    assert p.values.size == 2 * 3 + 3 + 3 * 1 + 1
    assert p.layer_sizes == (2, 3, 1)


def test_init_rejects_bad_arch():
    with pytest.raises(ConfigError):
        predictor.init_params([], seed=0)
    with pytest.raises(ConfigError):
        predictor.init_params([3], seed=0)
    with pytest.raises(ConfigError):
        predictor.init_params([3, 0, 1], seed=0)


def test_init_bounds_and_zero_bias():
    p = predictor.init_params([9, 4, 2], seed=3)
    (w1, b1), (w2, b2) = p.layers
    assert np.all(np.abs(w1) <= 1 / 3) and np.all(np.abs(w2) <= 1 / 2)
    assert np.all(b1 == 0) and np.all(b2 == 0)


def test_layers_are_views_that_see_in_place_updates():
    # train's optimizer updates the values in place between steps
    p = predictor.init_params([3, 4, 2], seed=4)
    assert [(w.shape, b.shape) for w, b in p.layers] == [((4, 3), (4,)), ((2, 4), (2,))]
    assert all(np.shares_memory(part, p.values) for layer in p.layers for part in layer)
    X = np.array([[0.5, -1.0, 2.0]])
    before = predictor.forward_batch(p, X)
    p.values[-1] += 1.0  # the last output's bias
    after = predictor.forward_batch(p, X)
    assert after[0, 1] == pytest.approx(before[0, 1] + 1.0) and after[0, 0] == before[0, 0]
    p.values[:] = 0.0
    assert np.all(predictor.forward_batch(p, X) == 0.0)


@pytest.mark.parametrize("sizes", [[], [3], [3, 0, 1], [2, -1], (0, 1)])
def test_construction_refuses_bad_layer_sizes(sizes):
    with pytest.raises(ConfigError, match="architecture needs|must be >= 1"):
        predictor.ParamVector(values=np.zeros(3), layer_sizes=sizes)


@pytest.mark.parametrize("values, message", [
    (np.zeros(2), r"shape \(2,\), layer sizes \[2, 1\] need \(3,\)"),
    (np.zeros((1, 3)), "shape"),
    (np.array([0.0, np.nan, 1.0]), "non-finite"),
])
def test_construction_refuses_bad_values(values, message):
    with pytest.raises(ConfigError, match=message):
        predictor.ParamVector(values=values, layer_sizes=(2, 1))


def test_forward_linear_layer():
    # single linear layer, weights [1, 1], bias 0: x=[2,3] -> [5]
    p = predictor.ParamVector(values=np.array([1.0, 1.0, 0.0]), layer_sizes=(2, 1))
    assert forward_row(p, np.array([2.0, 3.0]))[0] == pytest.approx(5.0)


def test_forward_zero_params():
    p = predictor.init_params([3, 4, 2], seed=0).with_values(np.zeros(3 * 4 + 4 + 4 * 2 + 2))
    assert np.all(forward_row(p, np.array([0.3, -2.0, 5.0])) == 0.0)


def test_forward_pure():
    p = predictor.init_params([4, 5, 2], seed=1)
    x = np.array([0.1, -0.2, 0.5, 1.0])
    first = forward_row(p, x)
    second = forward_row(p, x)
    assert np.array_equal(first, second)


def test_forward_dimension_mismatch():
    p = predictor.init_params([4, 2], seed=0)
    with pytest.raises(ValueError):
        predictor.forward_batch(p, np.ones((1, 3)))


def test_vjp_linear_model():
    p = predictor.ParamVector(values=np.array([0.7, -0.3, 0.2]), layer_sizes=(2, 1))
    g = vjp_row(p, np.array([2.0, 3.0]), np.array([1.0]))
    assert g == pytest.approx([2.0, 3.0, 1.0])


def test_vjp_zero_cotangent():
    p = predictor.init_params([3, 4, 2], seed=2)
    g = vjp_row(p, np.ones(3), np.zeros(2))
    assert np.all(g == 0.0)


def test_vjp_matches_finite_differences_many_seeds():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = predictor.init_params([3, 5, 2], seed=seed)
        x = rng.uniform(-1, 1, size=3)
        cot = rng.uniform(-1, 1, size=2)
        g = vjp_row(p, x, cot)
        fd = fd_gradient(p, x, cot)
        scale = max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
    assert worst < 1e-4


def test_vjp_batch_is_sum_of_rows():
    rng = np.random.default_rng(5)
    p = predictor.init_params([4, 3, 2], seed=5)
    X = rng.uniform(-1, 1, size=(6, 4))
    cots = rng.uniform(-1, 1, size=(6, 2))
    _, acts = predictor.forward_batch(p, X, keep=True)
    batch = predictor.vjp_batch(p, X, cots, acts)
    rows = sum(vjp_row(p, X[i], cots[i]) for i in range(6))
    assert np.allclose(batch, rows, atol=1e-12)


def test_vjp_batch_takes_only_its_own_forward_pass():
    rng = np.random.default_rng(6)
    p = predictor.init_params([4, 5, 3, 2], seed=6)
    X = rng.uniform(-1, 1, size=(7, 4))
    cots = rng.uniform(-1, 1, size=(7, 2))
    out, acts = predictor.forward_batch(p, X, keep=True)
    assert np.array_equal(out, predictor.forward_batch(p, X))
    # a copy of the batch is the same batch
    assert np.array_equal(predictor.vjp_batch(p, X.copy(), cots, acts), predictor.vjp_batch(p, X, cots, acts))
    with pytest.raises(ValueError, match="this batch"):
        predictor.vjp_batch(p, X + 1.0, cots, acts)
    with pytest.raises(ValueError, match="this batch"):
        predictor.vjp_batch(p, X, cots, acts._replace(layers=acts.layers[:-1]))
    # a batch of another shape is another batch
    for other in (X[:, :3], X[:5], X[0], 1.0):
        with pytest.raises(ValueError, match="this batch"):
            predictor.vjp_batch(p, other, cots, acts)
    for bad in (cots[:, :1], cots[:6], cots[0], cots.T):
        with pytest.raises(ValueError, match=r"expected cotangents of shape \(7, 2\)"):
            predictor.vjp_batch(p, X, bad, acts)
    # activations of other parameters, e.g. of an earlier step, are refused
    for other in (predictor.init_params([4, 5, 3, 2], seed=7), p.with_values(p.values - 0.1)):
        _, theirs = predictor.forward_batch(other, X, keep=True)
        with pytest.raises(ValueError, match="parameter values"):
            predictor.vjp_batch(p, X, cots, theirs)


def _reference_forward(params, X):
    """The activations [X, h1, ..., output], each layer a new array: `forward_batch` without its in-place ops."""
    acts = [X]
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        z = acts[-1] @ w.T + b
        acts.append(z if i == last else np.tanh(z))
    return acts


def _reference_vjp(params, acts, cot):
    """`vjp_batch` as per-layer gradients joined by `np.concatenate`."""
    grads, delta = [None] * len(params.layers), cot
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w) * (1.0 - acts[i] ** 2)
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 9001])
@pytest.mark.parametrize("n_rows", [1, 7, 320])
@pytest.mark.parametrize("arch", [[12, 16, 1], [12, 16, 12], [6, 5, 4, 3]])
def test_network_ops_are_bitwise_their_out_of_place_forms(arch, n_rows, seed):
    rng = np.random.default_rng(seed)
    p = predictor.init_params(arch, seed=seed)
    p = p.with_values(p.values + rng.uniform(-0.5, 0.5, p.values.size))  # nonzero biases
    X = rng.standard_normal((n_rows, arch[0]))
    cots = rng.standard_normal((n_rows, arch[-1]))
    out, acts = predictor.forward_batch(p, X, keep=True)
    reference = _reference_forward(p, X)
    assert len(acts.layers) == len(reference)
    assert all(_same_bits(a, r) for a, r in zip(acts.layers, reference))
    assert _same_bits(out, reference[-1])
    grad = predictor.vjp_batch(p, X, cots, acts)
    assert _same_bits(grad, _reference_vjp(p, reference, cots))
    # every call returns a new array: a second one leaves the first intact
    first = grad.copy()
    again = predictor.vjp_batch(p, X, 2.0 * cots, acts)
    assert again is not grad and not np.shares_memory(again, grad)
    assert _same_bits(grad, first)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = predictor.init_params([5, 7, 3], seed=11)
    path = tmp_path / "model.json"
    predictor.save_checkpoint(path, p, std=0.123456789012345, lookback=5, extra={"note": "x"})
    loaded, meta = predictor.load_checkpoint(path)
    assert np.array_equal(loaded.values, p.values)
    assert loaded.layer_sizes == p.layer_sizes == (5, 7, 3)
    assert meta["std"] == 0.123456789012345
    assert meta["lookback"] == 5
    assert meta["extra"] == {"note": "x"}


def test_checkpoint_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"layer_sizes": [2, 1], "values": [0, 0, 0]}))
    with pytest.raises(ConfigError):
        predictor.load_checkpoint(path)


def test_checkpoint_refuses_layer_sizes_that_cannot_run(tmp_path):
    # a zero-width layer and one value used to load as a model
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"layer_sizes": [12, 0, 1], "std": 0.1, "lookback": 12, "values": [0.0]}))
    with pytest.raises(ConfigError, match=r"zero.json: layer sizes must be >= 1, got \[12, 0, 1\]"):
        predictor.load_checkpoint(path)
