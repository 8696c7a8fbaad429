import math

import numpy as np
import pytest

from equicast import metrics


def test_variance_reference_values():
    assert metrics.variance([0.2, 0.4]) == pytest.approx(0.01, abs=1e-15)
    assert metrics.variance([3.0, 3.0, 3.0]) == 0.0
    assert metrics.variance([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_variance_population_normalization():
    v = np.array([1.0, 4.0, 7.0, 10.0])
    assert metrics.variance(v) == pytest.approx(float(np.mean((v - v.mean()) ** 2)), rel=1e-14)


def test_variance_empty_rejected():
    with pytest.raises(ValueError):
        metrics.variance([])
    # every other metric refuses its empty or malformed inputs too
    for call, message in (
        (lambda: metrics.percentile_gap([]), "percentile gap of an empty vector"),
        (lambda: metrics.norm_entropy([]), "entropy of an empty vector"),
        (lambda: metrics.norm_entropy([0.2, 0.4], exponent=0.0), "exponent must be positive, got 0.0"),
        (lambda: metrics.norm_entropy([0.2, 0.4], exponent=-1.0), "exponent must be positive, got -1.0"),
        (lambda: metrics.mse([[1.0]], [[1.0], [2.0]]), "1 prediction groups vs 2 target groups"),
        (lambda: metrics.mse([[1.0], []], [[1.0], []]), "empty agent group"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_percentile_gap_two_points():
    # ranks 0.05 and 0.95 on [1, 3]: 1.1 and 2.9
    assert metrics.percentile_gap([1.0, 3.0]) == pytest.approx(1.8, abs=1e-12)


def test_percentile_gap_1_to_100():
    # fractional ranks 4.95 and 94.05 -> values 5.95 and 95.05
    assert metrics.percentile_gap(np.arange(1, 101)) == pytest.approx(89.1, abs=1e-10)


def test_percentile_gap_constant_and_permutation():
    assert metrics.percentile_gap([2.5] * 7) == 0.0
    rng = np.random.default_rng(0)
    v = rng.uniform(size=19)
    assert metrics.percentile_gap(v) == pytest.approx(
        metrics.percentile_gap(rng.permutation(v)), rel=1e-14
    )


def test_percentile_gap_mean_preserving_spread():
    gaps = [metrics.percentile_gap([1.0 - d, 1.0 + d]) for d in (0.0, 0.1, 0.5, 1.0)]
    assert all(gaps[i] <= gaps[i + 1] for i in range(len(gaps) - 1))


def test_scale_equivariance():
    rng = np.random.default_rng(1)
    v = rng.uniform(0.1, 2.0, size=11)
    for c in (0.5, 3.0, 10.0):
        assert metrics.variance(c * v) == pytest.approx(c**2 * metrics.variance(v), rel=1e-12)
        assert metrics.percentile_gap(c * v) == pytest.approx(c * metrics.percentile_gap(v), rel=1e-12)


def test_norm_entropy_uniform_and_degenerate():
    assert metrics.norm_entropy([1.0, 1.0]) == pytest.approx(math.log(2), rel=1e-14)
    assert metrics.norm_entropy([1.0, 0.0]) == 0.0


def test_norm_entropy_exponent_two():
    # [1, 2] squared -> [0.2, 0.8]
    expected = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
    assert metrics.norm_entropy([1.0, 2.0], exponent=2.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5004, abs=5e-5)


def test_norm_entropy_all_zero_convention():
    assert metrics.norm_entropy([0.0, 0.0, 0.0]) == pytest.approx(math.log(3), rel=1e-14)


def test_norm_entropy_of_a_nan_row_is_nan():
    # a NaN is not a zero share: it must not drop out of the sum
    assert math.isnan(metrics.norm_entropy([np.nan, 1.0]))
    assert math.isnan(metrics.norm_entropy([np.nan, 0.0]))
    rows = [[np.nan, 1.0], [0.0, 0.0], [1.0, 0.0], [1.0, 3.0], [0.0, np.nan]]
    h = metrics.norm_entropy(rows, exponent=2.0)
    assert np.isnan(h).tolist() == [True, False, False, False, True]
    assert h[1:4].tolist() == [metrics.norm_entropy(r, exponent=2.0) for r in rows[1:4]]
    assert h[1] == pytest.approx(math.log(2), rel=1e-14)


def test_norm_entropy_of_an_infinite_row_is_nan():
    # an infinite value makes its share inf/inf = NaN, which must not drop out of the sum either
    assert math.isnan(metrics.norm_entropy([np.inf, 1.0]))
    assert math.isnan(metrics.norm_entropy([np.inf, np.inf]))
    with np.errstate(over="ignore"):
        assert math.isnan(metrics.norm_entropy([1e200, 1.0], exponent=2.0))  # overflows to inf
    rows = [[np.inf, 0.0], [0.0, 0.0], [1.0, 3.0], [np.inf, np.inf]]
    h = metrics.norm_entropy(rows)
    assert np.isnan(h).tolist() == [True, False, False, True]
    assert h[1:3].tolist() == [metrics.norm_entropy(r) for r in rows[1:3]]


def test_norm_entropy_scale_invariance_and_bounds():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        v = rng.uniform(0.0, 1.0, size=m)
        e = float(rng.uniform(0.5, 3.0))
        h = metrics.norm_entropy(v, e)
        assert -1e-12 <= h <= math.log(m) + 1e-12
        assert metrics.norm_entropy(4.2 * v, e) == pytest.approx(h, abs=1e-10)


def test_norm_entropy_max_iff_equal():
    assert metrics.norm_entropy([0.7, 0.7, 0.7]) == pytest.approx(math.log(3), rel=1e-14)
    assert metrics.norm_entropy([0.7, 0.7, 0.71]) < math.log(3)


def test_norm_entropy_rejects_negative():
    with pytest.raises(ValueError):
        metrics.norm_entropy([0.1, -0.2])


def test_norm_entropy_reduces_over_the_last_axis():
    rng = np.random.default_rng(4)
    rows = rng.uniform(0, 1, size=(2, 5, 12))
    rows[0, 1, 3] = rows[1, 2, 0] = 0.0  # a zero share, summed as the 1-D form sums it
    rows[1, 4] = 0.0  # an all-zero row
    for exponent in (1.0, 2.5):
        h = metrics.norm_entropy(rows, exponent)
        assert h.shape == (2, 5)
        for i, j in np.ndindex(2, 5):
            assert h[i, j] == metrics.norm_entropy(rows[i, j], exponent)
    assert metrics.norm_entropy(rows[1, 4]) == pytest.approx(math.log(12), rel=1e-14)
    assert isinstance(metrics.norm_entropy([1.0, 2.0]), float)
    # a scalar is a vector of one: a single share has zero entropy
    assert metrics.norm_entropy(3.0) == 0.0 and metrics.norm_entropy(0.0) == 0.0
    with pytest.raises(ValueError):
        metrics.norm_entropy(np.zeros((3, 0)))


def test_mse_per_agent_sum():
    assert metrics.mse([[0.0, 0.0]], [[1.0, 1.0]]) == pytest.approx(1.0)
    # two agents, each with unit residual on every sample
    assert metrics.mse([[0.0, 0.0], [2.0]], [[1.0, 1.0], [3.0]]) == pytest.approx(2.0)
    assert metrics.mse([[1.5, 2.5]], [[1.5, 2.5]]) == 0.0


def test_mse_vector_targets():
    preds = [np.zeros((2, 3))]
    targets = [np.ones((2, 3))]
    assert metrics.mse(preds, targets) == pytest.approx(3.0)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        metrics.mse([[1.0, 2.0]], [[1.0]])
