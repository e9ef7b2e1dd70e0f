import numpy as np
import pytest

from tickpred.quantize import (
    QuantizationScheme,
    fixed_count_scheme,
    fixed_interval_scheme,
    quantize_fixed,
    quantize_fixed_count,
    quantize_with,
)


def test_fixed_interval_is_floor_division():
    assert fixed_interval_scheme(0.01).states_of([1023]).tolist() == [1023]
    assert fixed_interval_scheme(0.05).states_of([1023]).tolist() == [204]  # floor(204.6)


def test_constant_series_has_one_state():
    seq = quantize_fixed(np.full(10, 1023, dtype=np.int64), 0.05)
    assert seq.n_distinct == 1


def test_interval_below_precision_rejected():
    with pytest.raises(ValueError, match=">= 0.01"):
        fixed_interval_scheme(0.005)
    with pytest.raises(ValueError, match="multiple of 0.01"):
        fixed_interval_scheme(0.0123)


def test_fixed_count_derived_width():
    scheme = fixed_count_scheme([1000, 1500], 100)
    assert scheme.interval_cny == pytest.approx(0.05)
    assert scheme.origin_cny == pytest.approx(10.0)


def test_fixed_count_edges_and_extension():
    prices = np.concatenate([np.array([1000, 1500]), np.array([1000, 1499, 1600])])
    seq = quantize_fixed_count(prices, sp=100, train_end=2)
    assert seq.states.tolist()[2:] == [0, 99, 120]  # open-ended above the training range


def test_fixed_count_clamps_below_origin():
    scheme = fixed_count_scheme([1000, 1500], 100)
    assert scheme.states_of([900]).tolist() == [0]


def test_fixed_count_degenerate_range_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        quantize_fixed_count(np.full(10, 1000, dtype=np.int64), sp=100, train_end=5)
    with pytest.raises(ValueError, match="train_end"):
        quantize_fixed_count(np.array([1000, 1500]), sp=100, train_end=1)
    with pytest.raises(ValueError, match=">= 2"):
        fixed_count_scheme([1000, 1500], 1)


def test_dequantize_midpoints():
    assert fixed_interval_scheme(0.05).prices_of([204]).tolist() == pytest.approx([10.225])
    assert fixed_interval_scheme(0.01).prices_of([1023]).tolist() == pytest.approx([10.235])
    scheme = fixed_count_scheme([1000, 1500], 100)
    assert scheme.prices_of([0]).tolist() == pytest.approx([10.025])


def test_round_trip_error_within_half_interval():
    rng = np.random.default_rng(3)
    prices = rng.integers(100, 5000, 500)
    for t in (0.01, 0.05, 0.20):
        scheme = fixed_interval_scheme(t)
        recovered = scheme.prices_of(scheme.states_of(prices))
        assert np.all(np.abs(recovered - prices / 100.0) <= t / 2 + 1e-12)


def test_coarser_interval_merges_states():
    rng = np.random.default_rng(4)
    prices = 1000 + np.cumsum(rng.integers(-2, 3, 2000))
    fine = quantize_fixed(prices, 0.01)
    coarse = quantize_fixed(prices, 0.05)
    assert coarse.n_distinct <= fine.n_distinct


def test_quantization_preserves_price_order():
    rng = np.random.default_rng(5)
    prices = np.sort(rng.integers(100, 3000, 300))
    for scheme in (fixed_interval_scheme(0.05), fixed_count_scheme(prices, 40)):
        states = scheme.states_of(prices)
        assert (np.diff(states) >= 0).all()


def test_scheme_json_round_trip():
    for scheme in (fixed_interval_scheme(0.05), fixed_count_scheme([1000, 1500], 100)):
        assert QuantizationScheme.from_json(scheme.to_json()) == scheme


def test_n_distinct_counts_distinct_states():
    seq = quantize_with(np.array([100, 101, 100, 350]), fixed_interval_scheme(0.01))
    assert seq.n_distinct == 3
    assert (seq.states >= 0).all()
