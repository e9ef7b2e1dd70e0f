import math

import numpy as np
import pytest

from tickpred.predictability import binary_entropy, fano_objective, fano_solve


def test_zero_entropy_gives_certainty():
    assert fano_solve(0.0, 5) == 1.0


def test_one_bit_over_two_states():
    assert fano_solve(1.0, 2) == pytest.approx(0.5, abs=1e-9)


def test_two_bits_over_ten_states():
    assert fano_solve(2.0, 10) == pytest.approx(0.6609, abs=1e-3)


def test_single_state_is_fully_predictable():
    assert fano_solve(1.5, 1) == 1.0


def test_zero_states_rejected():
    with pytest.raises(ValueError, match=">= 1"):
        fano_solve(1.0, 0)


def test_out_of_range_entropy_clamps():
    assert fano_solve(10.0, 4) == pytest.approx(0.25)
    assert fano_solve(-0.5, 4) == 1.0
    assert fano_solve(math.inf, 4) == 0.25
    assert fano_solve(-math.inf, 4) == 1.0


def test_nan_entropy_rejected():
    with pytest.raises(ValueError, match="NaN"):
        fano_solve(math.nan, 5)


def test_objective_endpoints():
    for n in (2, 5, 100):
        assert fano_objective(1.0 / n, n) == pytest.approx(math.log2(n), abs=1e-12)
        assert fano_objective(1.0, n) == pytest.approx(0.0, abs=1e-12)


def test_objective_strictly_decreasing_on_bracket():
    for n in (2, 7, 50):
        grid = np.linspace(1.0 / n, 1.0, 200)
        values = [fano_objective(p, n) for p in grid]
        assert all(a > b - 1e-12 for a, b in zip(values, values[1:]))


def test_residuals_on_random_pairs():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(2, 1000))
        s = float(rng.uniform(0.01, 0.99)) * math.log2(n)
        p = fano_solve(s, n)
        worst = max(worst, abs(fano_objective(p, n) - s))
        assert 1.0 / n <= p <= 1.0
    assert worst < 1e-9


def test_bound_decreases_with_entropy():
    bounds = [fano_solve(s, 10) for s in (0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_bound_increases_with_state_count_at_fixed_entropy():
    # the objective grows with N at fixed p, so the root moves up: the same
    # entropy spread over more states is relatively more structure
    bounds = [fano_solve(1.5, n) for n in (3, 5, 10, 50, 500)]
    assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_binary_entropy_conventions():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
