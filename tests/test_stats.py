import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy import stats as scipy_stats

import tickpred
from tickpred.stats import (
    PRICE_BIN_EDGES,
    VOLATILITY_BIN_EDGES,
    _betainc,
    anova_oneway,
    average_ranks,
    bin_feature,
    spearman,
    volatility,
)


# -- volatility --------------------------------------------------------------


def test_volatility_constant_prices_is_zero():
    assert volatility([5.0] * 10) == 0.0


def test_volatility_alternating_log_returns():
    e = math.e
    sigma = volatility([1.0, e, 1.0, e, 1.0])
    assert sigma == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)


def test_volatility_scale_invariant():
    rng = np.random.default_rng(31)
    for _ in range(50):
        prices = np.exp(rng.normal(0, 0.02, 50).cumsum()) * 10
        k = float(rng.uniform(0.1, 1000))
        assert volatility(prices * k) == pytest.approx(volatility(prices), rel=1e-9)


def test_volatility_sequence_length_convention():
    prices = [1.0, math.e, 1.0, math.e, 1.0]
    # 4 returns: denominator 3 under "returns", 4 under "sequence"
    assert volatility(prices, n_convention="sequence") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="n_convention"):
        volatility(prices, n_convention="weird")


def test_volatility_input_validation():
    with pytest.raises(ValueError, match="at least 3"):
        volatility([1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        volatility([1.0, -2.0, 3.0])


# -- spearman ----------------------------------------------------------------


def test_spearman_monotone_extremes():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_scipy():
    x, y = [1, 2, 2, 4], [1, 3, 2, 4]
    ours = spearman(x, y)
    assert ours == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)
    # average-rank value; ordinal first-occurrence ranking would give 0.8
    assert ours == pytest.approx(0.9486832980505139, abs=1e-12)


def test_spearman_random_against_scipy():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 10, n).astype(float)
        y = rng.normal(size=n)
        try:
            ours = spearman(x, y)
        except ValueError:
            assert len(np.unique(x)) == 1 or len(np.unique(y)) == 1
            continue
        assert ours == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)


def test_spearman_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(7)
    x = rng.uniform(1, 10, 50)
    y = rng.uniform(0, 1, 50)
    base = spearman(x, y)
    for f in (np.exp, np.log, lambda v: v**3 + 5):
        assert spearman(f(x), y) == pytest.approx(base, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="at least 3"):
        spearman([1, 2], [1, 2])
    with pytest.raises(ValueError, match="zero rank variance"):
        spearman([5, 5, 5], [1, 2, 3])


def test_average_ranks_assigns_tie_means():
    assert average_ranks([10, 20, 20, 40]).tolist() == [1.0, 2.5, 2.5, 4.0]


# -- anova -------------------------------------------------------------------


def test_anova_identical_groups_give_zero_f():
    res = anova_oneway({1: [3.0, 4.0, 5.0], 2: [3.0, 4.0, 5.0]})
    assert res.F == 0.0
    assert res.p == 1.0
    assert res.ssb == pytest.approx(0.0)


def test_anova_hand_decomposition():
    res = anova_oneway({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
    assert res.ssb == pytest.approx(13.5, abs=1e-9)
    assert res.sst - res.ssb == pytest.approx(4.0, abs=1e-9)
    assert res.F == pytest.approx(13.5, abs=1e-9)


def test_anova_eta2p_reference_arithmetic():
    # the ratio form: eta2p is SSB over SST
    assert 0.676 / 67.768 == pytest.approx(0.00998, abs=1e-5)
    res = anova_oneway({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
    assert res.eta2p == pytest.approx(res.ssb / res.sst, abs=1e-15)


def test_anova_sum_of_squares_decomposition():
    rng = np.random.default_rng(8)
    groups = {g: rng.normal(g * 0.1, 1.0, int(rng.integers(3, 20))) for g in range(6)}
    res = anova_oneway(groups)
    ssw = sum(float(np.sum((np.asarray(v) - np.mean(v)) ** 2)) for v in groups.values())
    assert res.sst == pytest.approx(res.ssb + ssw, rel=1e-9)
    assert 0.0 <= res.eta2p <= 1.0


def test_anova_p_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(20):
        groups = [rng.normal(rng.uniform(-0.3, 0.3), 1.0, int(rng.integers(4, 25))) for _ in range(4)]
        res = anova_oneway(dict(enumerate(groups)))
        ref = scipy_stats.f_oneway(*groups)
        assert res.F == pytest.approx(ref.statistic, rel=1e-10)
        assert res.p == pytest.approx(ref.pvalue, abs=1e-10)


def _assert_betainc_matches_scipy(a, b, x):
    """1e-12 relative error for a, b <= 250, 2e-11 beyond; below 1e-250 only 1e-250 absolute."""
    ref = special.betainc(a, b, x)
    ours = np.array([_betainc(float(ai), float(bi), float(xi)) for ai, bi, xi in zip(a, b, x)])
    tiny = ref < 1e-250
    assert np.all(np.abs(ours - ref)[tiny] <= 1e-250)
    bar = np.where((a <= 250) & (b <= 250), 1e-12, 2e-11)
    rel = np.abs(ours - ref)[~tiny] / ref[~tiny]
    worst = int(np.argmax(rel / bar[~tiny]))
    assert rel[worst] <= bar[~tiny][worst], (a[~tiny][worst], b[~tiny][worst], x[~tiny][worst], rel[worst])


def test_betainc_matches_scipy_on_a_grid():
    shapes = np.unique(np.concatenate([np.geomspace(0.5, 1900, 24), [1.0, 1.5, 2.0, 15.5, 250.0, 1916.5]]))
    xs = np.concatenate([np.geomspace(1e-8, 0.5, 24), 1.0 - np.geomspace(1e-8, 0.5, 24)])
    a, b, x = (g.ravel() for g in np.meshgrid(shapes, shapes, xs, indexing="ij"))
    _assert_betainc_matches_scipy(a, b, x)


def test_betainc_matches_scipy_on_f_test_shapes():
    # the ANOVA p-value: I_x(d2 / 2, d1 / 2) at x = d2 / (d2 + d1 F), k <= 32 groups, n <= 3,834 stocks
    k, n, f = np.meshgrid(
        np.arange(2, 33),
        np.unique(np.concatenate([np.geomspace(33, 3834, 16).round(), [40, 250, 500, 3834]])),
        np.geomspace(1e-4, 1e3, 20),
        indexing="ij",
    )
    d1, d2 = (k - 1).ravel(), (n - k).ravel()
    _assert_betainc_matches_scipy(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f.ravel()))


def test_betainc_edges():
    for a, b in ((0.5, 0.5), (3.0, 1916.5), (250.0, 2.0)):
        assert _betainc(a, b, 0.0) == 0.0 == special.betainc(a, b, 0.0)
        assert _betainc(a, b, 1.0) == 1.0 == special.betainc(a, b, 1.0)
        assert math.isnan(_betainc(a, b, math.nan)) and math.isnan(special.betainc(a, b, math.nan))


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(tickpred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, tickpred.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_anova_degenerate_grouping_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        anova_oneway({1: [1.0, 2.0]})
    with pytest.raises(ValueError, match="non-empty"):
        anova_oneway({1: [1.0], 2: []})
    with pytest.raises(ValueError, match="more observations"):
        anova_oneway({1: [1.0], 2: [2.0]})


# -- binning ------------------------------------------------------------------


def test_bin_feature_price_table():
    assert bin_feature([3.5], PRICE_BIN_EDGES) == [2]  # the 3-4 band
    assert bin_feature([60.0], PRICE_BIN_EDGES) == [11]  # the 50+ band
    assert bin_feature([0.0], PRICE_BIN_EDGES) == [1]


def test_bin_feature_volatility_table():
    assert bin_feature([0.08], VOLATILITY_BIN_EDGES) == [9]  # the 0.07+ band
    assert bin_feature([0.005], VOLATILITY_BIN_EDGES) == [1]


def test_bin_feature_clamps_below_first_edge():
    assert bin_feature([-1.0], (0.0, 1.0, 2.0)) == [1]


def test_bin_feature_half_open_edges():
    assert bin_feature([3.0, 3.999999, 4.0], PRICE_BIN_EDGES) == [2, 2, 3]


def test_bin_feature_total_on_random_values():
    rng = np.random.default_rng(10)
    values = rng.uniform(-5, 100, 500)
    indices = bin_feature(values, PRICE_BIN_EDGES)
    assert all(1 <= i <= len(PRICE_BIN_EDGES) for i in indices)


def test_bin_feature_bad_edges_rejected():
    with pytest.raises(ValueError, match="empty"):
        bin_feature([1.0], ())
    with pytest.raises(ValueError, match="strictly increasing"):
        bin_feature([1.0], (0.0, 0.0, 1.0))
