"""Match-length and entropy estimator tests against independent oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickpred.entropy import estimate_entropy, match_lengths, match_lengths_fast
from tickpred.quantize import quantize_fixed
from tickpred.synthetic import periodic_sequence, random_walk_series


def brute_match_lengths(states):
    """O(n^3) oracle: literal substring scan over the character-encoded sequence."""
    s = "".join(chr(int(x)) for x in states)
    n = len(s)
    out = []
    for i in range(n):
        tail = n - i
        lam = tail + 1
        for k in range(1, tail + 1):
            if s[i : i + k] not in s[:i]:
                lam = k
                break
        out.append(lam)
    return out


def closed_form_all_identical(n):
    """For a constant sequence the unseen length at 1-based position i is min(i, n-i+2)."""
    return [1] + [min(i, n - i + 2) for i in range(2, n + 1)]


def test_alternating_pair_matches_oracle():
    expected = brute_match_lengths([5, 7, 5, 7])
    assert expected == [1, 1, 3, 2]
    assert match_lengths([5, 7, 5, 7]).tolist() == expected
    assert match_lengths_fast([5, 7, 5, 7]).tolist() == expected


def test_all_identical_closed_form():
    seq = np.zeros(100, dtype=np.int64)
    closed = closed_form_all_identical(100)
    assert brute_match_lengths(seq) == closed
    lam = match_lengths(seq)
    assert lam.tolist() == closed
    assert match_lengths_fast(seq).tolist() == closed
    # the closed form sums to 2600 for n=100 (and to 2651 only at n=101)
    assert lam.sum() == 2600
    assert sum(closed_form_all_identical(101)) == 2651


def test_all_distinct_states_never_match():
    lam = match_lengths_fast(np.arange(50))
    assert (lam == 1).all()


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty"):
        match_lengths([])
    with pytest.raises(ValueError, match="empty"):
        match_lengths_fast([])


def test_three_way_equivalence_on_random_sequences():
    rng = np.random.default_rng(20210104)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        alphabet = int(rng.integers(1, 11))
        seq = rng.integers(0, alphabet, n)
        expected = brute_match_lengths(seq)
        assert match_lengths(seq).tolist() == expected
        assert match_lengths_fast(seq).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=300)))
def test_fast_match_lengths_equal_reference(seq):
    assert match_lengths_fast(seq).tolist() == match_lengths(seq).tolist()


@st.composite
def structured_sequences(draw):
    """Concatenated blocks: constant runs, period-p stretches, copies of an earlier stretch, random symbols."""
    k = draw(st.integers(1, 4))
    symbol = st.integers(0, k - 1)
    seq: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["run", "period", "copy", "random"]))
        if kind == "run":
            seq += [draw(symbol)] * draw(st.integers(1, 40))
        elif kind == "period":
            period = draw(st.lists(symbol, min_size=1, max_size=6))
            seq += (period * 40)[: draw(st.integers(1, 60))]
        elif kind == "copy" and seq:
            start = draw(st.integers(0, len(seq) - 1))
            seq += seq[start : start + draw(st.integers(1, 60))]
        else:
            seq += draw(st.lists(symbol, min_size=1, max_size=30))
    return seq


# long and overlapping repeats: several doubling rounds and deep nearest-earlier-suffix chains
@settings(max_examples=250, deadline=None)
@given(structured_sequences())
def test_fast_match_lengths_equal_reference_on_structured_sequences(seq):
    assert match_lengths_fast(seq).tolist() == match_lengths(seq).tolist()


@pytest.mark.parametrize(
    "seq, expected",
    [([4], [1]), ([-3], [1]), ([4, 4], [1, 2]), ([4, 9], [1, 1]), ([2**62, 2**62], [1, 2])],
)
def test_one_and_two_states(seq, expected):
    assert match_lengths(seq).tolist() == expected
    lam = match_lengths_fast(seq)
    assert lam.dtype == np.int64 and lam.tolist() == expected


def test_fast_match_lengths_accept_an_object_with_states():
    class Quantized:
        states = np.array([5, 7, 5, 7], dtype=np.int32)

    lam = match_lengths_fast(Quantized())
    assert lam.dtype == np.int64 and lam.tolist() == [1, 1, 3, 2]


def test_binary_iid_20k_against_substring_search_and_reference_prefix():
    rng = np.random.default_rng(2024)
    seq = rng.integers(0, 2, 20_000)
    lam = match_lengths_fast(seq)
    text = seq.astype(np.uint8).tobytes()
    n = len(text)
    for i in [*rng.choice(n, 150, replace=False).tolist(), 0, 1, n - 2, n - 1]:
        k = next((k for k in range(1, n - i + 1) if text[i : i + k] not in text[:i]), n - i + 1)
        assert lam[i] == k, i
    # on a prefix of m states the lengths are those of the whole sequence, censored at the shorter tail
    m = 1500
    censored = np.minimum(lam[:m], m - np.arange(m) + 1)
    assert match_lengths(seq[:m]).tolist() == censored.tolist()


@pytest.mark.parametrize(
    "scale, offset", [(2**40, -(2**62)), (2**40, 2**62), (1, np.iinfo(np.int64).min), (-1, np.iinfo(np.int64).max)]
)
def test_negative_and_very_large_state_ids(scale, offset):
    small = np.random.default_rng(3).integers(0, 3, 400)
    seq = small * scale + offset
    assert match_lengths_fast(seq).tolist() == match_lengths(seq).tolist() == match_lengths(small).tolist()


def test_fast_match_lengths_memory_bound():
    # a 40k-state random walk. tracemalloc (numpy 2.4) read a 23.1 MB peak for the suffix automaton
    # this route replaced, and 7.7 MB for this route
    rng = np.random.default_rng(2021)
    seq = np.cumsum(rng.integers(-1, 2, 40_000))
    tracemalloc.start()
    try:
        match_lengths_fast(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_large_state_ids_are_fine():
    rng = np.random.default_rng(5)
    seq = rng.integers(100000, 100005, 300)
    assert match_lengths(seq).tolist() == match_lengths_fast(seq).tolist()


def test_match_length_bounds():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 150))
        seq = rng.integers(0, 4, n)
        lam = match_lengths_fast(seq)
        positions = np.arange(1, n + 1)
        assert (lam >= 1).all()
        assert (lam <= n - positions + 2).all()


def test_estimate_entropy_alternating_pair():
    est = estimate_entropy([5, 7, 5, 7])
    assert est.s_est == pytest.approx(2.0 / 1.75, abs=1e-12)
    assert est.mean_match_length == pytest.approx(1.75)
    assert est.n == 4
    assert est.match_length_values is None


def test_estimate_entropy_all_identical_from_oracle():
    seq = np.zeros(100, dtype=np.int64)
    mean = sum(brute_match_lengths(seq)) / 100.0
    est = estimate_entropy(seq, keep_match_lengths=True)
    assert mean == 26.0
    assert est.s_est == pytest.approx(math.log2(100) / mean, abs=1e-12)
    assert est.match_length_values.sum() == 2600


def test_nats_variant():
    est = estimate_entropy([5, 7, 5, 7])
    assert est.s_est_nats == pytest.approx(math.log(4) / 1.75, abs=1e-12)


def test_estimator_requires_two_observations():
    with pytest.raises(ValueError, match="at least 2"):
        estimate_entropy([3])


def test_estimator_converges_on_iid_uniform():
    rng = np.random.default_rng(42)
    seq = rng.integers(0, 4, 100_000)
    est = estimate_entropy(seq)
    assert 1.8 <= est.s_est <= 2.2


def test_coarser_quantization_does_not_reveal_more_entropy():
    for seed in range(5):
        series = random_walk_series("x", days=2, ticks_per_day=800, seed=seed)
        fine = estimate_entropy(quantize_fixed(series, 0.01))
        coarse = estimate_entropy(quantize_fixed(series, 0.05))
        assert coarse.s_est <= fine.s_est + 0.05


def test_shuffling_structure_does_not_decrease_entropy():
    rng = np.random.default_rng(99)
    seq = periodic_sequence(period=4, length=400)
    structured = estimate_entropy(seq).s_est
    for _ in range(3):
        shuffled = rng.permutation(seq)
        assert estimate_entropy(shuffled).s_est >= structured - 0.05


def test_estimator_loads_no_numpy_ma():
    # importing numpy.ma costs a forked pool worker about 14 ms, paid again on each cold run; numpy 1.x
    # imports it with numpy itself, so only an import beyond what `import numpy` loaded counts
    code = (
        "import sys, numpy as np; loaded = 'numpy.ma' in sys.modules; from tickpred.entropy import estimate_entropy; "
        "estimate_entropy(np.random.default_rng(5).integers(0, 4, 2_000)); print(loaded, 'numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded, after = out.stdout.split()
    assert after == loaded
