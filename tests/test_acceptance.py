"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The acceptance list stated criterion 2 as a sum of
2651 with mean 26.51 for an all-identical length-100 sequence; those are the
n=101 closed-form sum divided by 100. Criterion 2 pins the closed form it
cites at n=100 (sum 2600, mean 26.00); its oracle-verified twin keeps the
n=101 identity as the record of the discrepancy.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tickpred.entropy import estimate_entropy, match_lengths, match_lengths_fast
from tickpred.evaluate import EvaluationReport, accuracy, rmse, rmse_ratio
from tickpred.pipeline import PipelineConfig, run_all
from tickpred.predict import DiffusionKernelModel, PredictionTrace, run_protocol, train_together
from tickpred.predictability import fano_objective, fano_solve
from tickpred.quantize import fixed_interval_scheme, quantize_fixed
from tickpred.stats import anova_oneway, volatility
from tickpred.synthetic import markov2_source, random_walk_series, write_tick_fixture


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _trace(predicted, actual):
    return PredictionTrace(
        stock_code="t",
        model="mc",
        predicted=np.asarray(predicted, dtype=np.int64),
        actual=np.asarray(actual, dtype=np.int64),
        start_index=0,
    )


# -- 1: match-length implementations agree ------------------------------------


def _brute_scan(states):
    """Third route: literal O(n^3) substring scan on the encoded sequence."""
    s = "".join(chr(int(x)) for x in states)
    n = len(s)
    out = []
    for i in range(n):
        lam = n - i + 1
        for k in range(1, n - i + 1):
            if s[i : i + k] not in s[:i]:
                lam = k
                break
        out.append(lam)
    return out


def test_criterion_01_match_length_oracle_equivalence():
    rng = np.random.default_rng(20210104)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        alphabet = int(rng.integers(1, 11))
        seq = rng.integers(0, alphabet, n)
        reference = match_lengths(seq).tolist()
        if reference != match_lengths_fast(seq).tolist() or reference != _brute_scan(seq):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _check(
        1,
        "fast, naive and brute-scan match lengths agree on 1000 seeded sequences",
        mismatches == 0 and elapsed < 30.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


# -- 2: closed-form entropy anchor --------------------------------------------


def test_criterion_02_closed_form_constants_as_stated():
    # The cited closed form for an all-identical sequence: lam_1 = 1 and
    # lam_i = min(i, n-i+2). At n=100 it sums to 1 + 1325 + 1274 = 2600, so the
    # mean is 26.00 and s_est = log2(100)/26.00.
    n = 100
    closed = [1] + [min(i, n - i + 2) for i in range(2, n + 1)]
    lam = match_lengths_fast(np.zeros(n, dtype=np.int64))
    est = estimate_entropy(np.zeros(n, dtype=np.int64))
    total = int(lam.sum())
    expected = math.log2(100) / 26.00
    ok = (
        sum(closed) == 2600
        and total == 2600
        and est.mean_match_length == 26.0
        and abs(est.s_est - expected) < 1e-9
    )
    _check(2, "all-identical length 100: sum 2600, s_est log2(100)/26.00", ok,
           f"sum={total}, s_est={est.s_est:.10f}, expected={expected:.10f}")


def test_criterion_02_closed_form_oracle_verified():
    n = 100
    closed = [1] + [min(i, n - i + 2) for i in range(2, n + 1)]
    lam = match_lengths_fast(np.zeros(n, dtype=np.int64))
    est = estimate_entropy(np.zeros(n, dtype=np.int64))
    ok = (
        lam.tolist() == closed
        and int(lam.sum()) == 2600
        and abs(est.s_est - math.log2(100) / 26.00) < 1e-9
        and sum([1] + [min(i, 101 - i + 2) for i in range(2, 102)]) == 2651
    )
    _check(2, "closed-form check against the stated oracle (sum 2600 at n=100)", ok,
           f"sum={int(lam.sum())}, s_est={est.s_est:.10f}")


# -- 3: estimator convergence --------------------------------------------------


def test_criterion_03_estimator_convergence():
    rng = np.random.default_rng(42)
    seq = rng.integers(0, 4, 100_000)
    start = time.perf_counter()
    est = estimate_entropy(seq)
    elapsed = time.perf_counter() - start
    ok = 1.8 <= est.s_est <= 2.2 and elapsed < 10.0
    _check(3, "iid uniform over 4 states, n=100000: s_est in [1.8, 2.2]", ok,
           f"s_est={est.s_est:.4f}, {elapsed:.1f}s")


# -- 4: bound solver ------------------------------------------------------------


def test_criterion_04_fano_solver():
    exact = abs(fano_solve(0.0, 5) - 1.0) < 1e-9 and abs(fano_solve(1.0, 2) - 0.5) < 1e-9
    anchor = abs(fano_solve(2.0, 10) - 0.6609) < 1e-3
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 1000))
        s = float(rng.uniform(0.01, 0.99)) * math.log2(n)
        p = fano_solve(s, n)
        worst = max(worst, abs(fano_objective(p, n) - s))
    ok = exact and anchor and worst < 1e-9
    _check(4, "bound solver anchors and residual < 1e-9 on 10000 pairs", ok, f"worst residual={worst:.2e}")


# -- 5 and 6: synthetic order-2 suite -------------------------------------------


@pytest.fixture(scope="module")
def markov_suite():
    # the DK models train in lockstep, as run_all trains a pool task's stocks, each with the seed and default
    # parameters that run_protocol(seq, [0, 3800], "dk", seed=500 + k) gives it; unit 0 is checked against that
    seqs = [markov2_source(n_states=5, length=50_000, dominant=0.8, seed=100 + k)[0] for k in range(20)]
    models = [DiffusionKernelModel(seed=500 + k) for k in range(20)]
    train_together(models, [seq[:3800] for seq in seqs])
    dk = [PredictionTrace("", "dk", m.run_online(seq, 3800), seq[3800:], 3800) for seq, m in zip(seqs, models)]
    assert np.array_equal(dk[0].predicted, run_protocol(seqs[0], [0, 3800], "dk", seed=500).predicted)
    rows = []
    for seq, dk_trace in zip(seqs, dk):
        est = estimate_entropy(seq)
        n_distinct = len(np.unique(seq))
        bound = fano_solve(est.s_est, n_distinct)
        acc_mc = accuracy(run_protocol(seq, [0, 3800], "mc"))
        rows.append({"acc_mc": acc_mc, "acc_dk": accuracy(dk_trace), "bound": bound})
    return rows


def test_criterion_05_bound_dominance(markov_suite):
    excess = [
        max(row["acc_mc"] - row["bound"], row["acc_dk"] - row["bound"]) for row in markov_suite
    ]
    ok = all(e <= 0.02 for e in excess)
    _check(5, "MC and DK accuracy within bound + 0.02 on all 20 synthetic stocks", ok,
           f"max excess={max(excess):+.4f}")


def test_criterion_06_model_ordering(markov_suite):
    mean_mc = float(np.mean([r["acc_mc"] for r in markov_suite]))
    mean_dk = float(np.mean([r["acc_dk"] for r in markov_suite]))
    ok = mean_dk >= mean_mc - 0.02
    _check(6, "mean DK accuracy within 0.02 of mean MC accuracy", ok,
           f"MC={mean_mc:.4f}, DK={mean_dk:.4f}")


# -- 7: quantization trade-off ---------------------------------------------------


def test_criterion_07_quantization_tradeoff():
    acc = {(t, m): [] for t in (0.01, 0.05) for m in ("mc", "dk")}
    state_rmse = {(t, m): [] for t in (0.01, 0.05) for m in ("mc", "dk")}
    pi = {0.01: [], 0.05: []}
    for k in range(20):
        series = random_walk_series(f"w{k}", days=2, ticks_per_day=900, seed=300 + k)
        for t in (0.01, 0.05):
            seq = quantize_fixed(series, t)
            est = estimate_entropy(seq)
            pi[t].append(fano_solve(est.s_est, seq.n_distinct))
            for model in ("mc", "dk"):
                trace = run_protocol(seq, series.day_boundaries, model, seed=700 + k)
                acc[(t, model)].append(accuracy(trace))
                state_rmse[(t, model)].append(rmse(trace, seq.scheme))  # dequantized actuals
    acc_ok = all(np.mean(acc[(0.05, m)]) > np.mean(acc[(0.01, m)]) for m in ("mc", "dk"))
    pi_ok = np.mean(pi[0.05]) > np.mean(pi[0.01])
    rmse_ok = all(np.mean(state_rmse[(0.05, m)]) > np.mean(state_rmse[(0.01, m)]) for m in ("mc", "dk"))
    _check(7, "coarser interval raises mean ACC and bound but raises state-space RMSE",
           acc_ok and pi_ok and rmse_ok,
           f"ACC mc {np.mean(acc[(0.01,'mc')]):.3f}->{np.mean(acc[(0.05,'mc')]):.3f}, "
           f"pi {np.mean(pi[0.01]):.3f}->{np.mean(pi[0.05]):.3f}, "
           f"rmse mc {np.mean(state_rmse[(0.01,'mc')]):.4f}->{np.mean(state_rmse[(0.05,'mc')]):.4f}")


# -- 8: evaluation arithmetic -----------------------------------------------------


def test_criterion_08_evaluation_examples():
    scheme = fixed_interval_scheme(0.05)
    acc_ok = (
        accuracy(_trace([1, 2, 3, 4], [1, 2, 3, 9])) == 0.75
        and accuracy(_trace([5, 5], [5, 5])) == 1.0
    )
    rmse_ok = (
        rmse(_trace([3, 4, 5], [3, 4, 5]), scheme) == 0.0
        and abs(rmse(_trace([200, 0, 0, 0], [0, 0, 0, 0]), fixed_interval_scheme(0.01)) - 1.0) < 1e-12
        and abs(rmse(_trace([11, 21, 31], [10, 20, 30]), scheme) - 0.05) < 1e-12
    )
    r = EvaluationReport("t", "mc", 1.0, 0.05, None, 4)
    zero = EvaluationReport("t", "mc", 1.0, 0.0, None, 4)
    ratio_ok = abs(rmse_ratio(r, 10.0) - 5.0) < 1e-12 and rmse_ratio(zero, 10.0) == 0.0
    _check(8, "accuracy, RMSE and ratio worked examples are exact", acc_ok and rmse_ok and ratio_ok)


# -- 9: ANOVA arithmetic ------------------------------------------------------------


def test_criterion_09_anova_arithmetic():
    eta_ok = abs(0.676 / 67.768 - 0.00998) < 1e-5
    res = anova_oneway({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
    hand_ok = abs(res.F - 13.5) < 1e-9 and abs(res.ssb - 13.5) < 1e-9
    _check(9, "partial eta squared and hand ANOVA decomposition", eta_ok and hand_ok,
           f"eta2p={0.676 / 67.768:.6f}, F={res.F}")


# -- 10: volatility -------------------------------------------------------------------


def test_criterion_10_volatility():
    sigma = volatility([1.0, math.e, 1.0, math.e, 1.0])
    anchor_ok = abs(sigma - math.sqrt(4.0 / 3.0)) < 1e-12
    rng = np.random.default_rng(77)
    scale_ok = True
    for _ in range(1000):
        prices = np.exp(rng.normal(0, 0.02, 30).cumsum()) * 10
        k = float(rng.uniform(0.01, 1000))
        if not math.isclose(volatility(prices * k), volatility(prices), rel_tol=1e-9):
            scale_ok = False
            break
    _check(10, "volatility anchor exact and scale-invariant on 1000 series", anchor_ok and scale_ok,
           f"sigma={sigma:.15f}")


# -- 11: end-to-end determinism --------------------------------------------------------


def test_criterion_11_run_all_determinism(tmp_path):
    ticks = tmp_path / "ticks.csv"
    write_tick_fixture(ticks, ticks_per_day=400)
    start = time.perf_counter()
    trees = []
    for out in ("out1", "out2"):
        config = PipelineConfig(
            inputs=(str(ticks),),
            intervals=(0.01, 0.05),
            min_length=100,
            min_states=5,
            seed=7,
            output_dir=str(tmp_path / out),
        )
        manifest = run_all(config)
        assert manifest.failed == []
        trees.append(
            {
                p.relative_to(config.output_dir).as_posix(): p.read_bytes()
                for p in Path(config.output_dir).rglob("*")
                if p.is_file()
            }
        )
    elapsed = time.perf_counter() - start
    ok = trees[0] == trees[1] and elapsed < 60.0
    _check(11, "run-all twice on the bundled fixture is byte-identical", ok,
           f"{len(trees[0])} files, {elapsed:.1f}s")
