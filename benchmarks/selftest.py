"""Self-test of the benchmark itself, at a reduced size (a few seconds).

    python3 benchmarks/selftest.py

Checks that one seed always gives byte-identical inputs and another seed
different ones, that the output checks reject outputs that are wrong, and
that the metric names the run prints are the ones BENCHMARK.json declares.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import fixtures
import run


class SelfTestFailure(Exception):
    pass


def expect(ok, message) -> None:
    if not ok:
        raise SelfTestFailure(message)


def reduced_plans():
    return {
        "market_cold": fixtures.market_plan()[:2],
        "wide_market": fixtures.wide_plan()[::25],
    }


def check_fixtures(tmp: Path) -> None:
    for name, plan in reduced_plans().items():
        digests = []
        for i, seed in enumerate((1, 1, 2)):
            d = tmp / f"{name}-{i}"
            fixtures.write_tick_days(d, plan, seed)
            digests.append(checks.tree_digests(d))
        expect(digests[0] == digests[1], f"{name}: seed 1 gave different tick files on two set-ups")
        expect(digests[0] != digests[2], f"{name}: seeds 1 and 2 gave the same tick files")

    plan = [fixtures.StockPlan("000001", (fixtures.LONG_TICKS_PER_DAY,) * 2, half_band=40, swing=30)]
    a, b, c = (fixtures.long_series(plan, seed)[0] for seed in (1, 1, 2))
    expect(a.prices_hundredths.tobytes() == b.prices_hundredths.tobytes(), "long_series: seed 1 not reproducible")
    expect(a.day_boundaries == b.day_boundaries == [0, fixtures.LONG_TICKS_PER_DAY], "long_series: wrong day boundaries")
    expect(a.prices_hundredths.tobytes() != c.prices_hundredths.tobytes(), "long_series: seeds 1 and 2 agree")


def check_checks(tmp: Path) -> None:
    reports = tmp / "out" / "reports"
    reports.mkdir(parents=True)
    header = "stock_code,setting,model,acc,rmse,rmse_ratio_permille,n_test\n"
    (reports / "evaluation.csv").write_text(
        header
        + "A,T=0.01,mc,0.5,0.1,1,100\nA,T=0.01,dk,0.4,0.1,1,100\n"  # fine
        + "B,T=0.01,mc,0.5,0.1,1,100\nB,T=0.01,dk,1.5,0.1,1,100\n"  # acc out of range
        + "C,T=0.01,mc,0.5,0.1,1,100\nC,T=0.01,dk,0.4,0.1,1,99\n"  # n_test differs
        + "D,T=0.01,mc,0.5,0.1,1,100\n",  # DK row missing
        encoding="utf-8",
    )
    bad = checks.dk_row_failures(tmp / "out")
    expect(bad == {("B", "T=0.01"), ("C", "T=0.01"), ("D", "T=0.01")}, bad)

    from tickpred import fano_solve

    pi = fano_solve(1.5, 8)
    expect(checks.bound_ok(1.5, 8, pi), "fano_solve's own bound failed the Fano check")
    expect(not checks.bound_ok(1.5, 8, pi + 1e-6), "a bound off by 1e-6 passed the Fano check")
    expect(not checks.bound_ok(1.5, 8, 0.1), "a bound below 1/N passed")
    expect(checks.bound_ok(3.5, 8, 1 / 8) and checks.bound_ok(-0.1, 8, 1.0), "a clamped bound failed")


def check_metric_names() -> None:
    import replica

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    r = run.REFERENCE_S
    clock = run.HostClock()
    clock.reference = [r, 2 * r, 2 * r]
    fake = {"cold": run.Timed(1.0, [2 * r] * 3), "reruns": [run.Timed(1.0, [2 * r] * 3)], "cold_s": 1.0, "rerun_s": [1.0]}
    e2e = run.end_to_end([fake], [run.Timed(1.0, [2 * r] * 3)], 1, clock)
    expect(abs(e2e["ticks_per_s"][0] - 2.0) < 1e-9, "a pass on a host at half speed must report twice its wall-clock rate")
    expect(abs(clock.host_s(run.Timed(0.4, [r, r])) - 0.4) < 1e-12, "a densely sampled pass must take its own samples")
    expect(abs(clock.host_s(run.Timed(3.0, [r, r])) - 1.5) < 1e-12, "a sparsely sampled pass must take the run's samples")
    expect([m["name"] for m in declared["end_to_end"]] == list(e2e), (list(e2e), declared["end_to_end"]))
    traced = dict(fake, tracer=replica.Tracer(), untraced_s=1.0, traced_s=1.0)
    layers, _ = run.per_layer([traced])
    expect([m["name"] for m in declared["per_layer"]] == list(layers), "per_layer names differ")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, (_, unit) in {**e2e, **layers}.items():
        expect(units[name] == unit, f"{name}: BENCHMARK.json says {units[name]}, the run prints {unit}")
    expect({w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS), "BENCHMARK.json names an unknown workload")


def main() -> int:
    run.import_program()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        check_fixtures(tmp)
        check_checks(tmp)
        check_metric_names()
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
