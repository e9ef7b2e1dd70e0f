"""tickpred benchmark: one workload per run, from a seed, with its outputs checked.

    python3 benchmarks/run.py --workload market_cold --seed 1 --seconds 25 --trace 0

``--trace 0`` times the program as users run it and prints the end-to-end
metrics; ``--trace 1`` replays the same per-stock path with a span around
each call into the library and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report with
provenance goes to ``.bench_out/``. The exit code is 0 only when every
output check passed. See benchmarks/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import checks
import fixtures

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 25
# The reference loop and its time on an undisturbed core of the 2-core Xeon
# (2.1 GHz, Sapphire Rapids class) the benchmark was sized on; see HostClock.
REFERENCE_LOOPS = 40_000
REFERENCE_S = 0.0046
MAX_SAMPLE_GAP_S = 0.5  # a timed pass sampled less often than this takes the run's host speed
BUDGET_TICKS_PER_S_PER_CORE = 50_000  # demos/07's budget, printed for reference only
ENTROPY_PREFIX = 3000  # naive reference match lengths are quadratic; check a prefix


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import tickpred from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tickpred" / "__init__.py").is_file():
        raise ProgramMissing(f"no tickpred package under {src}")
    sys.path.insert(0, str(src))
    import tickpred

    if Path(tickpred.__file__).resolve().parent != (src / "tickpred").resolve():
        raise ProgramMissing(f"tickpred imported from {tickpred.__file__}, not from {src}")
    return tickpred


def progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def timed_loop(seconds: float, body) -> list:
    """Call body(i) until another call would overrun ``seconds``; at least once."""
    samples, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        samples.append(body(len(samples)))
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return samples


_REFERENCE_TABLE = [0] * 0x10000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs us right now.

    The loop allocates nothing that outlives it, so running it between the
    program's calls leaves peak_rss_mb as it was.
    """
    table, x = _REFERENCE_TABLE, 0
    t0 = perf_counter()
    for _ in range(REFERENCE_LOOPS):
        x = (x * 1103515245 + 12345) & 0xFFFF
        table[x] ^= 1
    return perf_counter() - t0


class Timed(NamedTuple):
    wall: float  # seconds in the program's calls
    reference: list[float]  # reference-loop times before, between and after the calls


class HostClock:
    """Times the program's calls, and samples the host's speed between them.

    A shared host slows everything on it together, by up to 2x, in bursts of
    a second or two and in spells of minutes. So the reference loop is timed
    before and after every timed call, and ``host_s`` turns a pass's wall
    time into host seconds: wall seconds on this host when it runs the loop
    in REFERENCE_S. A pass sampled at least every MAX_SAMPLE_GAP_S is
    divided by its own median sample; a longer stretch without samples (the
    pipeline's cold ``run_all``, one call of 3 to 4 s) says little about the
    seconds between its two samples, so it takes the run's median instead.
    A change in the program's own work is not divided away, because the
    reference loop is the benchmark's and runs the same against every
    version of the program.
    """

    def __init__(self) -> None:
        self.reference: list[float] = []

    def time(self, calls) -> tuple[list, Timed]:
        """Call each of ``calls`` back to back; returns their outputs and the pass's timing."""
        outputs, wall, reference = [], 0.0, [reference_s()]
        for call in calls:
            t0 = perf_counter()
            outputs.append(call())
            wall += perf_counter() - t0
            reference.append(reference_s())
        self.reference += reference
        return outputs, Timed(wall, reference)

    def slowdown(self) -> float:
        """The run's median reference time over REFERENCE_S."""
        return statistics.median(self.reference) / REFERENCE_S

    def host_s(self, timed: Timed) -> float:
        dense = timed.wall / (len(timed.reference) - 1) <= MAX_SAMPLE_GAP_S
        return timed.wall * REFERENCE_S / statistics.median(timed.reference if dense else self.reference)


def timed_setups(clock: HostClock, make, key) -> tuple[list[Timed], object, bool]:
    """Time ``make(k)`` for k in range(SETUP_REPEATS); ``key`` of each result must agree.

    Only the generation is timed: digests and clean-up happen outside it.
    """
    times, keys = [], []
    for k in range(SETUP_REPEATS):
        (value,), timed = clock.time([lambda: make(k)])
        times.append(timed)
        keys.append(key(value))
    return times, value, all(d == keys[0] for d in keys)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


# -- pipeline workloads -------------------------------------------------------------


class PipelineWorkload:
    """run_all on tick files, then immediate reruns."""

    def __init__(self, name: str, spec: "Spec", seed: int, work: Path, clock: HostClock) -> None:
        from tickpred.pipeline import PipelineConfig

        self.clock = clock
        self.name, self.plan, self.seed, self.work, self.reruns = name, spec.plan(), seed, work, spec.reruns
        self.inputs = work / "in"
        self.config = PipelineConfig(inputs=(str(self.inputs / "ticks_*.csv"),), workers=spec.workers, seed=seed)
        self.labels = [s.label for s in self.config.settings()]

    def setup(self):
        # each set-up writes a fresh directory: deleting the last one inside
        # the timed region would time the file system's clean-up too
        def make(k):
            directory = self.work / f"setup{k}"
            return directory, fixtures.write_tick_days(directory, self.plan, self.seed)

        times, (directory, self.shape), same = timed_setups(self.clock, make, lambda v: checks.tree_digests(v[0]))
        directory.rename(self.inputs)
        self.units = {(p.code, label) for p in self.plan for label in self.labels}
        return times, same

    def iteration(self, i: int, trace: bool) -> dict:
        from tickpred.pipeline import run_all

        out = self.work / f"out{i}"
        config = replace(self.config, output_dir=str(out))
        (cold_manifest,), cold = self.clock.time([lambda: run_all(config)])
        cold_s = cold.wall
        per_stock = out / "per_stock"
        stamps = {p.name: p.stat().st_mtime_ns for p in per_stock.iterdir()}
        cold_files = {d: checks.tree_digests(out / d) for d in ("reports", "plots")}
        failed = {(c, l) for c in cold_manifest.failed for l in self.labels}
        failed |= checks.dk_row_failures(out)
        notes, reruns = [], []
        for _ in range(self.reruns):
            (rerun_manifest,), timed = self.clock.time([lambda: run_all(config)])
            reruns.append(timed)
            failed |= {(c, l) for c in rerun_manifest.failed for l in self.labels}
            if {d: checks.tree_digests(out / d) for d in ("reports", "plots")} != cold_files:
                notes.append("warm rerun changed reports/ or plots/")
                failed |= self.units
        untouched = sum(1 for p in per_stock.iterdir() if stamps.get(p.name) == p.stat().st_mtime_ns)
        kept = len((out / "reports" / "predictability.csv").read_text(encoding="utf-8").splitlines()) - 1
        rerun_s = [t.wall for t in reruns]
        sample = {
            "cold": cold,
            "reruns": reruns,
            "cold_s": cold_s,
            "rerun_s": rerun_s,
            "reuse_ratio": untouched / len(stamps),
            "kept_units": kept,
            "digests": checks.report_digests(out),
            "failed": failed,
            "notes": notes,
        }
        if trace:
            sample.update(self.traced(out, cold_s))
        # outputs stay until the run ends: deleting hundreds of files between
        # repeats puts discard and journal work into the next timed run_all
        progress(f"  [{self.name} #{i}] cold {cold_s:.3f} s, rerun {_fmt(rerun_s)} s, {len(failed)} failed units")
        return sample

    def traced(self, out: Path, cold_s: float) -> dict:
        import replica
        from tickpred import run_protocol
        from tickpred.pipeline import child_seed
        from tickpred.quantize import quantize_with

        paths = sorted(str(p) for p in self.inputs.glob("ticks_*.csv"))
        t0 = perf_counter()
        replica.replay_pipeline(paths, self.config, replica.NullTracer(), self.work / "replica_series")
        untraced_s = perf_counter() - t0
        tracer = replica.Tracer()
        t0 = perf_counter()
        all_series, results, dk_traces = replica.replay_pipeline(
            paths, self.config, tracer, self.work / "replica_series"
        )
        traced_s = perf_counter() - t0

        failed, notes = set(), []
        for code, result in results.items():
            written = json.loads((out / "per_stock" / f"{code}.json").read_text(encoding="utf-8"))
            if json.loads(json.dumps(result, sort_keys=True)) != written:
                notes.append(f"replica differs from run_all for {code}")
                failed |= {(code, label) for label in self.labels}
        # the spelled-out DK loop must be run_protocol's, checked on the smallest kept stock
        code = min({c for c, _ in dk_traces}, key=lambda c: (len(all_series[c]), c))
        series = all_series[code]
        for setting in self.config.settings():
            mine = dk_traces.get((code, setting.label))
            if mine is None:
                continue
            seq = quantize_with(series, setting.scheme_for(series))
            seed = child_seed(self.config.seed, code, setting.label, "dk")
            ref = run_protocol(seq, series.day_boundaries, "dk", seed=seed, dk_params=self.config.dk_params())
            if not np.array_equal(ref.predicted, mine.predicted) or ref.start_index != mine.start_index:
                notes.append(f"spelled-out DK trace differs from run_protocol for {code} {setting.label}")
                failed.add((code, setting.label))

        ingest_s = tracer.busy["ingest.parse"] + tracer.busy["ingest.build"]
        compute_s = tracer.scope_s.get("stock", 0.0)
        return {
            "tracer": tracer,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "self_s": cold_s - ingest_s - compute_s / self.config.workers,
            "pool_efficiency": compute_s / (self.config.workers * (cold_s - ingest_s)),
            "failed_trace": failed,
            "notes_trace": notes,
        }

    def finish(self, samples: list[dict], pins: dict | None) -> set:
        """Checks across iterations: same digests every time, and equal to the pins."""
        failed = set()
        for s in samples:
            if s["digests"] != samples[0]["digests"] or (pins is not None and s["digests"] != pins):
                s["notes"].append(f"RNG-free report digests {s['digests']} differ from {pins or samples[0]['digests']}")
                s["failed"] |= self.units
            s["failed"] |= s.get("failed_trace", set())
            s["notes"] += s.get("notes_trace", [])
            failed |= s["failed"]
        return failed

    def describe(self, samples) -> dict:
        return dict(self.shape, kept_share=samples[0]["kept_units"] / len(self.units))


# -- library workload ---------------------------------------------------------------


class LibraryWorkload:
    """The README's library path per stock and setting; no ingest and no DK."""

    def __init__(self, name: str, spec: "Spec", seed: int, work: Path, clock: HostClock) -> None:
        self.clock = clock
        self.name, self.plan, self.seed, self.reruns = name, spec.plan(), seed, spec.reruns
        self.first_outputs: dict = {}

    def setup(self):
        import replica

        def key(series):  # a digest, so the set-ups' keys do not add to peak_rss_mb
            return checks.digest(
                b"".join(
                    s.stock_code.encode() + s.prices_hundredths.tobytes() + s.epoch_seconds.tobytes()
                    + repr(s.day_boundaries).encode()
                    for s in series
                )
            )

        times, series, same = timed_setups(self.clock, lambda k: fixtures.long_series(self.plan, self.seed), key)
        self.series = series
        self.labels = [label for label, _ in replica.LIBRARY_SETTINGS]
        self.units = {(s.stock_code, label) for s in series for label in self.labels}
        self.shape = {
            "rows": sum(len(s) for s in series),
            "stocks": len(series),
            "day_files": 0,
            "days": fixtures.LONG_DAYS,
            "ticks_per_day_min": fixtures.LONG_TICKS_PER_DAY,
            "ticks_per_day_max": fixtures.LONG_TICKS_PER_DAY,
        }
        return times, same

    def timed_pass(self) -> tuple[dict, Timed]:
        """``replica.library_pass`` and its timing.

        Each (stock, setting) is a call of its own, so the host's speed is
        sampled every ~0.15 s of the pass.
        """
        import replica

        units = [(series, label, value) for series in self.series for label, value in replica.LIBRARY_SETTINGS]
        outputs, timed = self.clock.time([lambda u=u: replica.library_unit(*u, replica.NullTracer()) for u in units])
        return {(series.stock_code, label): o for (series, label, _), o in zip(units, outputs)}, timed

    def iteration(self, i: int, trace: bool) -> dict:
        import replica

        cold, cold_timed = self.timed_pass()
        failed, reruns = set(), []
        for _ in range(self.reruns):
            rerun, timed = self.timed_pass()
            reruns.append(timed)
            failed |= {unit for unit in self.units if not _same_output(cold[unit], rerun[unit])}
        notes = [f"rerun output differs for {u}" for u in sorted(failed)]
        if i == 0:
            self.first_outputs = cold  # later repeats keep only digests, so memory does not grow with repeats
        cold_s, rerun_s = cold_timed.wall, [t.wall for t in reruns]
        sample = {
            "cold": cold_timed,
            "reruns": reruns,
            "cold_s": cold_s,
            "rerun_s": rerun_s,
            "digests": library_digests(cold),
            "failed": failed,
            "notes": notes,
        }
        if trace:
            tracer = replica.Tracer()
            t0 = perf_counter()
            traced = replica.library_pass(self.series, tracer)
            sample.update(tracer=tracer, untraced_s=cold_s, traced_s=perf_counter() - t0)
            bad = {unit for unit in self.units if not _same_output(cold[unit], traced[unit])}
            failed |= bad
            notes += [f"traced pass differs for {u}" for u in sorted(bad)]
        progress(f"  [{self.name} #{i}] pass {cold_s:.3f} s, rerun {_fmt(rerun_s)} s, {len(failed)} failed units")
        return sample

    def finish(self, samples: list[dict], pins: dict | None) -> set:
        from tickpred import match_lengths, match_lengths_fast

        bad = set()
        for unit, o in self.first_outputs.items():
            prefix = o["states"][:ENTROPY_PREFIX]
            if not np.array_equal(match_lengths(prefix), match_lengths_fast(prefix)):
                samples[0]["notes"].append(f"match_lengths_fast differs from the reference on {unit}")
                bad.add(unit)
            if not checks.bound_ok(o["s_est"], o["n_distinct"], o["pi_max"]):
                samples[0]["notes"].append(f"pi_max {o['pi_max']!r} fails the Fano relation on {unit}")
                bad.add(unit)
        samples[0]["failed"] |= bad
        failed = set()
        for s in samples:
            if s["digests"] != samples[0]["digests"] or (pins is not None and s["digests"] != pins):
                s["notes"].append(f"RNG-free output digests {s['digests']} differ from {pins or samples[0]['digests']}")
                s["failed"] |= self.units
            failed |= s["failed"]
        return failed

    def describe(self, samples) -> dict:
        return dict(self.shape, kept_share=1.0)


def _fmt(times: list[float]) -> str:
    return ", ".join(f"{t:.3f}" for t in times)


def _same_output(a: dict, b: dict) -> bool:
    return all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k] for k in a
    )


def library_digests(outputs: dict) -> dict[str, str]:
    est, bound, mc = [], [], []
    for (code, label), o in sorted(outputs.items()):
        est.append(f"{code},{label},{o['n']},{o['n_distinct']},{o['s_est']!r},{o['mean_match_length']!r}\n")
        bound.append(f"{code},{label},{o['pi_max']!r}\n")
        mc.append(f"{code},{label},{checks.digest(o['mc_predicted'].tobytes())},{o['mc_eval']!r}\n")
    return {
        "estimates": checks.digest("".join(est).encode()),
        "bounds": checks.digest("".join(bound).encode()),
        "mc_traces": checks.digest("".join(mc).encode()),
    }


class Spec(NamedTuple):
    kind: type
    plan: Callable
    reruns: int  # warm reruns per cold run
    workers: int


# market_cold's rerun is short, so it is repeated to give the rerun median as
# many samples as the cold one.
WORKLOADS = {
    "market_cold": Spec(PipelineWorkload, fixtures.market_plan, reruns=3, workers=2),
    "wide_market": Spec(PipelineWorkload, fixtures.wide_plan, reruns=1, workers=2),
    "long_series": Spec(LibraryWorkload, fixtures.long_plan, reruns=1, workers=1),
}


# -- metrics ------------------------------------------------------------------------


def end_to_end(samples, setups: list[Timed], ticks, clock: HostClock) -> dict:
    """Times are medians in host seconds (see HostClock)."""
    cold = statistics.median(clock.host_s(s["cold"]) for s in samples)
    rerun = statistics.median(clock.host_s(t) for s in samples for t in s["reruns"])
    return {
        "ticks_per_s": (ticks / cold, "ticks/s"),
        "rerun_ticks_per_s": (ticks / rerun, "ticks/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(clock.host_s(t) for t in setups), "s"),
    }


def per_layer(samples) -> tuple[dict, dict]:
    """Per-layer metrics of one repeat (times are medians over the run's repeats)."""
    import replica

    def med(value) -> float:
        return statistics.median(value(s) for s in samples)

    def ratio(a, b) -> float:
        return a / b if b else 0.0  # a layer that does not run reads 0

    busy = {k: med(lambda s: s["tracer"].busy[k]) for k in replica.LAYERS}
    # the inputs are fixed, so work and counts are the same in every repeat
    work = samples[0]["tracer"].work
    counters = samples[0]["tracer"].counters

    m = {}
    for layer, unit in replica.LAYERS.items():
        m[f"{layer}.busy_s"] = (busy[layer], "s")
        m[f"{layer}.{unit}"] = (work[layer], "count")
        if unit != "calls":
            m[f"{layer}.{unit}_per_s"] = (ratio(work[layer], busy[layer]), f"{unit}/s")
    dk = busy["predict.dk_train"] + busy["predict.dk_online"]
    ingest = busy["ingest.parse"] + busy["ingest.build"] + busy["ingest.write"] + busy["ingest.filter"]
    total = sum(busy.values())
    pipeline = "self_s" in samples[0]
    m.update(
        {
            "predict.dk.busy_s": (dk, "s"),
            "ingest.filter.kept_ratio": (ratio(counters.get("ingest.filter.kept", 0), work["ingest.filter"]), "ratio"),
            "entropy.censored_share": (ratio(counters.get("entropy.censored", 0), work["entropy"]), "ratio"),
            "predictability.clamped": (counters.get("predictability.clamped", 0), "count"),
            "pipeline.self_s": (med(lambda s: s["self_s"]) if pipeline else 0.0, "s"),
            "pipeline.pool_efficiency": (med(lambda s: s["pool_efficiency"]) if pipeline else 0.0, "ratio"),
            "pipeline.reuse_ratio": (med(lambda s: s["reuse_ratio"]) if pipeline else 0.0, "ratio"),
            "trace.busy_s": (total, "s"),
            "trace.overhead_s": (med(lambda s: s["traced_s"] - s["untraced_s"]), "s"),
        }
    )
    shares = {
        "dk": ratio(dk, total),
        "ingest": ratio(ingest, total),
        "entropy+mc": ratio(busy["entropy"] + busy["predict.mc"], total),
    }
    return m, shares


# -- main ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def run(args) -> tuple[dict, int]:
    """One benchmark run; returns the result line and the exit code."""
    tickpred = import_program()
    import scipy

    spec = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        clock = HostClock()
        workload = spec.kind(args.workload, spec, args.seed, work, clock)
        progress(f"tickpred benchmark: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        setup_times, fixtures_stable = workload.setup()
        samples = timed_loop(args.seconds, lambda i: workload.iteration(i, bool(args.trace)))
        pins = checks.pinned(args.workload, args.seed)
        failed = workload.finish(samples, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes = [n for s in samples for n in s["notes"]]
    if not fixtures_stable:
        notes.append("the same seed produced different inputs across set-ups")
    attempted = len(workload.units) * len(samples)
    n_failed = sum(len(s["failed"]) for s in samples)
    correct = fixtures_stable and not failed
    ticks = workload.shape["rows"]
    if args.trace:
        metrics, shares = per_layer(samples)
    else:
        metrics, shares = end_to_end(samples, setup_times, ticks, clock), {}

    provenance = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tickpred": tickpred.__version__,
        "cpu_count": os.cpu_count(),
        "workers": spec.workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fixture": workload.describe(samples),
        "pinned": pins is not None,
        "iterations": len(samples),
    }
    samples_out = [
        {k: v for k, v in s.items() if k in ("cold_s", "rerun_s", "reuse_ratio", "digests", "untraced_s", "traced_s")}
        for s in samples
    ]
    report = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s_samples": [t.wall for t in setup_times],
        "host_slowdown": clock.slowdown(),
        "reference_s_samples": clock.reference,
        "samples": samples_out,
        "attempted": attempted,
        "failed": n_failed,
        "failed_share": n_failed / attempted,
        "busy_shares": shares,
        "notes": notes,
    }
    if args.trace:
        report["spans"] = {
            f"iteration{i}": s["tracer"].spans for i, s in enumerate(samples)
        }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"tickpred benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    if not args.trace:
        cold = [s["cold_s"] for s in samples]
        print(
            f"  ticks_per_s is over {ticks} input ticks and the median of {len(cold)} cold passes, in host "
            f"seconds; in wall seconds the passes took {min(cold):.3f}-{max(cold):.3f} s, median "
            f"{statistics.median(cold):.3f} s ({ticks / statistics.median(cold):.6g} ticks/s), on a host "
            f"{clock.slowdown():.2f}x slower than its reference speed. For reference, the budget is "
            f"{BUDGET_TICKS_PER_S_PER_CORE} ticks/s/core"
        )
    if shares:
        print("  share of traced busy time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"  {'failed_share':<36} {n_failed / attempted:>16.6g} ratio  ({n_failed} of {attempted} units)")
    for note in notes:
        print(f"  FAILED CHECK: {note}")
    print(f"report {report_path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, code = run(args)
    except ProgramMissing as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
