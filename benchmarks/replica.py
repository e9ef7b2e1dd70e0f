"""Spans around calls into tickpred's public functions, from outside the program.

``replay_pipeline`` replays what ``run_all`` does for each stock, one stock
after another, through the same public calls, and ``library_pass`` is the
README's library path. Both take a tracer: ``Tracer`` records a span around
every call, ``NullTracer`` makes the same calls untimed, so the difference
between the two is the cost of tracing. Spans stay in memory until the run
ends. The DK online loop is one span per (stock, setting): a span per
predict/update call would record ~10^5 spans for a few percent of detail.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from tickpred import (
    ColumnSchema,
    DiffusionKernelModel,
    PredictionTrace,
    build_series,
    estimate_entropy,
    evaluate_trace,
    fano_solve,
    filter_series,
    parse_ticks,
    quantize_fixed,
    quantize_fixed_count,
    run_protocol,
    volatility,
)
from tickpred.pipeline import MODELS, PipelineConfig, child_seed
from tickpred.quantize import quantize_with

# leaf layers: their busy times add up to the traced busy time
LAYERS = {
    "ingest.parse": "rows",
    "ingest.build": "rows",
    "ingest.write": "rows",
    "ingest.filter": "calls",
    "quantize": "ticks",
    "entropy": "ticks",
    "predictability": "calls",
    "predict.mc": "ticks",
    "predict.dk_train": "tick_epochs",
    "predict.dk_online": "ticks",
    "evaluate": "ticks",
    "stats.volatility": "ticks",
}


class NullTracer:
    enabled = False

    def call(self, layer, work, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def record(self, layer, start, end, work) -> None:
        pass

    def count(self, name, n=1) -> None:
        pass

    def scope(self, name):
        return nullcontext()


class Tracer(NullTracer):
    """Spans as (id, name, start, end, parent id, work), plus per-layer totals."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.busy = {name: 0.0 for name in LAYERS}
        self.work = {name: 0 for name in LAYERS}
        self.counters: dict[str, int] = {}
        self.scope_s: dict[str, float] = {}
        self._parent = -1

    def call(self, layer, work, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.record(layer, start, perf_counter(), work(out) if callable(work) else work)
        return out

    def record(self, layer, start, end, work) -> None:
        self.spans.append((len(self.spans), layer, start, end, self._parent, work))
        self.busy[layer] += end - start
        self.work[layer] += work

    def count(self, name, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    @contextmanager
    def scope(self, name):
        span_id, outer = len(self.spans), self._parent
        self.spans.append((span_id, name, perf_counter(), 0.0, outer, 0))
        self._parent = span_id
        try:
            yield
        finally:
            self._parent = outer
            _, _, start, _, _, _ = self.spans[span_id]
            end = perf_counter()
            self.spans[span_id] = (span_id, name, start, end, outer, 0)
            self.scope_s[name] = self.scope_s.get(name, 0.0) + end - start


# -- pipeline replica -------------------------------------------------------------


def replay_pipeline(paths: list[str], config: PipelineConfig, tracer, write_dir: Path):
    """Sequential replay of run_all's per-stock path from the tick files.

    Returns the parsed series, the per-stock result dicts (as run_all writes
    them) and the DK traces keyed by (stock, setting label).
    """
    schema = ColumnSchema(code=config.code_column, time=config.time_column, price=config.price_column)
    records = []
    for path in paths:
        recs, _malformed = tracer.call("ingest.parse", lambda out: len(out[0]) + out[1], parse_ticks, path, schema)
        records.extend(recs)
    all_series = tracer.call("ingest.build", len(records), build_series, records)
    results, dk_traces = {}, {}
    write_dir.mkdir(parents=True, exist_ok=True)
    for code in sorted(all_series):
        series = all_series[code]
        with tracer.scope("stock"):
            results[code] = _replay_stock(series, config, tracer, dk_traces)
        tracer.call("ingest.write", len(series), series.to_interchange, write_dir / f"{code}.csv")
    return all_series, results, dk_traces


def _replay_stock(series, config: PipelineConfig, tracer, dk_traces: dict) -> dict:
    code = series.stock_code
    result: dict = {
        "stock_code": code,
        "n_ticks": len(series),
        "n_days": series.n_days,
        "avgprice": series.mean_price(),
        "volatility": tracer.call(
            "stats.volatility", len(series), volatility, series.prices_cny, n_convention=config.volatility_n
        ),
        "settings": {},
    }
    for setting in config.settings():
        entry: dict = {}
        result["settings"][setting.label] = entry
        try:
            scheme = setting.scheme_for(series)
        except ValueError as exc:
            entry["dropped"] = str(exc)
            continue
        if series.n_days < 2:
            entry["dropped"] = "fewer than 2 trading days"
            continue
        decision = tracer.call(
            "ingest.filter", 1, filter_series, series, scheme, config.min_length, config.min_states
        )
        if not decision.keep:
            entry["dropped"] = decision.reason
            continue
        tracer.count("ingest.filter.kept")
        seq = tracer.call("quantize", len(series), quantize_with, series, scheme)
        est = _entropy(seq, tracer)
        entry.update(
            {
                "dropped": None,
                "scheme": json.loads(scheme.to_json()),
                "n": est.n,
                "n_distinct": seq.n_distinct,
                "s_est": est.s_est,
                "mean_match_length": est.mean_match_length,
                "pi_max": _bound(est.s_est, seq.n_distinct, tracer),
                "models": {},
            }
        )
        for model in MODELS:
            seed = child_seed(config.seed, code, setting.label, model)
            if model == "mc":
                trace = tracer.call(
                    "predict.mc", len(seq), run_protocol, seq, series.day_boundaries, "mc", seed=seed, stock_code=code
                )
            else:
                trace = _dk_protocol(seq, series.day_boundaries, seed, config.dk_params(), code, tracer)
                dk_traces[(code, setting.label)] = trace
            raw = series.prices_cny[trace.start_index :] if config.rmse_against == "raw" else None
            report = tracer.call(
                "evaluate", len(trace), evaluate_trace, trace, scheme, raw_prices=raw, avgprice=result["avgprice"]
            )
            entry["models"][model] = {
                "acc": report.acc,
                "rmse": report.rmse,
                "rmse_ratio_permille": report.rmse_price_ratio,
                "n_test": report.n_test,
            }
    return result


def _entropy(seq, tracer):
    est = tracer.call("entropy", len(seq), estimate_entropy, seq, keep_match_lengths=tracer.enabled)
    if tracer.enabled:
        # a position is censored when its match length reached tail + 1
        lam = est.match_length_values
        tracer.count("entropy.censored", int(np.count_nonzero(lam == len(lam) - np.arange(len(lam)) + 1)))
    return est


def _bound(s_est: float, n_states: int, tracer) -> float:
    if s_est < 0.0 or (n_states > 1 and s_est > math.log2(n_states)):
        tracer.count("predictability.clamped")
    return tracer.call("predictability", 1, fano_solve, s_est, n_states)


def _dk_protocol(seq, day_boundaries, seed: int, dk_params: dict, code: str, tracer) -> PredictionTrace:
    """run_protocol(..., "dk") spelled out through the model's public methods."""
    states = seq.states
    start = int(day_boundaries[1])
    model = DiffusionKernelModel(seed=seed, **dk_params)
    tracer.call("predict.dk_train", (start - 2) * model.epochs, model.train, states[:start])
    lst = states.tolist()
    predicted = np.empty(len(lst) - start, dtype=np.int64)
    t0 = perf_counter()
    for t in range(start, len(lst)):
        context = (lst[t - 2], lst[t - 1])
        predicted[t - start] = model.predict(context)
        model.update(context, lst[t])
    tracer.record("predict.dk_online", t0, perf_counter(), len(lst) - start)
    return PredictionTrace(
        stock_code=code, model="dk", predicted=predicted, actual=states[start:].copy(), start_index=start
    )


# -- library path -----------------------------------------------------------------

LIBRARY_SETTINGS = (("T=0.01", 0.01), ("T=0.05", 0.05), ("SP=20", 20))


def library_pass(all_series, tracer) -> dict:
    """The README quick start per stock and setting, with MC as the predictor.

    Returns per-(stock, setting) outputs: estimate, bound, MC trace and its
    evaluation.
    """
    return {
        (series.stock_code, label): library_unit(series, label, value, tracer)
        for series in all_series
        for label, value in LIBRARY_SETTINGS
    }


def library_unit(series, label: str, value, tracer) -> dict:
    """One (stock, setting) of ``library_pass``."""
    if label.startswith("SP"):
        seq = tracer.call("quantize", len(series), quantize_fixed_count, series, value, series.day_boundaries[1])
    else:
        seq = tracer.call("quantize", len(series), quantize_fixed, series, value)
    est = _entropy(seq, tracer)
    pi_max = _bound(est.s_est, seq.n_distinct, tracer)
    trace = tracer.call(
        "predict.mc", len(seq), run_protocol, seq, series.day_boundaries, "mc", stock_code=series.stock_code
    )
    report = tracer.call(
        "evaluate",
        len(trace),
        evaluate_trace,
        trace,
        seq.scheme,
        raw_prices=series.prices_cny[trace.start_index :],
        avgprice=series.mean_price(),
    )
    return {
        "states": seq.states,
        "n": est.n,
        "n_distinct": seq.n_distinct,
        "s_est": est.s_est,
        "mean_match_length": est.mean_match_length,
        "pi_max": pi_max,
        "mc_predicted": trace.predicted,
        "mc_eval": (report.acc, report.rmse, report.rmse_price_ratio, report.n_test),
    }
