"""Command line front end.

Subcommands: ingest, quantize, entropy, predictability, predict, evaluate,
features, correlate, run-all. Exit codes: 0 success, 1 config error, 2 data
error, 3 partial failure. All outputs are UTF-8 CSV with header rows; report
subcommands mirror to JSON with --json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .entropy import estimate_entropy
from .errors import ConfigError, DataError
from .evaluate import evaluate_trace
from .features import (
    FEATURE_HEADER,
    build_feature_table,
    correlate_features,
    load_metadata,
    load_per_stock_dir,
    read_csv_dicts,
)
from .ingest import DEFAULT_MIN_LENGTH, DEFAULT_MIN_STATES, ColumnSchema, PriceSeries, filter_series, load_series
from .pipeline import PipelineConfig, run_all, write_csv, write_json_mirror
from .predict import PredictionTrace, run_protocol
from .predictability import fano_solve
from .quantize import QuantizationScheme, fixed_interval_scheme, quantize_fixed, quantize_fixed_count


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, not exit code 2
        raise ConfigError(message)


def _column(text: str):
    return int(text) if text.isdigit() else text


def _read_states(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if lines and not lines[0].lstrip("-").isdigit():
        lines = lines[1:]  # header row
    if not lines:
        raise DataError(f"{path}: no states")
    return np.asarray([int(x) for x in lines], dtype=np.int64)


def cmd_ingest(args) -> int:
    schema = ColumnSchema(code=args.code_column, time=args.time_column, price=args.price_column)
    series_map, malformed = load_series(args.input, schema)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for code in sorted(series_map):
        series = series_map[code]
        kept, reason = True, ""
        if args.filter_interval is not None:
            decision = filter_series(
                series, fixed_interval_scheme(args.filter_interval), args.min_length, args.min_states
            )
            kept, reason = decision.keep, decision.reason or ""
        if kept:
            series.to_interchange(out_dir / f"{code}.csv")
        rows.append([code, len(series), series.n_days, int(kept), reason])
    write_csv(args.report or sys.stdout, ["stock_code", "n_ticks", "n_days", "kept", "reason"], rows)
    print(f"{len(series_map)} stocks, {malformed} malformed rows skipped", file=sys.stderr)
    return 0


def cmd_quantize(args) -> int:
    if args.interval is not None and args.interval < 0.01:
        raise ConfigError(f"--interval must be >= 0.01 CNY, got {args.interval}")
    if args.state_count is not None and args.state_count < 2:
        raise ConfigError(f"--state-count must be >= 2, got {args.state_count}")
    series = PriceSeries.from_interchange(args.input)
    if args.interval is not None:
        seq = quantize_fixed(series, args.interval)
    else:
        train_end = args.train_end if args.train_end is not None else (
            series.day_boundaries[1] if series.n_days >= 2 else len(series)
        )
        seq = quantize_fixed_count(series, args.state_count, train_end)
    write_csv(args.out, ["state"], [[s] for s in seq.states.tolist()])
    if args.scheme_out:
        Path(args.scheme_out).write_text(seq.scheme.to_json() + "\n", encoding="utf-8")
    print(f"{len(seq)} states, {seq.n_distinct} distinct", file=sys.stderr)
    return 0


def cmd_entropy(args) -> int:
    states = _read_states(args.input)
    est = estimate_entropy(states)
    code = Path(args.input).stem
    header = ["stock_code", "n", "n_distinct", "s_est"]
    row = [code, est.n, int(len(np.unique(states))), est.s_est]
    if args.nats:
        header.append("s_est_nats")
        row.append(est.s_est_nats)
    write_csv(args.out or sys.stdout, header, [row])
    return 0


def cmd_predictability(args) -> int:
    rows = read_csv_dicts(args.entropy_file, required=("n_distinct", "s_est"))
    if not rows:
        raise DataError(f"{args.entropy_file}: no rows")
    header = list(rows[0].keys()) + ["pi_max"]
    out_rows = []
    for row in rows:
        pi = fano_solve(float(row["s_est"]), int(row["n_distinct"]))
        out_rows.append(list(row.values()) + [pi])
    write_csv(args.out or sys.stdout, header, out_rows)
    return 0


def cmd_predict(args) -> int:
    states = _read_states(args.input)
    if args.train_end < 3:
        raise ConfigError("--train-end must be >= 3")
    dk = PipelineConfig(
        inputs=(args.input,),
        dk_dim=args.dim,
        dk_epochs=args.epochs,
        dk_alpha=args.alpha,
        dk_margin=args.margin,
        dk_negatives=args.negatives,
    )
    dk.validate()
    trace = run_protocol(
        states,
        [0, args.train_end],
        args.model,
        seed=args.seed,
        dk_params=dk.dk_params() if args.model == "dk" else None,
        stock_code=Path(args.input).stem,
    )
    rows = [
        [trace.start_index + i, int(p), int(a)]
        for i, (p, a) in enumerate(zip(trace.predicted.tolist(), trace.actual.tolist()))
    ]
    write_csv(args.out or sys.stdout, ["index", "predicted", "actual"], rows)
    return 0


def cmd_evaluate(args) -> int:
    rows = read_csv_dicts(args.trace, required=("index", "predicted", "actual"))
    if not rows:
        raise DataError(f"{args.trace}: empty trace")
    predicted = np.asarray([int(r["predicted"]) for r in rows], dtype=np.int64)
    actual = np.asarray([int(r["actual"]) for r in rows], dtype=np.int64)
    trace = PredictionTrace(
        stock_code=args.stock_code,
        model=args.model,
        predicted=predicted,
        actual=actual,
        start_index=int(rows[0]["index"]),
    )
    scheme = QuantizationScheme.from_json(Path(args.scheme).read_text(encoding="utf-8"))
    raw = None
    mode = args.rmse_against or ("raw" if args.prices else "state")
    if mode == "raw":
        if not args.prices:
            raise ConfigError("--rmse-against raw needs --prices")
        with open(args.prices, "r", encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        if lines and not lines[0].replace(".", "").lstrip("-").isdigit():
            lines = lines[1:]
        raw = np.asarray([float(x) for x in lines])
    report = evaluate_trace(trace, scheme, raw_prices=raw, avgprice=args.avgprice)
    header = ["stock_code", "model", "acc", "rmse", "rmse_ratio_permille", "n_test"]
    row = [
        report.stock_code,
        report.model,
        report.acc,
        report.rmse,
        report.rmse_price_ratio if report.rmse_price_ratio is not None else "",
        report.n_test,
    ]
    write_csv(args.out or sys.stdout, header, [row])
    if args.json and args.out:
        write_json_mirror(Path(args.out).with_suffix(".json"), header, [row])
    return 0


def cmd_features(args) -> int:
    per_stock = load_per_stock_dir(args.per_stock)
    metadata = load_metadata(args.metadata) if args.metadata else None
    rows = build_feature_table(per_stock, args.setting, metadata)
    if not rows:
        raise DataError(f"no stocks kept under setting {args.setting!r}")
    write_csv(args.out or sys.stdout, FEATURE_HEADER, [[r[k] for k in FEATURE_HEADER] for r in rows])
    return 0


def cmd_correlate(args) -> int:
    rows = read_csv_dicts(args.features, required=(args.target,))
    result = correlate_features(rows, target=args.target)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spearman_header = ["feature", "coefficient", "n"]
    spearman_rows = [[r["feature"], r["coefficient"], r["n"]] for r in result["spearman"]]
    write_csv(out_dir / "correlations.csv", spearman_header, spearman_rows)
    anova_header = ["feature", "F", "p", "SSB", "SST", "eta2p"]
    anova_rows = [[r[k] for k in anova_header] for r in result["anova"]]
    write_csv(out_dir / "anova.csv", anova_header, anova_rows)
    for feature, table in result["binned"].items():
        write_csv(
            out_dir / f"binned_{feature}.csv",
            ["index", "count", "mean", "std"],
            [[r["index"], r["count"], r["mean"], r["std"]] for r in table],
        )
    if args.json:
        (out_dir / "correlate.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote correlations for {len(rows)} stocks to {out_dir}", file=sys.stderr)
    return 0


def cmd_run_all(args) -> int:
    if args.config:
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    if args.print_config:
        sys.stdout.write(config.to_text())
        return 0
    if not args.config:
        raise ConfigError("run-all needs --config (or --print-config to show defaults)")
    manifest = run_all(config, json_mirror=args.json)
    done, failed = manifest.done, manifest.failed
    print(f"done: {len(done)} stocks, failed: {len(failed)}", file=sys.stderr)
    for code in failed:
        print(f"  failed {code}: {manifest.statuses[code][1]}", file=sys.stderr)
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tickpred", description=__doc__)
    defaults = PipelineConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse tick files into per-stock interchange series")
    p.add_argument("--input", nargs="+", required=True, help="tick files or glob patterns")
    p.add_argument("--code-column", type=_column, default=1)
    p.add_argument("--time-column", type=_column, default=2)
    p.add_argument("--price-column", type=_column, default=3)
    p.add_argument("--out", required=True, help="directory for per-stock series files")
    p.add_argument("--filter-interval", type=float, default=None, help="apply the keep/drop filter at this interval")
    p.add_argument("--min-length", type=int, default=DEFAULT_MIN_LENGTH)
    p.add_argument("--min-states", type=int, default=DEFAULT_MIN_STATES)
    p.add_argument("--report", default=None, help="write the per-stock report CSV here instead of stdout")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("quantize", help="map an interchange series to state ids")
    p.add_argument("--input", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--interval", type=float, default=None)
    group.add_argument("--state-count", type=int, default=None)
    p.add_argument("--train-end", type=int, default=None, help="training slice end for --state-count (default: first day)")
    p.add_argument("--out", required=True)
    p.add_argument("--scheme-out", default=None, help="write the scheme JSON (needed by evaluate)")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("entropy", help="entropy rate estimate of a states file")
    p.add_argument("--input", required=True)
    p.add_argument("--nats", action="store_true", help="also report the natural-log variant")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("predictability", help="append the accuracy upper bound to an entropy CSV")
    p.add_argument("--entropy-file", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predictability)

    p = sub.add_parser("predict", help="online next-state prediction over a states file")
    p.add_argument("--model", choices=("mc", "dk"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--train-end", type=int, required=True, help="index where testing starts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=defaults.dk_dim)
    p.add_argument("--epochs", type=int, default=defaults.dk_epochs)
    p.add_argument("--alpha", type=float, default=defaults.dk_alpha)
    p.add_argument("--margin", type=float, default=defaults.dk_margin)
    p.add_argument("--negatives", type=int, default=defaults.dk_negatives)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="accuracy and RMSE of a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--scheme", required=True, help="scheme JSON from quantize --scheme-out")
    p.add_argument(
        "--rmse-against",
        choices=("raw", "state"),
        default=None,
        help="ground truth for RMSE: raw prices (needs --prices) or dequantized actual states",
    )
    p.add_argument("--prices", default=None, help="raw CNY prices aligned with the trace")
    p.add_argument("--avgprice", type=float, default=None)
    p.add_argument("--stock-code", default="")
    p.add_argument("--model", default="")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("features", help="assemble the per-stock feature table")
    p.add_argument("--per-stock", required=True, help="pipeline per_stock/ directory")
    p.add_argument("--setting", required=True, help="setting label, e.g. T=0.01 or SP=100")
    p.add_argument("--metadata", default=None, help="side CSV: stock_code,life,scale,category,region")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("correlate", help="rank correlations, ANOVA and binned summaries")
    p.add_argument("--features", required=True)
    p.add_argument("--target", default="acc_dk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("run-all", help="full pipeline from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
