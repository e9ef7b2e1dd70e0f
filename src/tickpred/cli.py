"""Command line front end.

Subcommands: ingest, quantize, entropy, predictability, predict, evaluate,
features, correlate, run-all. Exit codes: 0 success, 1 config error, 2 data
error, 3 partial failure. All outputs are UTF-8 CSV with header rows; report
subcommands mirror to JSON with --json.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .entropy import estimate_entropy
from .errors import ConfigError, DataError, int64, read_table
from .features import CATEGORICAL, FEATURE_HEADER, QUANTITATIVE, correlate_features, load_metadata, load_per_stock_dir
from .ingest import ColumnSchema, PriceSeries, load_series
from .pipeline import PipelineConfig, QuantizationSetting, run_all, stock_rows, unit_scores, unit_trace, write_csv, write_json
from .predict import PredictionTrace
from .predictability import fano_solve
from .quantize import count_distinct, quantize_with


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, not exit code 2
        raise ConfigError(message)


def _read_states(path) -> np.ndarray:
    """The ``state`` column of a states file."""
    return np.asarray(read_table(path, {"state": int64})["state"], dtype=np.int64)


def _blank_or(kind):
    """``kind`` of a text value, or None for a blank one."""
    return lambda text: kind(text) if text.strip() else None


def _stage_config(args, inputs) -> tuple[PipelineConfig, QuantizationSetting | None]:
    """run-all's config (its defaults without --config), checked as run-all checks it, and the --setting it names.

    The stage's own ``inputs`` stand in for the config's ``input``. The setting is None without --setting.
    """
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    config = replace(config, inputs=tuple(inputs))
    config.validate()
    if args.setting is None:
        return config, None
    settings = {s.label: s for s in config.settings()}
    if args.setting not in settings:
        raise ConfigError(f"setting {args.setting!r} is not in the config; its settings: {', '.join(settings)}")
    return config, settings[args.setting]


def cmd_ingest(args) -> int:
    config, setting = _stage_config(args, args.input)
    schema = ColumnSchema(code=config.code_column, time=config.time_column, price=config.price_column)
    series_map, malformed = load_series(args.input, schema)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for code in sorted(series_map):
        series = series_map[code]
        reason = setting.admit(series, config.min_length, config.min_states)[1] if setting else None
        if reason is None:
            series.to_interchange(out_dir / f"{code}.csv")
        rows.append([code, len(series), series.n_days, int(reason is None), reason or ""])
    write_csv(args.report or sys.stdout, ["stock_code", "n_ticks", "n_days", "kept", "reason"], rows)
    print(f"{len(series_map)} stocks, {sum(malformed.values())} malformed rows skipped", file=sys.stderr)
    return 0


def cmd_quantize(args) -> int:
    _, setting = _stage_config(args, [args.input])
    series = PriceSeries.from_interchange(args.input)
    seq = quantize_with(series, setting.scheme_for(series))  # as run-all does: a count spans day one
    write_csv(args.out, ["state"], [[s] for s in seq.states.tolist()])
    print(f"{len(seq)} states, {seq.n_distinct} distinct", file=sys.stderr)
    return 0


def cmd_entropy(args) -> int:
    states = _read_states(args.input)
    est = estimate_entropy(states)
    code = Path(args.input).stem
    header = ["stock_code", "n", "n_distinct", "s_est"]
    row = [code, est.n, count_distinct(states), est.s_est]
    if args.nats:
        header.append("s_est_nats")
        row.append(est.s_est_nats)
    write_csv(args.out or sys.stdout, header, [row])
    return 0


def cmd_predictability(args) -> int:
    table = read_table(args.entropy_file, {"n_distinct": int, "s_est": float})
    pi_max = [fano_solve(s, n) for s, n in zip(table["s_est"], table["n_distinct"])]
    write_csv(args.out or sys.stdout, [*table, "pi_max"], list(zip(*table.values(), pi_max)))
    return 0


def cmd_predict(args) -> int:
    config, setting = _stage_config(args, [args.input])
    states = _read_states(args.input)
    series = PriceSeries.from_interchange(args.series)  # named after its stock, as ingest and run-all name it
    if len(states) != len(series):
        raise DataError(f"{args.input} holds {len(states)} states but {args.series} holds {len(series)} prices")
    trace = unit_trace(config, states, series, setting, args.model)
    rows = zip(range(trace.start_index, len(states)), trace.predicted.tolist(), trace.actual.tolist())
    write_csv(args.out or sys.stdout, ["index", "predicted", "actual"], rows)
    return 0


def cmd_evaluate(args) -> int:
    if args.json and not args.out:
        raise ConfigError("--json writes a mirror of --out, so it needs --out")
    config, setting = _stage_config(args, [args.series])
    table = read_table(args.trace, {"index": int64, "predicted": int64, "actual": int64})
    index, predicted, actual = (np.asarray(table[k], dtype=np.int64) for k in ("index", "predicted", "actual"))
    series = PriceSeries.from_interchange(args.series)
    if index.min() < 0 or index.max() >= len(series):
        raise DataError(f"{args.trace}: index outside the {len(series)} prices of {args.series}")
    trace = PredictionTrace(series.stock_code, args.model, predicted, actual, start_index=int(index[0]))
    scores = unit_scores(config, trace, series, setting.scheme_for(series), index)
    header = ["stock_code", "model", *scores]
    row = [trace.stock_code, trace.model, *scores.values()]
    write_csv(args.out or sys.stdout, header, [row])
    if args.json:
        write_json(Path(args.out).with_suffix(".json"), [dict(zip(header, row))])
    return 0


def cmd_features(args) -> int:
    results = load_per_stock_dir(args.per_stock)
    units, _ = stock_rows(results, [args.setting])
    if not units:
        found = sorted({label for result in results.values() for label in result["settings"]})
        raise DataError(f"{args.per_stock}: no result holds setting {args.setting!r}; settings found: {', '.join(found)}")
    metadata = load_metadata(args.metadata) if args.metadata else {}
    # the rows of predictability.csv; a stock missing from the metadata keeps blank company fields
    rows = [{**u, **metadata.get(u["stock_code"], {})} for u in units if "reason" not in u]
    if not rows:
        raise DataError(f"no stocks kept under setting {args.setting!r}")
    write_csv(args.out or sys.stdout, FEATURE_HEADER, [[r.get(k, "") for k in FEATURE_HEADER] for r in rows])
    return 0


def cmd_correlate(args) -> int:
    # every analysed column must be there; a blank value skips its row for that column
    types = {**dict.fromkeys((*QUANTITATIVE, args.target), _blank_or(float)), **dict.fromkeys(CATEGORICAL, _blank_or(int))}
    table = read_table(args.features, types)
    rows = [dict(zip(table, values)) for values in zip(*table.values())]
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
        write_json(out_dir / "correlate.json", result)
    print(f"wrote correlations for {len(rows)} stocks to {out_dir}", file=sys.stderr)
    return 0


def cmd_run_all(args) -> int:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
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


def _config_args(p, required=False, setting_help="setting label, e.g. T=0.05 or SP=20") -> None:
    p.add_argument("--config", default=None, help="run-all's config file (default: run-all --print-config)")
    p.add_argument("--setting", required=required, default=None, help=setting_help)


def build_parser() -> _Parser:
    parser = _Parser(prog="tickpred", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse tick files into per-stock interchange series")
    p.add_argument("--input", nargs="+", required=True, help="tick files or glob patterns")
    p.add_argument("--out", required=True, help="directory for per-stock series files")
    _config_args(p, setting_help="keep or drop each stock as run-all does under this setting")
    p.add_argument("--report", default=None, help="write the per-stock report CSV here instead of stdout")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("quantize", help="map an interchange series to state ids")
    p.add_argument("--input", required=True)
    _config_args(p, required=True)
    p.add_argument("--out", required=True)
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
    p.add_argument("--series", required=True, help="the states' interchange series: day one trains, as in run-all")
    _config_args(p, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="accuracy and RMSE of a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--series", required=True, help="the trace's interchange series: score it as run-all does")
    _config_args(p, required=True)
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
    except ValueError as exc:  # DataError included
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be written; unreadable inputs raise DataError
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"config error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
