"""End-to-end orchestration: tick files in, report and plot CSVs out.

For every stock that survives filtering and every configured quantization
setting, the pipeline produces the entropy estimate, the accuracy upper
bound, online traces for both predictors and their evaluation rows, then
aggregates arithmetic-mean summaries and plot-ready distribution CSVs. A
manifest records per-stock status so an interrupted or repeated run skips
finished work, and one corrupt stock cannot abort the rest. Outputs are
byte-identical for identical config and seed.
"""

from __future__ import annotations

import glob
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .entropy import estimate_entropy
from .errors import ConfigError, DataError
from .evaluate import evaluate_trace
from .ingest import (
    DEFAULT_MIN_LENGTH,
    DEFAULT_MIN_STATES,
    ColumnSchema,
    PriceSeries,
    build_series,
    filter_series,
    parse_ticks,
)
from .predict import run_protocol
from .predictability import fano_solve
from .quantize import QuantizationScheme, fixed_count_scheme, fixed_interval_scheme, quantize_with
from .stats import volatility

MODELS = ("mc", "dk")

EVAL_HEADER = ["stock_code", "setting", "model", "acc", "rmse", "rmse_ratio_permille", "n_test"]
PRED_HEADER = ["stock_code", "setting", "n", "n_distinct", "s_est", "pi_max"]
SUMMARY_HEADER = [
    "setting",
    "model",
    "n_stocks",
    "mean_acc",
    "mean_pi_max",
    "mean_rmse",
    "mean_rmse_ratio_permille",
    "share_s_est_lt_2",
]
DROP_HEADER = ["stock_code", "setting", "reason"]

_KEY_OF = {"inputs": "input"}  # config-file key of a field, where it differs from the field name


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; serialisable as key = value lines."""

    inputs: tuple[str, ...] = ()
    code_column: int | str = 1
    time_column: int | str = 2
    price_column: int | str = 3
    intervals: tuple[float, ...] = (0.01, 0.05)
    state_count: int | None = None
    min_length: int = DEFAULT_MIN_LENGTH
    min_states: int = DEFAULT_MIN_STATES
    dk_dim: int = 16
    dk_epochs: int = 20
    dk_alpha: float = 0.1
    dk_margin: float = 1.0
    dk_negatives: int = 5
    seed: int = 0
    rmse_against: str = "raw"  # or "state": dequantized actual states
    volatility_n: str = "returns"  # or "sequence"
    output_dir: str = "out"
    workers: int = 1

    def dk_params(self) -> dict:
        return {
            "dim": self.dk_dim,
            "epochs": self.dk_epochs,
            "alpha0": self.dk_alpha,
            "margin": self.dk_margin,
            "negatives_per_step": self.dk_negatives,
        }

    def settings(self) -> list[QuantizationSetting]:
        out = [QuantizationSetting("interval", float(t)) for t in self.intervals]
        if self.state_count is not None:
            out.append(QuantizationSetting("count", int(self.state_count)))
        return out

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("config needs at least one input path")
        if not self.intervals and self.state_count is None:
            raise ConfigError("config needs at least one quantization setting (intervals or state_count)")
        for t in self.intervals:
            if t < 0.01:
                raise ConfigError(f"interval {t} below the 0.01 CNY price precision")
        if self.state_count is not None and self.state_count < 2:
            raise ConfigError("state_count must be >= 2")
        if self.rmse_against not in ("raw", "state"):
            raise ConfigError(f"rmse_against must be 'raw' or 'state', got {self.rmse_against!r}")
        if self.volatility_n not in ("returns", "sequence"):
            raise ConfigError(f"volatility_n must be 'returns' or 'sequence', got {self.volatility_n!r}")
        if self.min_length < 3:
            raise ConfigError("min_length must be >= 3")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def to_text(self) -> str:
        """One ``key = value`` line per field, in field order; ``None`` is an empty value."""
        hints = get_type_hints(type(self))
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                item = get_args(hints[f.name])[0]
                text = ", ".join(_format_value(item, v) for v in value)
            else:
                text = "" if value is None else _format_value(hints[f.name], value)
            lines.append(f"{_KEY_OF.get(f.name, f.name)} = {text}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """Hash of the semantic config: output location and parallelism excluded."""
        skip = ("output_dir =", "workers =")
        lines = [ln for ln in self.to_text().splitlines() if not ln.startswith(skip)]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        """Parse key = value lines; a missing key, or an empty scalar, keeps the field default."""
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()

        hints = get_type_hints(cls)
        keys = {_KEY_OF.get(f.name, f.name): f.name for f in fields(cls)}
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, name in keys.items():
            text = raw.get(key, "")
            try:
                if get_origin(hints[name]) is tuple and key in raw:
                    item = get_args(hints[name])[0]
                    values[name] = tuple(_parse_value(item, t.strip()) for t in text.split(",") if t.strip())
                elif text:
                    values[name] = _parse_value(hints[name], text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        return cls(**values)


def _format_value(hint, value) -> str:
    return f"{value:g}" if hint is float else str(value)


def _parse_value(hint, text: str):
    """Cast one config value to its field type; an ``int | str`` column given as digits is an index."""
    kinds = get_args(hint) or (hint,)
    if str in kinds:
        return int(text) if int in kinds and text.isdigit() else text
    return kinds[0](text)


@dataclass(frozen=True)
class QuantizationSetting:
    """One requested quantization: a fixed interval or a fixed state count."""

    kind: str  # "interval" or "count"
    value: float | int

    @property
    def label(self) -> str:
        return f"T={self.value:.2f}" if self.kind == "interval" else f"SP={int(self.value)}"

    @property
    def slug(self) -> str:
        return f"t{self.value:g}" if self.kind == "interval" else f"sp{int(self.value)}"

    def scheme_for(self, series: PriceSeries) -> QuantizationScheme:
        if self.kind == "interval":
            return fixed_interval_scheme(float(self.value))
        if len(series.day_boundaries) < 2:
            raise ValueError("fixed state count needs a training day to anchor the range")
        train_end = series.day_boundaries[1]
        return fixed_count_scheme(series.prices_hundredths[:train_end], int(self.value))


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str = __version__
    statuses: dict[str, tuple[str, str]] = field(default_factory=dict)  # code -> (status, reason)

    def mark(self, code: str, status: str, reason: str = "") -> None:
        self.statuses[code] = (status, reason)

    @property
    def failed(self) -> list[str]:
        return sorted(c for c, (s, _) in self.statuses.items() if s == "failed")

    @property
    def done(self) -> list[str]:
        return sorted(c for c, (s, _) in self.statuses.items() if s == "done")


def child_seed(base_seed: int, *parts) -> int:
    """Stable per-task seed, independent of processing order and platform."""
    text = "|".join([str(base_seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") % (2**63)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(target, header: list[str], rows: list[list]) -> None:
    """Write UTF-8 CSV with ``\\n`` line ends to a path or an open text stream."""
    with nullcontext(target) if hasattr(target, "write") else open(target, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def write_json_mirror(path, header: list[str], rows: list[list]) -> None:
    records = [dict(zip(header, row)) for row in rows]
    Path(path).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def process_stock(series: PriceSeries, config: PipelineConfig) -> dict:
    """Full per-stock analysis across every configured quantization setting."""
    result: dict = {
        "stock_code": series.stock_code,
        "n_ticks": len(series),
        "n_days": series.n_days,
        "avgprice": series.mean_price(),
        "volatility": volatility(series.prices_cny, n_convention=config.volatility_n),
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
        decision = filter_series(series, scheme, config.min_length, config.min_states)
        if not decision.keep:
            entry["dropped"] = decision.reason
            continue
        seq = quantize_with(series, scheme)
        est = estimate_entropy(seq)
        entry.update(
            {
                "dropped": None,
                "scheme": json.loads(scheme.to_json()),
                "n": est.n,
                "n_distinct": seq.n_distinct,
                "s_est": est.s_est,
                "mean_match_length": est.mean_match_length,
                "pi_max": fano_solve(est.s_est, seq.n_distinct),
                "models": {},
            }
        )
        for model in MODELS:
            trace = run_protocol(
                seq,
                series.day_boundaries,
                model,
                seed=child_seed(config.seed, series.stock_code, setting.label, model),
                dk_params=config.dk_params() if model == "dk" else None,
                stock_code=series.stock_code,
            )
            raw = series.prices_cny[trace.start_index :] if config.rmse_against == "raw" else None
            report = evaluate_trace(trace, scheme, raw_prices=raw, avgprice=result["avgprice"])
            entry["models"][model] = {
                "acc": report.acc,
                "rmse": report.rmse,
                "rmse_ratio_permille": report.rmse_price_ratio,
                "n_test": report.n_test,
            }
    return result


def load_input_series(config: PipelineConfig) -> dict[str, PriceSeries]:
    schema = ColumnSchema(code=config.code_column, time=config.time_column, price=config.price_column)
    paths: list[str] = []
    for pattern in config.inputs:
        expanded = sorted(glob.glob(pattern))
        paths.extend(expanded if expanded else [pattern])
    records = []
    for path in paths:
        if not Path(path).is_file():
            raise DataError(f"input file not found: {path}")
        recs, _malformed = parse_ticks(path, schema)
        records.extend(recs)
    return build_series(records)


def emit_summary(eval_rows: list[dict], pred_rows: list[dict]) -> list[dict]:
    """Arithmetic means per (setting, model) plus the share of low-entropy stocks."""
    if not eval_rows:
        raise ValueError("no evaluation rows to summarise")
    settings = []
    for row in eval_rows:
        if row["setting"] not in settings:
            settings.append(row["setting"])
    out = []
    for setting in settings:
        preds = [r for r in pred_rows if r["setting"] == setting]
        share_low = (
            sum(1 for r in preds if r["s_est"] < 2.0) / len(preds) if preds else float("nan")
        )
        mean_pi = float(np.mean([r["pi_max"] for r in preds])) if preds else float("nan")
        for model in MODELS:
            rows = [r for r in eval_rows if r["setting"] == setting and r["model"] == model]
            if not rows:
                continue
            ratios = [r["rmse_ratio_permille"] for r in rows if r["rmse_ratio_permille"] is not None]
            out.append(
                {
                    "setting": setting,
                    "model": model,
                    "n_stocks": len(rows),
                    "mean_acc": float(np.mean([r["acc"] for r in rows])),
                    "mean_pi_max": mean_pi,
                    "mean_rmse": float(np.mean([r["rmse"] for r in rows])),
                    "mean_rmse_ratio_permille": float(np.mean(ratios)) if ratios else float("nan"),
                    "share_s_est_lt_2": share_low,
                }
            )
    return out


def _histogram_rows(values: list[float], width: float) -> list[list]:
    if not values:
        return []
    top = max(values)
    n_bins = max(1, int(np.floor(top / width)) + 1)
    counts, edges = np.histogram(values, bins=n_bins, range=(0.0, n_bins * width))
    return [[edges[i], edges[i + 1], int(counts[i])] for i in range(n_bins)]


def _load_manifest(path: Path) -> tuple[str, dict[str, tuple[str, str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return "", {}
    head = json.loads(lines[0])
    statuses = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        entry = json.loads(line)
        statuses[entry["stock"]] = (entry["status"], entry.get("reason", ""))
    return head.get("config_hash", ""), statuses


def run_all(config: PipelineConfig, json_mirror: bool = False) -> RunManifest:
    """Run the whole pipeline; returns the manifest with per-stock statuses."""
    config.validate()
    out_dir = Path(config.output_dir)
    for sub in ("series", "per_stock", "reports", "plots"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    all_series = load_input_series(config)
    codes = sorted(all_series)
    manifest = RunManifest(config_hash=config.content_hash())

    manifest_path = out_dir / "manifest.jsonl"
    previous_done: set[str] = set()
    if manifest_path.is_file():
        prev_hash, prev_statuses = _load_manifest(manifest_path)
        if prev_hash == manifest.config_hash:
            previous_done = {c for c, (s, _) in prev_statuses.items() if s == "done"}

    results: dict[str, dict] = {}
    pending: list[str] = []
    for code in codes:
        per_stock_path = out_dir / "per_stock" / f"{code}.json"
        if code in previous_done and per_stock_path.is_file():
            try:
                results[code] = json.loads(per_stock_path.read_text(encoding="utf-8"))
                manifest.mark(code, "done")
                continue
            except (json.JSONDecodeError, OSError):
                pass  # fall through and recompute
        pending.append(code)

    def finish(code: str, outcome) -> None:
        if isinstance(outcome, Exception):
            # per-stock isolation: one bad stock cannot stop a run
            manifest.mark(code, "failed", f"{type(outcome).__name__}: {outcome}")
            return
        all_series[code].to_interchange(out_dir / "series" / f"{code}.csv")
        (out_dir / "per_stock" / f"{code}.json").write_text(
            json.dumps(outcome, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        results[code] = outcome
        manifest.mark(code, "done")

    if config.workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {code: pool.submit(process_stock, all_series[code], config) for code in pending}
            for code in pending:
                try:
                    finish(code, futures[code].result())
                except Exception as exc:
                    finish(code, exc)
    else:
        for code in pending:
            try:
                finish(code, process_stock(all_series[code], config))
            except Exception as exc:
                finish(code, exc)

    with open(manifest_path, "w", encoding="utf-8", newline="") as f:
        f.write(json.dumps({"config_hash": manifest.config_hash, "tool_version": manifest.tool_version}) + "\n")
        for code in codes:
            status, reason = manifest.statuses.get(code, ("pending", ""))
            f.write(json.dumps({"stock": code, "status": status, "reason": reason}) + "\n")

    _write_reports(out_dir, config, results, json_mirror)
    return manifest


def _write_reports(out_dir: Path, config: PipelineConfig, results: dict[str, dict], json_mirror: bool) -> None:
    eval_rows: list[dict] = []
    pred_rows: list[dict] = []
    drop_rows: list[list] = []
    labels = [s.label for s in config.settings()]
    for code in sorted(results):
        settings = results[code]["settings"]
        # fixed label and model order keeps rows identical whether a result
        # was computed this run or reloaded from a per-stock JSON
        for label in labels:
            entry = settings.get(label)
            if entry is None:
                continue
            if entry.get("dropped"):
                drop_rows.append([code, label, entry["dropped"]])
                continue
            pred_rows.append(
                {
                    "stock_code": code,
                    "setting": label,
                    "n": entry["n"],
                    "n_distinct": entry["n_distinct"],
                    "s_est": entry["s_est"],
                    "pi_max": entry["pi_max"],
                }
            )
            for model in MODELS:
                rep = entry["models"][model]
                eval_rows.append(
                    {
                        "stock_code": code,
                        "setting": label,
                        "model": model,
                        "acc": rep["acc"],
                        "rmse": rep["rmse"],
                        "rmse_ratio_permille": rep["rmse_ratio_permille"],
                        "n_test": rep["n_test"],
                    }
                )

    reports = out_dir / "reports"
    write_csv(reports / "evaluation.csv", EVAL_HEADER, [[r[k] for k in EVAL_HEADER] for r in eval_rows])
    write_csv(reports / "predictability.csv", PRED_HEADER, [[r[k] for k in PRED_HEADER] for r in pred_rows])
    write_csv(reports / "drops.csv", DROP_HEADER, drop_rows)
    summary_rows = emit_summary(eval_rows, pred_rows) if eval_rows else []
    write_csv(reports / "summary.csv", SUMMARY_HEADER, [[r[k] for k in SUMMARY_HEADER] for r in summary_rows])
    if json_mirror:
        write_json_mirror(reports / "evaluation.json", EVAL_HEADER, [[r[k] for k in EVAL_HEADER] for r in eval_rows])
        write_json_mirror(reports / "predictability.json", PRED_HEADER, [[r[k] for k in PRED_HEADER] for r in pred_rows])
        write_json_mirror(reports / "drops.json", DROP_HEADER, drop_rows)
        write_json_mirror(
            reports / "summary.json", SUMMARY_HEADER, [[r[k] for k in SUMMARY_HEADER] for r in summary_rows]
        )

    plots = out_dir / "plots"
    for setting in config.settings():
        label, slug = setting.label, setting.slug
        preds = [r for r in pred_rows if r["setting"] == label]
        write_csv(
            plots / f"entropy_hist_{slug}.csv",
            ["bin_left", "bin_right", "count"],
            _histogram_rows([r["s_est"] for r in preds], 0.1),
        )
        acc_of = {
            (r["stock_code"], r["model"]): r["acc"] for r in eval_rows if r["setting"] == label
        }
        write_csv(
            plots / f"acc_vs_pimax_{slug}.csv",
            ["stock_code", "pi_max", "acc_mc", "acc_dk"],
            [
                [r["stock_code"], r["pi_max"], acc_of.get((r["stock_code"], "mc"), ""), acc_of.get((r["stock_code"], "dk"), "")]
                for r in preds
            ],
        )
        for model in MODELS:
            rows = [r for r in eval_rows if r["setting"] == label and r["model"] == model]
            write_csv(
                plots / f"rmse_hist_{slug}_{model}.csv",
                ["bin_left", "bin_right", "count"],
                _histogram_rows([r["rmse"] for r in rows], 0.01),
            )
            write_csv(
                plots / f"acc_vs_rmse_{slug}_{model}.csv",
                ["stock_code", "acc", "rmse"],
                [[r["stock_code"], r["acc"], r["rmse"]] for r in rows],
            )
