"""End-to-end orchestration: tick files in, report and plot CSVs out.

For every stock that survives filtering and every configured quantization
setting, the pipeline produces the entropy estimate, the accuracy upper
bound, online traces for both predictors and their evaluation rows, then
aggregates arithmetic-mean summaries and plot-ready distribution CSVs.
Stocks are computed in chunks of at most ``CHUNK_STOCKS``, which are also
the pool's tasks, and each chunk trains the DK models of all its stocks in
lockstep. A manifest gets one status line per stock as soon as that stock
is finished: in process, stock by stock; under a pool, when its chunk
finishes. So what a kill loses is bounded by the chunks in flight, an
interrupted or repeated run skips finished stocks whose parsed series,
config and package source are unchanged, and one corrupt stock cannot abort
the rest, its chunk included. The manifest's header also holds an input
digest (a sha256 of each input file's bytes, and of the Python and numpy
versions the parsers rest on), the number of stocks parsed and the
malformed rows skipped in each input file. A rerun whose input digest,
config and source match a run that finished every stock it counted parses
no file at all. Outputs are byte-identical for identical config and seed,
whatever the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import platform
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .entropy import estimate_entropy
from .errors import ConfigError, DataError, read_text
from .evaluate import evaluate_trace
from .ingest import (
    DEFAULT_MIN_LENGTH,
    DEFAULT_MIN_STATES,
    ColumnSchema,
    PriceSeries,
    file_sha256,
    filter_series,
    input_paths,
    load_series,
)
from .predict import DiffusionKernelModel, PredictionTrace, run_protocol, train_together
from .predictability import fano_solve
from .quantize import QuantizationScheme, fixed_count_scheme, fixed_interval_scheme, quantize_with
from .stats import volatility

MODELS = ("mc", "dk")
# Most stocks in one chunk, the pool's task. A chunk trains the DK units of all its stocks in lockstep,
# which pays more the more units it holds, while a kill loses the chunks in flight.
CHUNK_STOCKS = 16

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
HIST_HEADER = ["bin_left", "bin_right", "count"]

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
        widths = [fixed_interval_scheme(t).t_hundredths for t in self.intervals]
        if len(set(widths)) < len(widths):
            raise ConfigError(f"intervals {', '.join(map(str, self.intervals))} repeat a setting")
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
        try:
            DiffusionKernelModel(**self.dk_params())
        except ValueError as exc:
            raise ConfigError(f"DK parameters: {exc}") from exc
        if self.dk_alpha > 0.5:  # a fired step moves the positive state by 2 * dk_alpha of its gap to the context
            raise ConfigError(f"dk_alpha must be <= 0.5, got {self.dk_alpha}: a fired step would overshoot its context")

    def to_text(self) -> str:
        """One ``key = value`` line per field, in field order; ``None`` is an empty value."""
        lines = []
        for name, hint in _config_fields():
            value = getattr(self, name)
            if isinstance(value, tuple):
                text = ", ".join(_format_value(get_args(hint)[0], v) for v in value)
            else:
                text = "" if value is None else _format_value(hint, value)
            lines.append(f"{_KEY_OF.get(name, name)} = {text}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """Hash of the semantic config: output location and parallelism excluded."""
        skip = ("output_dir =", "workers =")
        lines = [ln for ln in self.to_text().splitlines() if not ln.startswith(skip)]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            text = read_text(path)
        except DataError as exc:  # a config file that cannot be read is a config error
            raise ConfigError(f"config file {exc}") from None
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        """Parse key = value lines, each key at most once; a missing key, or an empty scalar, keeps the field default."""
        raw: dict[str, str] = {}
        line_of: dict[str, int] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in line_of:
                raise ConfigError(f"config key {key} is given twice, on lines {line_of[key]} and {lineno}")
            raw[key], line_of[key] = value, lineno

        keys = {_KEY_OF.get(name, name): (name, hint) for name, hint in _config_fields()}
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, (name, hint) in keys.items():
            text = raw.get(key, "")
            try:
                if get_origin(hint) is tuple and key in raw:
                    item = get_args(hint)[0]
                    values[name] = tuple(_parse_value(item, t.strip()) for t in text.split(",") if t.strip())
                elif text:
                    values[name] = _parse_value(hint, text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        return cls(**values)


@cache
def _config_fields() -> tuple[tuple[str, object], ...]:
    """The name and type of each ``PipelineConfig`` field, in field order, with the annotations resolved once."""
    hints = get_type_hints(PipelineConfig)
    return tuple((f.name, hints[f.name]) for f in fields(PipelineConfig))


def _format_value(hint, value) -> str:
    """A float as ``:g`` where that reads back exactly, else as its shortest exact repr; other values as ``str``."""
    if hint is not float:
        return str(value)
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


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

    def admit(
        self, series: PriceSeries, min_length: int, min_states: int
    ) -> tuple[QuantizationScheme | None, str | None]:
        """``(scheme, None)`` if a run analyses ``series`` under this setting, else ``(None, reason)``.

        The rules that need no scheme come first, so a stock they drop has one reason under every setting.
        Both predictors train on day one, which needs at least 3 ticks.
        """
        if series.n_days < 2:
            return None, "fewer than 2 trading days"
        if len(series) < min_length:
            return None, f"too short ({len(series)} < {min_length} ticks)"
        if series.day_boundaries[1] < 3:
            return None, f"day one too short ({series.day_boundaries[1]} < 3 ticks)"
        try:
            scheme = self.scheme_for(series)
        except ValueError as exc:
            return None, str(exc)
        decision = filter_series(series, scheme, min_length, min_states)
        return (scheme, None) if decision.keep else (None, decision.reason)


@dataclass
class RunManifest:
    config_hash: str
    code_digest: str
    input_digest: str  # input_digest() of the files this run reads
    stocks: int = 0  # stocks in those files
    tool_version: str = __version__
    malformed: dict[str, int] = field(default_factory=dict)  # input file -> malformed rows skipped, where any
    statuses: dict[str, tuple[str, str]] = field(default_factory=dict)  # code -> (status, reason)

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


def write_csv(target, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write UTF-8 CSV with ``\\n`` line ends to a path or an open text stream.

    Fields are quoted only when they hold a delimiter, quote or line end.
    """
    with nullcontext(target) if hasattr(target, "write") else open(target, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, keys sorted, indented by 2, with a final line end."""
    Path(path).write_text(_json_text(obj), encoding="utf-8")


def _write_if_changed(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` unless the file already holds exactly those bytes, so that its
    mtime changes only with its contents."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.write_bytes(data)


def unit_trace(
    config: PipelineConfig, states, series: PriceSeries, setting: QuantizationSetting, model: str
) -> PredictionTrace:
    """The online trace of one (stock, setting, model) unit, seeded by ``child_seed`` from the stock code and label."""
    return run_protocol(
        states,
        series.day_boundaries,
        model,
        seed=child_seed(config.seed, series.stock_code, setting.label, model),
        dk_params=config.dk_params() if model == "dk" else None,
        stock_code=series.stock_code,
    )


def unit_scores(
    config: PipelineConfig, trace: PredictionTrace, series: PriceSeries, scheme: QuantizationScheme, ticks
) -> dict:
    """The evaluation row of a unit's trace, whose actual states are the ``series`` ticks at ``ticks`` (an
    index array or slice): ``acc``, ``rmse``, ``rmse_ratio_permille`` and ``n_test``.

    RMSE is against the raw prices of those ticks or their dequantized actual states, as ``config.rmse_against``
    says; the ratio is to the series' mean price.
    """
    raw = series.prices_cny[ticks] if config.rmse_against == "raw" else None
    report = evaluate_trace(trace, scheme, raw_prices=raw, avgprice=series.mean_price())
    return {
        "acc": report.acc, "rmse": report.rmse, "rmse_ratio_permille": report.rmse_price_ratio, "n_test": report.n_test
    }


def stock_part(series: PriceSeries, config: PipelineConfig) -> tuple[dict, list[tuple]]:
    """A stock's result short of its DK rows, and its DK units: for each kept setting, the untrained model,
    the states, the scheme and the ``models`` entry that the DK row goes in.

    For every configured quantization setting: admit, quantize, entropy, the bound and the MC run. Volatility
    is ``None`` for a stock of fewer than 3 ticks, where it is not defined.
    """
    result: dict = {
        "stock_code": series.stock_code,
        "n_ticks": len(series),
        "n_days": series.n_days,
        "avgprice": series.mean_price(),
        "volatility": volatility(series.prices_cny, n_convention=config.volatility_n) if len(series) >= 3 else None,
        "settings": {},
    }
    units = []
    for setting in config.settings():
        scheme, reason = setting.admit(series, config.min_length, config.min_states)
        entry: dict = {"dropped": reason}
        result["settings"][setting.label] = entry
        if scheme is None:
            continue
        seq = quantize_with(series, scheme)
        est = estimate_entropy(seq)
        mc = unit_trace(config, seq, series, setting, "mc")
        entry.update(
            {
                "scheme": json.loads(scheme.to_json()),
                "n": est.n,
                "n_distinct": seq.n_distinct,
                "s_est": est.s_est,
                "mean_match_length": est.mean_match_length,
                "pi_max": fano_solve(est.s_est, seq.n_distinct),
                "models": {"mc": unit_scores(config, mc, series, scheme, slice(mc.start_index, None))},
            }
        )
        seed = child_seed(config.seed, series.stock_code, setting.label, "dk")
        units.append((DiffusionKernelModel(seed=seed, **config.dk_params()), seq.states, scheme, entry["models"]))
    return result, units


def finish_stock(series: PriceSeries, config: PipelineConfig, result: dict, units: list[tuple]) -> dict:
    """``result`` with the DK rows of ``units``, whose models are trained: each runs online from day two and
    is scored."""
    for model, states, scheme, models in units:
        start = series.day_boundaries[1]
        trace = PredictionTrace(series.stock_code, "dk", model.run_online(states, start), states[start:], start)
        models["dk"] = unit_scores(config, trace, series, scheme, slice(start, None))
    return result


def process_chunk(chunk: list[PriceSeries], config: PipelineConfig) -> Iterator[tuple[str, dict | Exception]]:
    """Each stock of ``chunk`` with its full analysis across every configured setting, or the exception
    that stopped it; one stock's failure does not stop the others.

    Each stock's ``stock_part`` runs first. Then the DK models of the whole chunk train in lockstep, as
    each would alone, and each stock's DK online phase and evaluation (``finish_stock``) run one stock at
    a time, in chunk order.
    """
    staged = []
    for series in chunk:
        try:
            staged.append((series, *stock_part(series, config)))
        except Exception as exc:
            yield series.stock_code, exc
    dk = [(model, states[: series.day_boundaries[1]]) for series, _, units in staged for model, states, *_ in units]
    train_together([model for model, _ in dk], [day_one for _, day_one in dk])
    for series, result, units in staged:
        try:
            yield series.stock_code, finish_stock(series, config, result, units)
        except Exception as exc:
            yield series.stock_code, exc


def _chunk_outcomes(chunk: list[PriceSeries], config: PipelineConfig) -> list[tuple[str, dict | Exception]]:
    return list(process_chunk(chunk, config))


def cut_chunks(stocks: list[PriceSeries], workers: int) -> list[list[PriceSeries]]:
    """``stocks`` cut into at least ``workers`` chunks (one per stock when they are fewer), and as few as
    hold at most ``CHUNK_STOCKS`` each, balanced by tick count: each stock, largest first, joins the chunk
    with the fewest ticks that has room. Each chunk is in code order, and the chunks are in the order of
    their first codes."""
    count = min(len(stocks), max(workers, -(-len(stocks) // CHUNK_STOCKS)))
    out: list[list[PriceSeries]] = [[] for _ in range(count)]
    room = [(0, i) for i in range(count)]  # (ticks, chunk) of each chunk with room, as a heap
    for series in sorted(stocks, key=lambda s: (-len(s), s.stock_code)):
        ticks, i = heapq.heappop(room)
        out[i].append(series)
        if len(out[i]) < CHUNK_STOCKS:
            heapq.heappush(room, (ticks + len(series), i))
    return sorted((sorted(c, key=lambda s: s.stock_code) for c in out), key=lambda c: c[0].stock_code)


def stock_rows(results: dict[str, dict], labels: list[str]) -> tuple[list[dict], list[dict]]:
    """Flatten per-stock results in (stock, setting, model) order, settings in ``labels`` order.

    ``units`` has one row per (stock, setting) with ``avgprice``, ``volatility``
    and either the drop ``reason`` or ``n, n_distinct, s_est, pi_max, acc_<model>``;
    ``evals`` has one row per kept (stock, setting, model) with that model's
    metrics. A setting missing from a result gives no rows. The fixed order keeps
    rows identical whether a result was computed this run or read back from JSON.
    """
    units: list[dict] = []
    evals: list[dict] = []
    for code in sorted(results):
        result = results[code]
        for label in labels:
            entry = result["settings"].get(label)
            if entry is None:
                continue
            unit = {"stock_code": code, "setting": label, "avgprice": result["avgprice"], "volatility": result["volatility"]}
            units.append(unit)
            if entry.get("dropped"):
                unit["reason"] = entry["dropped"]
                continue
            models = entry["models"]
            unit.update({k: entry[k] for k in PRED_HEADER[2:]})
            unit.update({f"acc_{m}": models[m]["acc"] for m in MODELS})
            evals.extend({"stock_code": code, "setting": label, "model": m, **models[m]} for m in MODELS)
    return units, evals


def read_result(path, labels=()) -> dict:
    """A per-stock result JSON as ``run_all`` wrote it, holding every setting in ``labels``.

    Raises DataError naming a file that cannot be read, is not JSON, is not a per-stock result or lacks a setting.
    """
    text = read_text(path)
    try:
        result = json.loads(text)
        missing = [label for label in labels if label not in result["settings"]]
        stock_rows({Path(path).stem: result}, list(result["settings"]))  # reads every field a report needs
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: not a per-stock result ({type(exc).__name__}: {exc})") from None
    if missing:
        raise DataError(f"{path}: holds no result for setting {', '.join(missing)}")
    return result


def summary_row(setting: str, model: str, preds: list[dict], rows: list[dict]) -> dict:
    """Arithmetic means of one (setting, model) group's evaluation ``rows``.

    ``preds`` are the kept units of that setting; they give the mean ceiling and
    the share of stocks whose entropy is below 2 bits.
    """
    return {
        "setting": setting,
        "model": model,
        "n_stocks": len(rows),
        "mean_acc": float(np.mean([r["acc"] for r in rows])),
        "mean_pi_max": float(np.mean([r["pi_max"] for r in preds])),
        "mean_rmse": float(np.mean([r["rmse"] for r in rows])),
        "mean_rmse_ratio_permille": float(np.mean([r["rmse_ratio_permille"] for r in rows])),
        "share_s_est_lt_2": sum(1 for r in preds if r["s_est"] < 2.0) / len(preds),
    }


def _histogram_rows(values: list[float], width: float) -> list[dict]:
    if not values:
        return []
    top = max(values)
    n_bins = max(1, int(np.floor(top / width)) + 1)
    counts, edges = np.histogram(values, bins=n_bins, range=(0.0, n_bins * width))
    return [dict(zip(HIST_HEADER, (edges[i], edges[i + 1], int(counts[i])))) for i in range(n_bins)]


def _series_digest(series: PriceSeries) -> str:
    return hashlib.sha256(series.epoch_seconds.tobytes() + series.prices_hundredths.tobytes()).hexdigest()


@cache
def code_digest() -> str:
    """sha256 over the name and bytes of each of this package's source files, in name order.

    Taken once per process, at the first call, so every later run of the process records the source it
    imported and ran, not an edit made on disk since.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.name}\0{len(source)}\0".encode("utf-8") + source)
    return digest.hexdigest()


def input_digest(paths: list[str]) -> str:
    """sha256 over the Python and numpy versions, then each input path with the sha256 of that file's bytes.

    The versions are in it because the parsers' readings rest on them: ``datetime.fromisoformat`` and
    numpy's stamp parse. Raises DataError for a missing file.
    """
    digest = hashlib.sha256(f"python {platform.python_version()}\0numpy {np.__version__}\n".encode("utf-8"))
    for path in paths:
        digest.update(f"{path}\0{file_sha256(path)}\n".encode("utf-8", "surrogateescape"))
    return digest.hexdigest()


def _previous_run(path: Path, key: dict[str, str]) -> tuple[dict, dict[str, str | None]]:
    """The header of a manifest whose header holds every item of ``key``, and the series digest of each stock
    it records as done, in line order; ``({}, {})`` for any other manifest.

    A manifest that cannot be read counts as empty; a line torn by a kill mid-write, or any other line that
    is not a JSON object, is skipped, and so is a "done" line without a stock code.
    """
    try:
        lines = read_text(path).splitlines()
    except DataError:
        return {}, {}
    entries = []
    for line in lines:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            entry = None
        entries.append(entry if isinstance(entry, dict) else {})
    if not entries or any(entries[0].get(k) != v for k, v in key.items()):
        return {}, {}
    done = (e for e in entries[1:] if e.get("status") == "done" and isinstance(e.get("stock"), str))
    return entries[0], {e["stock"]: e.get("digest") for e in done}


def run_all(config: PipelineConfig, json_mirror: bool = False) -> RunManifest:
    """Run the whole pipeline; returns the manifest with per-stock statuses.

    The tick files are parsed only when a stock needs computing. A run first hashes them into the input
    digest. It parses nothing when the previous manifest's header holds this run's config hash, code
    digest and input digest, that manifest has a "done" line for each of the stocks its header counts,
    and each of them has its series file and a per-stock JSON that reads back: the "done" lines then give
    the series digests, the header the malformed-row counts, and the reports come from the stored
    results. Otherwise it parses every file, and a finished stock is reused only when its parsed series
    has the digest its "done" line records under this config and code, and its series file is there.

    A computed stock's series and per-stock files are always written, and the manifest is written anew
    each run; a file under ``reports/`` or ``plots/`` is written only when its bytes change, so its mtime
    marks a real change.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    for sub in ("series", "per_stock", "reports", "plots"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(config.content_hash(), code_digest(), input_digest(input_paths(config.inputs)))
    manifest_path = out_dir / "manifest.jsonl"
    key = {"config_hash": manifest.config_hash, "code_digest": manifest.code_digest}  # what a reused stock needs
    previous, done = _previous_run(manifest_path, key)
    results: dict[str, dict] = {}
    labels = [s.label for s in config.settings()]
    for code in done:
        if not (out_dir / "series" / f"{code}.csv").is_file():
            continue  # a stock whose series file is gone is recomputed, so series/ holds every done stock
        try:
            results[code] = read_result(out_dir / "per_stock" / f"{code}.json", labels)
        except DataError:
            pass  # a per-stock JSON that is gone, unreadable, not a result or short of a setting is recomputed
    if previous.get("input_digest") == manifest.input_digest and len(results) == len(done) == previous.get("stocks"):
        all_series, digests = {}, done  # the same files made every stock of that run: nothing to parse
        manifest.malformed = previous["malformed"]
    else:
        schema = ColumnSchema(code=config.code_column, time=config.time_column, price=config.price_column)
        all_series, manifest.malformed = load_series(config.inputs, schema)
        # a stock is reused only when its parsed series is the one its "done" line records
        digests = {code: _series_digest(series) for code, series in all_series.items()}
        results = {code: result for code, result in results.items() if code in digests and digests[code] == done[code]}
    manifest.stocks = len(digests)
    pending = [code for code in sorted(digests) if code not in results]
    # before any manifest line goes out, so these directories hold only stocks recorded as done
    for sub, suffix in (("per_stock", ".json"), ("series", ".csv")):
        for path in (out_dir / sub).glob(f"*{suffix}"):
            if path.stem not in results:
                path.unlink()

    with open(manifest_path, "w", encoding="utf-8", newline="") as log:
        # one line per stock as it is reused, finished or failed; a "done"
        # line follows the writes of that stock's series and per-stock JSON
        def record(code: str, status: str, reason: str = "") -> str:
            manifest.statuses[code] = (status, reason)
            return json.dumps({"stock": code, "status": status, "reason": reason, "digest": digests[code]})

        # the header and every reused stock go in one write, so a kill can lose
        # the previous run's "done" lines only inside that write
        header = json.dumps({k: v for k, v in asdict(manifest).items() if k != "statuses"})
        print("\n".join([header, *(record(code, "done") for code in results)]), file=log, flush=True)

        def settle(code: str, outcome: dict | Exception) -> None:
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                all_series[code].to_interchange(out_dir / "series" / f"{code}.csv")
                write_json(out_dir / "per_stock" / f"{code}.json", outcome)
            except Exception as exc:  # per-stock isolation: one bad stock cannot stop a run
                print(record(code, "failed", f"{type(exc).__name__}: {exc}"), file=log, flush=True)
                return
            results[code] = outcome
            print(record(code, "done"), file=log, flush=True)

        tasks = cut_chunks([all_series[c] for c in pending], config.workers)
        parallel = config.workers > 1 and len(tasks) > 1
        interrupt = None
        with ProcessPoolExecutor(max_workers=min(config.workers, len(tasks))) if parallel else nullcontext() as pool:
            if parallel:  # pooled chunks are recorded as they finish
                futures = {pool.submit(_chunk_outcomes, chunk, config): chunk for chunk in tasks}
                jobs = ((futures[f], f.result) for f in as_completed(futures))
            else:  # in process, each stock is recorded as it finishes
                jobs = ((chunk, partial(process_chunk, chunk, config)) for chunk in tasks)
            for chunk, outcomes in jobs:
                left = [series.stock_code for series in chunk]
                try:
                    for code, outcome in outcomes():
                        left.remove(code)
                        settle(code, outcome)
                except Exception as exc:  # the chunk as a whole failed, as when its worker died
                    for code in left:
                        settle(code, exc)
                except BaseException as exc:
                    if not parallel:
                        raise
                    # an interrupt inside one chunk: the pool still runs the others before it shuts
                    # down, so their stocks are recorded first
                    interrupt = interrupt or exc
        if interrupt is not None:
            raise interrupt

    _write_reports(out_dir, config, results, json_mirror)
    return manifest


def _write_reports(out_dir: Path, config: PipelineConfig, results: dict[str, dict], json_mirror: bool) -> None:
    settings = config.settings()
    units, evals = stock_rows(results, [s.label for s in settings])
    kept = [u for u in units if "reason" not in u]
    summary: list[dict] = []  # one row per (setting, model) group, filled below
    tables = [
        ("reports/evaluation.csv", EVAL_HEADER, evals),
        ("reports/predictability.csv", PRED_HEADER, kept),
        ("reports/drops.csv", DROP_HEADER, [u for u in units if "reason" in u]),
        ("reports/summary.csv", SUMMARY_HEADER, summary),
    ]
    for setting in settings:
        label, slug = setting.label, setting.slug
        preds = [u for u in kept if u["setting"] == label]
        tables += [
            (f"plots/entropy_hist_{slug}.csv", HIST_HEADER, _histogram_rows([r["s_est"] for r in preds], 0.1)),
            (f"plots/acc_vs_pimax_{slug}.csv", ["stock_code", "pi_max", *(f"acc_{m}" for m in MODELS)], preds),
        ]
        for model in MODELS:
            rows = [r for r in evals if r["setting"] == label and r["model"] == model]
            if rows:
                summary.append(summary_row(label, model, preds, rows))
            tables += [
                (f"plots/rmse_hist_{slug}_{model}.csv", HIST_HEADER, _histogram_rows([r["rmse"] for r in rows], 0.01)),
                (f"plots/acc_vs_rmse_{slug}_{model}.csv", ["stock_code", "acc", "rmse"], rows),
            ]

    written = set()
    for name, header, rows in tables:
        values = [[r[k] for k in header] for r in rows]
        path = out_dir / name
        text = io.StringIO()
        write_csv(text, header, values)
        _write_if_changed(path, text.getvalue())
        written.add(path)
        if json_mirror and name.startswith("reports/"):
            _write_if_changed(path.with_suffix(".json"), _json_text([dict(zip(header, row)) for row in values]))
            written.add(path.with_suffix(".json"))
    # reports/ and plots/ hold only this run's tables: none of a setting no longer configured, no stale mirror
    for path in [*(out_dir / "reports").rglob("*"), *(out_dir / "plots").rglob("*")]:
        if path.is_file() and path not in written:
            path.unlink()
