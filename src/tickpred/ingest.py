"""Parse tick files into per-stock price series and filter out unusable ones.

A parsed tick is a plain ``(stock_code, epoch_seconds, price_hundredths)``
row. Prices are integer hundredths of CNY (the feed's precision is 0.01),
so downstream binning and round trips stay exact. Times are exchange-local
wall-clock seconds (a timestamp's UTC offset is dropped), worked out as each
row is parsed. Each stock's ticks are ordered by that local clock, and a
trading day is a run of ticks with one exchange-local calendar date: one
value of ``epoch_seconds // 86400``, at ingest and after an interchange
round trip. Days are concatenated with no gap markers: one stock is one
continuous sequence across its whole sample.
"""

from __future__ import annotations

import csv
import glob
import io
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, EmptyInputError, SchemaError, not_utf8, read_table
from .quantize import QuantizationScheme

DEFAULT_MIN_LENGTH = 1000  # ticks; roughly a quarter trading day
DEFAULT_MIN_STATES = 10

_PRICE_RE = re.compile(r"^(\d+)(?:\.(\d{1,2}))?$")
_EPOCH_ORDINAL = datetime(1970, 1, 1).toordinal()

Row = tuple[str, int, int]  # (stock_code, epoch_seconds, price_hundredths)


@dataclass(frozen=True)
class ColumnSchema:
    """Which input columns hold the code, timestamp and price.

    Each selector is a 1-based column index or a header name.
    """

    code: int | str = 1
    time: int | str = 2
    price: int | str = 3

    def resolve(self, header: list[str]) -> tuple[int, int, int]:
        def col(sel, what):
            if isinstance(sel, int):
                if not 1 <= sel <= len(header):
                    raise SchemaError(f"{what} column {sel} out of range (file has {len(header)} columns)")
                return sel - 1
            names = [h.strip() for h in header]
            if sel not in names:
                raise SchemaError(f"{what} column {sel!r} not found in header {names}")
            return names.index(sel)

        return (
            col(self.code, "code"),
            col(self.time, "time"),
            col(self.price, "price"),
        )


@dataclass
class PriceSeries:
    """Ordered per-stock price sequence across concatenated trading days."""

    stock_code: str
    epoch_seconds: np.ndarray
    prices_hundredths: np.ndarray
    day_boundaries: list[int]

    def __len__(self) -> int:
        return len(self.prices_hundredths)

    @property
    def prices_cny(self) -> np.ndarray:
        return self.prices_hundredths / 100.0

    @property
    def n_days(self) -> int:
        return len(self.day_boundaries)

    def mean_price(self) -> float:
        return float(self.prices_hundredths.mean() / 100.0)

    def to_interchange(self, path) -> None:
        """Write the per-stock interchange file: epoch_seconds,price_hundredths lines."""
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("epoch_seconds,price_hundredths\n")
            for t, p in zip(self.epoch_seconds.tolist(), self.prices_hundredths.tolist()):
                f.write(f"{t},{p}\n")

    @classmethod
    def from_interchange(cls, path, stock_code: str | None = None) -> "PriceSeries":
        path = Path(path)
        table = read_table(path, {"epoch_seconds": int, "price_hundredths": int})
        epoch, prices = (np.asarray(table[k], dtype=np.int64) for k in ("epoch_seconds", "price_hundredths"))
        return cls(
            stock_code=stock_code if stock_code is not None else path.stem,
            epoch_seconds=epoch,
            prices_hundredths=prices,
            day_boundaries=_boundaries_from_epochs(epoch),
        )


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    reason: str | None = None


def parse_price_hundredths(text: str) -> int:
    """Exact decimal-string parse of a positive price with <= 2 decimals."""
    m = _PRICE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"unparseable price {text!r}")
    whole, frac = m.group(1), m.group(2) or ""
    value = int(whole) * 100 + int(frac.ljust(2, "0") or 0)
    if value <= 0:
        raise ValueError(f"price must be positive, got {text!r}")
    return value


def _epoch_seconds(text: str) -> int:
    """Exchange-local wall-clock seconds of an ISO timestamp, the clock read as UTC.

    Only the local date and clock fields are read: a UTC offset is dropped,
    and so is a fraction of a second.
    """
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {text!r}") from exc
    return (ts.toordinal() - _EPOCH_ORDINAL) * 86400 + ts.hour * 3600 + ts.minute * 60 + ts.second


def _boundaries_from_epochs(epoch: np.ndarray) -> list[int]:
    """Start index of each trading day: a day is one exchange-local calendar date."""
    days = epoch // 86400
    return [0] + (np.flatnonzero(np.diff(days) != 0) + 1).tolist()


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def parse_ticks(source, schema: ColumnSchema) -> tuple[list[Row], int]:
    """Parse delimiter-separated tick text into ``(stock_code, epoch_seconds, price_hundredths)`` rows.

    ``source`` is a path (a non-empty ``str`` without a newline is one), byte
    string, text string or open text stream with a header row. Malformed rows
    are counted and skipped; the count is returned alongside the rows. Raises
    DataError for a missing file or text that is not UTF-8, SchemaError when a
    mapped column is missing and EmptyInputError when nothing parses.
    """
    if isinstance(source, Path) or (isinstance(source, str) and source and "\n" not in source):
        if not Path(source).is_file():
            raise DataError(f"input file not found: {source}")
        with open(source, "r", encoding="utf-8", newline="") as f:
            return _parse_stream(f, schema, str(source))
    if isinstance(source, bytes):
        return _parse_stream(io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", newline=""), schema, "<bytes>")
    if isinstance(source, str):
        return _parse_stream(io.StringIO(source), schema, "<string>")
    return _parse_stream(source, schema, getattr(source, "name", "<stream>"))


def _parse_stream(f, schema: ColumnSchema, origin: str) -> tuple[list[Row], int]:
    try:
        return _parse_rows(f, schema, origin)
    except UnicodeDecodeError as exc:  # the text is decoded as it is read
        raise not_utf8(origin, exc) from None


def _parse_rows(f, schema: ColumnSchema, origin: str) -> tuple[list[Row], int]:
    header_line = f.readline()
    if not header_line.strip():
        raise EmptyInputError(f"{origin}: empty input")
    delimiter = _detect_delimiter(header_line)
    header = next(csv.reader([header_line], delimiter=delimiter))
    code_i, time_i, price_i = schema.resolve(header)
    needed = max(code_i, time_i, price_i) + 1

    rows: list[Row] = []
    malformed = 0
    for row in csv.reader(f, delimiter=delimiter):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < needed:
            malformed += 1
            continue
        try:
            code = row[code_i].strip()
            if not code:
                raise ValueError("empty stock code")
            epoch = _epoch_seconds(row[time_i])
            price = parse_price_hundredths(row[price_i])
        except ValueError:
            malformed += 1
            continue
        rows.append((code, epoch, price))
    if not rows:
        raise EmptyInputError(f"{origin}: no parseable rows ({malformed} malformed)")
    return rows, malformed


def build_series(rows: Sequence[Row]) -> dict[str, PriceSeries]:
    """Per-stock series in code order, each sorted by local time; ties keep input order."""
    codes = sorted({code for code, _, _ in rows})
    index = {code: i for i, code in enumerate(codes)}
    code_index = np.fromiter((index[code] for code, _, _ in rows), np.int64, len(rows))
    epoch = np.fromiter((t for _, t, _ in rows), np.int64, len(rows))
    price = np.fromiter((p for _, _, p in rows), np.int64, len(rows))
    order = np.lexsort((epoch, code_index))  # stable: duplicate timestamps keep input order
    starts = np.flatnonzero(np.diff(code_index[order])) + 1
    return {
        code: PriceSeries(code, e, p, _boundaries_from_epochs(e))
        for code, e, p in zip(codes, np.split(epoch[order], starts), np.split(price[order], starts))
    }


def load_series(patterns: Iterable[str], schema: ColumnSchema) -> tuple[dict[str, PriceSeries], int]:
    """Parse every tick file the glob patterns name into per-stock series.

    A pattern that matches nothing is taken as a plain path. Returns the
    series and the number of malformed rows skipped; raises DataError for a
    missing file.
    """
    rows: list[Row] = []
    malformed = 0
    for pattern in patterns:
        for path in sorted(glob.glob(pattern)) or [pattern]:
            file_rows, bad = parse_ticks(Path(path), schema)
            rows.extend(file_rows)
            malformed += bad
    return build_series(rows), malformed


def filter_series(
    series: PriceSeries,
    scheme: QuantizationScheme,
    min_length: int = DEFAULT_MIN_LENGTH,
    min_states: int = DEFAULT_MIN_STATES,
) -> FilterDecision:
    """Drop series that are too short or collapse to too few states under ``scheme``."""
    n = len(series)
    if n < min_length:
        return FilterDecision(keep=False, reason=f"too short ({n} < {min_length} ticks)")
    distinct = len(np.unique(scheme.states_of(series.prices_hundredths)))
    if distinct < min_states:
        return FilterDecision(keep=False, reason=f"too few states ({distinct} < {min_states})")
    return FilterDecision(keep=True)
