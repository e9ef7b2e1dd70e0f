r"""Parse tick files into per-stock price series and filter out unusable ones.

A parsed tick is a plain ``(stock_code, epoch_seconds, price_hundredths)``
row. Prices are integer hundredths of CNY (the feed's precision is 0.01),
so downstream binning and round trips stay exact. Times are exchange-local
wall-clock seconds (a timestamp's UTC offset is dropped), worked out as each
row is parsed. Each stock's ticks are ordered by that local clock, and a
trading day is a run of ticks with one exchange-local calendar date: one
value of ``epoch_seconds // 86400``, at ingest and after an interchange
round trip. Days are concatenated with no gap markers: one stock is one
continuous sequence across its whole sample.

Each file is read once into columns (``TickColumns``): its sorted stock
codes, and per row an index into them, the epoch seconds and the price in
hundredths. A plain file (``_plain_columns`` states the rule) is parsed
column-wise by numpy over its bytes. Every other file goes through the row
parser (``csv``, ``datetime.fromisoformat`` and an exact price pattern),
which counts and skips malformed rows. The columns, and so the series, are
the same either way. ``load_series`` groups the files' columns into series
with one stable sort.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ENCODING, DataError, EmptyInputError, SchemaError, decode_input, int64, read_table
from .quantize import QuantizationScheme

DEFAULT_MIN_LENGTH = 1000  # ticks; roughly a quarter trading day
DEFAULT_MIN_STATES = 10

_MAX_PRICE_DIGITS = 13  # integer digits; with 2 decimals, hundredths stay far inside int64
_PRICE_RE = re.compile(rf"^(\d{{1,{_MAX_PRICE_DIGITS}}})(?:\.(\d{{1,2}}))?$", re.ASCII)
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
    def from_interchange(cls, path) -> "PriceSeries":
        """The series of an interchange file, named after the file; raises DataError where its time goes back
        or a price is not positive."""
        path = Path(path)
        table = read_table(path, {"epoch_seconds": int64, "price_hundredths": int64})
        epoch, prices = (np.asarray(table[k], dtype=np.int64) for k in ("epoch_seconds", "price_hundredths"))
        back = np.flatnonzero(np.diff(epoch) < 0)
        if len(back):  # a stock's ticks are ordered by the local clock
            i = int(back[0]) + 1
            raise DataError(f"{path}: epoch_seconds goes back at data row {i + 1}: {epoch[i]} after {epoch[i - 1]}")
        bad = np.flatnonzero(prices <= 0)
        if len(bad):  # the tick parsers take positive prices only
            i = int(bad[0])
            raise DataError(f"{path}: price_hundredths is not positive at data row {i + 1}: {prices[i]}")
        return cls(
            stock_code=path.stem,
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


@dataclass(frozen=True)
class TickColumns:
    """Parsed ticks in input order: row i is ``(codes[code_index[i]], epoch[i], price[i])``.

    ``codes`` is sorted and holds each stock code once; the three arrays are int64.
    """

    codes: list[str]
    code_index: np.ndarray
    epoch: np.ndarray
    price: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "TickColumns":
        codes = sorted({code for code, _, _ in rows})
        index = {code: i for i, code in enumerate(codes)}
        return cls(
            codes,
            np.fromiter((index[code] for code, _, _ in rows), np.int64, len(rows)),
            np.fromiter((t for _, t, _ in rows), np.int64, len(rows)),
            np.fromiter((p for _, _, p in rows), np.int64, len(rows)),
        )

    def rows(self) -> list[Row]:
        return list(zip([self.codes[i] for i in self.code_index.tolist()], self.epoch.tolist(), self.price.tolist()))


def parse_ticks(source, schema: ColumnSchema) -> tuple[list[Row], int]:
    """Parse delimiter-separated tick text into ``(stock_code, epoch_seconds, price_hundredths)`` rows.

    ``source`` is a path (a non-empty ``str`` without a newline is one), byte
    string, text string or open text stream with a header row. Malformed rows
    are counted and skipped; the count is returned alongside the rows. Raises
    DataError for a missing file or text that is not UTF-8, SchemaError when a
    mapped column is missing and EmptyInputError when nothing parses.
    """
    columns, malformed = parse_columns(source, schema)
    return columns.rows(), malformed


def parse_columns(source, schema: ColumnSchema) -> tuple[TickColumns, int]:
    """``parse_ticks`` as columns: one source's ticks and the number of malformed rows skipped.

    A plain file (see ``_plain_columns``) is read column-wise by numpy; any
    other goes through the row parser. Both read a plain file to the same columns.
    """
    data, origin = _source_bytes(source)
    decode_input(data, origin)  # the whole text is checked before either parser reads a field, and not kept
    lines = io.TextIOWrapper(io.BytesIO(data), encoding=ENCODING, newline="")  # decodes as the row parser reads
    header_line = lines.readline()
    if not header_line.strip():
        raise EmptyInputError(f"{origin}: empty input")
    delimiter = _detect_delimiter(header_line)
    header = next(csv.reader([header_line], delimiter=delimiter))
    fields = schema.resolve(header)
    columns = _plain_columns(data, delimiter, len(header), fields)
    if columns is not None:
        return columns, 0
    rows, malformed = _parse_rows(lines, delimiter, fields)
    if not rows:
        raise EmptyInputError(f"{origin}: no parseable rows ({malformed} malformed)")
    return TickColumns.from_rows(rows), malformed


def _source_bytes(source) -> tuple[bytes, str]:
    """The bytes of a tick source, and the name its errors give it."""
    if isinstance(source, Path) or (isinstance(source, str) and source and "\n" not in source):
        return _input_file(source).read_bytes(), str(source)
    if isinstance(source, bytes):
        return source, "<bytes>"
    # a lone surrogate passes the encoding and then fails the UTF-8 check, as it would in a file
    if isinstance(source, str):
        return source.encode("utf-8", "surrogatepass"), "<string>"
    return source.read().encode("utf-8", "surrogatepass"), getattr(source, "name", "<stream>")


def _input_file(path) -> Path:
    if not Path(path).is_file():
        raise DataError(f"input file not found: {path}")
    return Path(path)


def file_sha256(path) -> str:
    """Hex sha256 of a tick file's bytes, read in chunks; raises DataError for a missing file, as parsing it would."""
    with open(_input_file(path), "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _parse_rows(lines, delimiter: str, fields: tuple[int, int, int]) -> tuple[list[Row], int]:
    """The row parser: each row through ``csv``, ``datetime.fromisoformat`` and the price pattern."""
    code_i, time_i, price_i = fields
    needed = max(fields) + 1
    rows: list[Row] = []
    malformed = 0
    for row in csv.reader(lines, delimiter=delimiter):
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
    return rows, malformed


_NL, _DOT, _ZERO = b"\n.0"
_STAMP = b"0000-00-00 00:00:00"  # a 0 stands for any digit
_YEAR_ONE = np.datetime64("0001-01-01", "s").view(np.int64)


def _plain_columns(data: bytes, delimiter: str, width: int, fields: tuple[int, int, int]) -> TickColumns | None:
    r"""Columns of a plain tick file, read by numpy over its bytes; None when the file needs the row parser.

    A file is plain when it has no ``"`` and no NUL, its line ends are ``\n``
    or ``\r\n``, every line after the header has the header's ``width``
    fields (so none is blank) and, in every row, the code is non-empty and
    equals its ``str.strip()`` (the row parser's code rule, checked once per
    distinct code), the stamp is ``YYYY-MM-DD HH:MM:SS`` and the price is
    above 0 and matches ``_PRICE_RE`` with no padding: at most
    ``_MAX_PRICE_DIGITS`` integer digits and 2 decimals. numpy reads
    the stamps and checks the calendar: a date from year 0001 on, hours
    00-23, minutes and seconds 00-59; year 0000, which numpy reads and
    ``datetime`` does not, is checked here. The row parser reads such a file
    to the same columns, with no malformed row.
    """
    header_end = data.find(b"\n")
    lone_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")  # a line end to the row parser
    # numpy's S view drops a code's trailing NULs, which the row parser keeps
    if b'"' in data or b"\0" in data or lone_cr or header_end < 0:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    body = np.frombuffer(data, np.uint8)[header_end + 1 :]
    field_end = body == ord(delimiter)
    field_end |= body == _NL
    ends = np.flatnonzero(field_end)  # where each field stops
    del field_end
    if len(ends) == 0 or len(ends) != width * data.count(b"\n", header_end + 1):
        return None
    ends = ends.reshape(-1, width)
    if np.any(body[ends[:, -1]] != _NL):  # with the count above, every line has exactly `width` fields
        return None

    def span(column: int) -> tuple[np.ndarray, np.ndarray]:
        start = ends[:, column - 1] + 1 if column else np.concatenate(([0], ends[:-1, -1] + 1))
        stop = ends[:, column]
        return start, stop - (body[stop - 1] == ord("\r")) if column == width - 1 else stop

    code_i, time_i, price_i = fields
    start, stop = span(code_i)
    chars = _field_chars(body, start, stop - start)
    codes, code_index = np.unique(chars.view(f"S{chars.shape[1]}").ravel(), return_inverse=True)
    codes = [c.decode("utf-8") for c in codes.tolist()]
    if not all(code and code == code.strip() for code in codes):  # as the row parser keeps it
        return None

    start, stop = span(time_i)
    if np.any(stop - start != len(_STAMP)):
        return None
    stamps = np.empty((len(_STAMP), len(start)), np.uint8)  # one row per stamp byte
    for k, expected in enumerate(_STAMP):
        byte = stamps[k] = body[start + k]
        # a digit where _STAMP has one (a byte below "0" wraps past 9), the separator elsewhere
        if np.any(byte - np.uint8(_ZERO) > 9 if expected == _ZERO else byte != expected):
            return None
    try:  # numpy checks the calendar and the clock
        epoch = stamps.T.copy().view(f"S{len(_STAMP)}").ravel().astype("datetime64[s]").view(np.int64)
    except ValueError:
        return None
    del stamps
    if np.any(epoch < _YEAR_ONE):  # numpy reads year 0000, datetime.fromisoformat does not
        return None

    start, stop = span(price_i)
    length = stop - start
    if np.any(length < 1) or np.any(length > _MAX_PRICE_DIGITS + 3):
        return None
    price = np.zeros(len(start), np.int64)  # every digit in turn, the point skipped
    point = length  # where the integer digits stop
    for k, byte in enumerate(_field_chars(body, start, length).T):
        is_dot = byte == _DOT
        digit = byte - np.uint8(_ZERO)
        is_digit = digit <= 9  # NUL past a field's end is neither
        if np.any((k < length) & ~is_digit & ~is_dot) or np.any(is_dot & (point < length)):  # or a second point
            return None
        price = np.where(is_digit, price * 10 + digit, price)
        point = np.where(is_dot, k, point)
    decimals = np.maximum(length - point - 1, 0)
    if np.any((point < 1) | (point > _MAX_PRICE_DIGITS) | (point == length - 1) | (decimals > 2)):
        return None
    price *= 10 ** (2 - decimals)
    if np.any(price <= 0):
        return None
    return TickColumns(codes, code_index.astype(np.int64, copy=False), epoch, price)


def _field_chars(body: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The fields ``body[start:start + length]``, one row of bytes each, NUL past a field's end."""
    width = int(length.max(initial=1))  # one column at least, so that empty fields still view as strings
    chars = np.zeros((len(start), width), np.uint8)
    for k in range(width):  # a column at a time keeps the index arrays one row wide
        chars[:, k] = np.where(length > k, body.take(start + k, mode="clip"), 0)
    return chars


def group_series(tables: Sequence[TickColumns]) -> dict[str, PriceSeries]:
    """Per-stock series in code order, each sorted by local time; ties keep input order, ``tables`` in turn."""
    codes = sorted(set().union(*(t.codes for t in tables)))
    if not codes:
        return {}
    index = {code: i for i, code in enumerate(codes)}
    code_index = np.concatenate([np.array([index[c] for c in t.codes], np.int64)[t.code_index] for t in tables])
    epoch = np.concatenate([t.epoch for t in tables])
    price = np.concatenate([t.price for t in tables])
    order = np.lexsort((epoch, code_index))  # stable: duplicate timestamps keep input order
    starts = np.flatnonzero(np.diff(code_index[order])) + 1
    return {
        code: PriceSeries(code, e, p, _boundaries_from_epochs(e))
        for code, e, p in zip(codes, np.split(epoch[order], starts), np.split(price[order], starts))
    }


def build_series(rows: Sequence[Row]) -> dict[str, PriceSeries]:
    """Per-stock series in code order, each sorted by local time; ties keep input order."""
    return group_series([TickColumns.from_rows(rows)])


def load_series(patterns: Iterable[str], schema: ColumnSchema) -> tuple[dict[str, PriceSeries], dict[str, int]]:
    """Parse every tick file the glob patterns name into per-stock series.

    A pattern that matches nothing is taken as a plain path. Returns the
    series and the number of malformed rows skipped in each file that had
    any; raises DataError for a missing file.
    """
    tables: list[TickColumns] = []
    malformed: dict[str, int] = {}
    for path in input_paths(patterns):
        columns, bad = parse_columns(Path(path), schema)
        tables.append(columns)
        if bad:
            malformed[path] = malformed.get(path, 0) + bad
    return group_series(tables), malformed


def input_paths(patterns: Iterable[str]) -> list[str]:
    """The files that glob patterns name, in the order ``load_series`` reads them.

    Each pattern gives its matches in sorted order, or itself when it matches nothing.
    """
    return [path for pattern in patterns for path in sorted(glob.glob(pattern)) or [pattern]]


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
