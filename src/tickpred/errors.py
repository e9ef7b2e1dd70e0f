"""Exception types that the CLI maps to distinct exit codes, and the checked readers of input files.

``decode_input`` decodes every input: UTF-8, with or without a leading byte-order mark.
"""

import csv
import io


class ConfigError(ValueError):
    """Invalid pipeline configuration (CLI exit code 1)."""


class DataError(ValueError):
    """Unusable input data (CLI exit code 2)."""


class SchemaError(DataError):
    """Column mapping does not match the input file."""


class EmptyInputError(DataError):
    """Input contained no parseable rows."""


ENCODING = "utf-8-sig"  # UTF-8, a leading byte-order mark dropped: Excel's "CSV UTF-8" writes one


def decode_input(data: bytes, origin) -> str:
    """The text of an input's bytes under ``ENCODING``; raises DataError naming ``origin`` and the first bad byte."""
    try:
        return data.decode(ENCODING)
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{origin}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason}); convert it to UTF-8 first"
        ) from None


def _read_bytes(path) -> bytes:
    """Contents of a file; raises DataError naming the file when it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def read_text(path) -> str:
    """Contents of a UTF-8 text file, a leading byte-order mark dropped, line ends as stored; raises
    DataError naming the file when it cannot be read or is not UTF-8."""
    return decode_input(_read_bytes(path), path)


def int64(text: str) -> int:
    """``int(text)`` for a column read into an int64 array; ValueError for a value outside int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text.strip()} is outside int64")
    return value


def read_table(path, types: dict[str, type]) -> dict[str, list]:
    """Columns of a CSV file, read as ``read_text`` reads it, with a header row, keyed by column name in header order.

    Blank lines are skipped. Each column named in ``types`` must be in the
    header, and its values are converted by its type (any callable of the
    text, such as ``int``); other columns stay strings, with None past the end
    of a short row, and fields past the header are ignored. A repeated header
    name takes its last column. Raises EmptyInputError when the file has no
    header row or no data rows, and otherwise DataError naming the file, plus
    the line and the row's first field (as converted, if its column comes
    earlier in ``types``) for the first value, row by row and in ``types``
    order, that is missing or does not convert.
    """
    data = _read_bytes(path)
    decode_input(data, path)  # the whole file is checked before a row is read, and its text is not kept
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding=ENCODING, newline=""))  # decoded as read
    header = next(reader, None)
    if not header:
        raise EmptyInputError(f"{path}: no header row")
    missing = [c for c in types if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    index = {name: i for i, name in enumerate(header)}  # a repeated name takes its last column
    columns = {name: [] for name in index}
    typed = [(name, kind, index[name], columns[name].append) for name, kind in types.items()]
    strings = [(i, columns[name].append) for name, i in index.items() if name not in types]
    for row in filter(None, reader):
        try:
            for name, kind, i, append in typed:
                append(kind(row[i]))
        except (ValueError, IndexError) as exc:
            first = columns[header[0]]
            label = first[-1] if len(first) > len(columns[name]) else row[0]  # longer: converted in this row
            problem = "missing" if isinstance(exc, IndexError) else exc
            raise DataError(f"{path}: line {reader.line_num} ({label}): {name}: {problem}") from None
        for i, append in strings:
            append(row[i] if i < len(row) else None)
    if not columns[header[0]]:
        raise EmptyInputError(f"{path}: no data rows")
    return columns
