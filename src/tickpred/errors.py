"""Exception types that the CLI maps to distinct exit codes, and the checked readers of input files."""

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


def not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    """The error for a file that is not UTF-8 text, naming the file and the first bad byte."""
    return DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason}); convert it to UTF-8 first")


def read_text(path) -> str:
    """Contents of a UTF-8 text file, line ends as stored; raises DataError naming the file when it cannot be read."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def read_table(path, types: dict[str, type]) -> dict[str, list]:
    """Columns of a UTF-8 CSV file with a header row, keyed by column name in header order.

    Blank lines are skipped. Each column named in ``types`` must be in the
    header, and its values are converted by its type (any callable of the
    text, such as ``int``); other columns stay strings, with None past the end
    of a short row, and fields past the header are ignored. Raises
    EmptyInputError when the file has no header row or no data rows, and
    otherwise DataError naming the file, plus the line and the row's first
    field for the first value in file order that is missing or does not
    convert.
    """
    text = read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if not header:
        raise EmptyInputError(f"{path}: no header row")
    missing = [c for c in types if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    records = [row for row in reader if row]
    if not records:
        raise EmptyInputError(f"{path}: no data rows")
    columns = {}
    for name, i in {name: i for i, name in enumerate(header)}.items():  # a repeated name takes its last column
        if name not in types:
            columns[name] = [row[i] if i < len(row) else None for row in records]
            continue
        kind = types[name]
        try:
            columns[name] = [kind(row[i]) for row in records]
        except (ValueError, IndexError):  # a bad value or a short row: only now are lines tracked
            _raise_first_bad_value(path, text, types)
            raise
    return columns


def _raise_first_bad_value(path, text: str, types: dict[str, type]) -> None:
    """Raise the DataError of the first value, row by row and in ``types`` order, that is missing or bad."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    for row in filter(None, reader):
        record = dict(zip(header, row))
        for name, kind in types.items():
            try:
                if name not in record:  # a short row
                    raise ValueError("missing")
                record[name] = kind(record[name])
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num} ({record[header[0]]}): {name}: {exc}") from None
