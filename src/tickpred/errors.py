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


def read_text(path) -> str:
    """Contents of a UTF-8 text file, line ends as stored; raises DataError naming the file when it cannot be read."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def read_table(path, types: dict[str, type]) -> list[dict]:
    """Rows of a UTF-8 CSV file with a header row, as dicts keyed by column name.

    Each column named in ``types`` must be in the header, and its values are
    converted by its type (any callable of the text, such as ``int``); other
    columns stay strings. Raises EmptyInputError when the file has no header
    row or no data rows, and otherwise DataError naming the file, plus the
    line and the row's first field for a value that is missing or does not
    convert.
    """
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if not reader.fieldnames:
        raise EmptyInputError(f"{path}: no header row")
    missing = [c for c in types if c not in reader.fieldnames]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    rows = []
    for row in reader:
        for name, kind in types.items():
            try:
                if row[name] is None:  # a short row
                    raise ValueError("missing")
                row[name] = kind(row[name])
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num} ({row[reader.fieldnames[0]]}): {name}: {exc}") from None
        rows.append(row)
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    return rows
