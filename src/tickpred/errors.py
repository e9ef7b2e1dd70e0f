"""Exception types that the CLI maps to distinct exit codes."""


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
