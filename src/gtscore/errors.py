"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config errors -> 1,
data errors -> 2, internal invariant failures -> 3.
"""


class GtscoreError(Exception):
    """Base class for all package errors."""


class DataError(GtscoreError):
    """Problems with input market data (parsing, validation, coverage)."""


class CsvParseError(DataError):
    """Malformed asset CSV row or header; carries a 1-based line number."""

    def __init__(self, asset_id: str, line_no: int, message: str):
        super().__init__(f"{asset_id}: line {line_no}: {message}")
        self.line_no = line_no


class CsvValidationError(DataError):
    """A parsed row violates an OHLCV invariant; names the offending date."""


class InsufficientDataError(DataError):
    """A series or window is too short for the requested operation."""


class ParameterError(GtscoreError, ValueError):
    """Invalid strategy/indicator/config parameters."""


class ConfigError(GtscoreError, ValueError):
    """Invalid run configuration or CLI usage."""


class InternalCheckError(GtscoreError):
    """An internal consistency check failed (verify subcommand)."""
