"""Exception classes, one per exit code of the CLI; `cli.main` prints any
of them as one `error:` line that names what is wrong."""


class GtscoreError(Exception):
    """Base class for all package errors."""


class ConfigError(GtscoreError, ValueError):
    """Exit 1: an invalid setting, parameter or CLI usage."""


class DataError(GtscoreError):
    """Exit 2: input data that cannot be read, is invalid or is too short."""


class InternalCheckError(GtscoreError):
    """Exit 3: a derived file is missing or differs from its recomputation."""
