"""Package-wide exception types, mapped to CLI exit codes in cli.py, and
the integer check that the settings' validation shares."""

import numbers


def is_count(value) -> bool:
    """Whether value is a (Python or NumPy) integer >= 1."""
    return isinstance(value, numbers.Integral) and value >= 1


class ConfigError(ValueError):
    """Invalid configuration or argument values (CLI exit code 2)."""


class DataIOError(OSError):
    """Missing, malformed, or unwritable data files (CLI exit code 3)."""


class NumericError(ArithmeticError):
    """Numerical failure: singular solve, indefinite matrix, underflow
    (CLI exit code 4)."""
