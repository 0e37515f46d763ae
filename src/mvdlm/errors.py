"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ConfigError",
    "DimensionMismatch",
    "DomainError",
    "FilterError",
    "MeanUndefined",
    "MvdlmError",
    "NotPositiveDefinite",
    "ParseError",
]


class MvdlmError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatch(MvdlmError, ValueError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(MvdlmError, ArithmeticError):
    """Cholesky factorization hit a non-positive pivot."""


class DomainError(MvdlmError, ValueError):
    """Parameter lies outside the domain where the quantity is defined."""


class MeanUndefined(DomainError):
    """Too few degrees of freedom for the requested moment to exist."""


class ConfigError(MvdlmError, ValueError):
    """Invalid run configuration; the message names the section and key when known."""

    def __init__(self, message: str, section: str | None = None, key: str | None = None):
        if section is not None:
            message = f"[{section}]" + (f" {key}" if key else "") + f": {message}"
        super().__init__(message)


class ParseError(MvdlmError, ValueError):
    """Malformed input data. Carries row/column diagnostics when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        prefix = []
        if row is not None:
            prefix.append(f"row {row}")
        if column is not None:
            prefix.append(f"column {column!r}")
        if prefix:
            message = f"{', '.join(prefix)}: {message}"
        super().__init__(message)


class FilterError(MvdlmError, RuntimeError):
    """Numerical failure during filtering. Carries the failing time index."""

    def __init__(self, message: str, t: int):
        self.t = t
        super().__init__(f"t={t}: {message}")
