"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

from numbers import Integral
from typing import NoReturn

from repro.errors import ConfigurationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        _fail(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value`` is strictly positive."""
    if value <= 0:
        _fail(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Raise unless ``value`` is zero or positive."""
    if value < 0:
        _fail(f"{name} must be non-negative, got {value!r}")


def is_row_limit(value: object) -> bool:
    """Whether ``value`` is a row limit: ``None`` (unlimited) or a
    non-negative integer — a numpy integer counts, a ``bool`` does not."""
    return value is None or (
        isinstance(value, Integral) and not isinstance(value, bool) and value >= 0
    )


def _fail(message: str) -> NoReturn:
    raise ConfigurationError(message)
