"""Small argument-validation helpers shared across the library.

These raise early with a message naming the offending parameter, which is
far more useful inside a long simulation run than a late ``ZeroDivisionError``.
"""

from __future__ import annotations

import numbers
from typing import Any


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` and return it."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_count(name: str, value: Any, least: int) -> int:
    """Require an integer ``>= least`` and return it. A count is an
    integer — numpy's too — and never a bool."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1`` and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value
