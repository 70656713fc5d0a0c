"""Shared low-level helpers: unit handling, seeded randomness, validation."""

from repro.utils.units import (
    KB,
    MB,
    GB,
    TB,
    Mbps,
    MBps,
    GBps,
    Gbps,
    format_bytes,
    format_rate,
    format_duration,
    parse_size,
    parse_rate,
)
from repro.utils.rng import make_rng
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_fraction,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "Mbps",
    "MBps",
    "GBps",
    "Gbps",
    "format_bytes",
    "format_rate",
    "format_duration",
    "parse_size",
    "parse_rate",
    "make_rng",
    "check_positive",
    "check_non_negative",
    "check_fraction",
]
