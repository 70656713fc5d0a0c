"""Synthetic inter-DC multicast workloads matching the paper's §2 study."""

from repro.workload.distributions import (
    APP_PROFILES,
    OVERALL_MULTICAST_SHARE,
    PiecewiseLinearCDF,
    destination_fraction_cdf,
    transfer_size_cdf,
)
from repro.workload.generator import TransferRequest, WorkloadGenerator

__all__ = [
    "APP_PROFILES",
    "OVERALL_MULTICAST_SHARE",
    "PiecewiseLinearCDF",
    "destination_fraction_cdf",
    "transfer_size_cdf",
    "TransferRequest",
    "WorkloadGenerator",
]
