"""Linear-programming machinery used by BDS's routing step (§4.4).

Contains a small LP model builder over ``scipy.optimize.linprog``, a
path-based multi-commodity-flow (MCF) model, and the Garg–Könemann /
Fleischer fully-polynomial-time approximation scheme (FPTAS) the paper uses
to get ε-optimal routing in milliseconds instead of solving the LP exactly.
"""

from repro.lp.model import LinearProgram, LPSolution, LPError
from repro.lp.mcf import Commodity, MCFResult, solve_lp_incidence
from repro.lp.incidence import PathIncidence
from repro.lp.fptas import (
    max_multicommodity_flow,
    FPTASResult,
    FPTASWarmState,
)

__all__ = [
    "LinearProgram",
    "LPSolution",
    "LPError",
    "Commodity",
    "MCFResult",
    "solve_lp_incidence",
    "PathIncidence",
    "max_multicommodity_flow",
    "FPTASResult",
    "FPTASWarmState",
]
