"""BDS's centralized decision-making logic (paper §4 and §5).

The controller decouples per-cycle control into a **scheduling** step
(which blocks to send — generalized rarest-first, §4.3) and a **routing**
step (which paths and rates — max-throughput MCF with blocks merging and an
FPTAS backend, §4.4), which is what makes near-real-time centralized
control feasible at the paper's scale.
"""

from repro.core.config import BDSConfig
from repro.core.decisions import ControlDecision, ScheduledBlock
from repro.core.scheduling import RarestFirstScheduler
from repro.core.routing import BDSRouter, RoutingDiagnostics
from repro.core.controller import BDSController
from repro.core.bandwidth import residual_budget
from repro.core.fault import ControllerReplicaSet
from repro.core.formulation import JointFormulation, StandardLPRouter
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.core.diffs import DecisionDiff, DiffStats, diff_decisions, diff_stats_over_run

__all__ = [
    "DeliverySpeculator",
    "SpeculatedView",
    "DecisionDiff",
    "DiffStats",
    "diff_decisions",
    "diff_stats_over_run",
    "BDSConfig",
    "ControlDecision",
    "ScheduledBlock",
    "RarestFirstScheduler",
    "BDSRouter",
    "RoutingDiagnostics",
    "BDSController",
    "residual_budget",
    "ControllerReplicaSet",
    "JointFormulation",
    "StandardLPRouter",
]
