"""End-to-end pins for everything that runs a decentralized baseline.

``tests/data/baseline_pins.json`` was recorded at the commit before the
five baselines moved from scalar ``store.has`` probes to the
:class:`~repro.baselines.base.JobPossession` lens (run this file as a
script against that commit's ``src/`` to record it again), and
``bullet:relay_failure`` at the commit before Bullet dealt all its
receivers at once. Every entry a Gingko run reaches was recorded again
(``python tests/test_baseline_pins.py``) on the commit after f89399a,
when Gingko's sender picks became one draw per job; the others read as
before, byte for byte. The BDS arms of ``overlay_compare:full:*`` and
both ``sharded_churn_k4`` entries were recorded again at 5d9a6b1 (the
``_recorded`` entry), by ``PYTHONPATH=src:. python
tests/test_baseline_pins.py``, when floats began to fold with
``math.fsum``; every other value read as before. Every value
is a ``SimResult.fingerprint()`` or the exact floats an experiment
runner returns, so any change to a directive, to the order directives
are emitted in, or to a strategy's RNG stream shows up here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.analysis.experiments.evaluation import (
    exp_fig9_bds_vs_gingko,
    exp_table3_overlay_comparison,
)
from repro.analysis.experiments.motivation import exp_fig5_gingko_vs_ideal
from repro.analysis.runner import make_strategy
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GBps, MB, MBps

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
PINS_FILE = DATA / "baseline_pins.json"


def _ledger_workloads():
    """The perf ledger's frozen workload builders (not a package)."""
    path = str(ROOT / "benchmarks" / "ledger")
    if path not in sys.path:
        sys.path.insert(0, path)
    import workloads

    return workloads


def _overlay_compare(seed: int, scale: float) -> Dict[str, str]:
    workloads = _ledger_workloads()
    arms = workloads.overlay_compare(seed, scale, workloads.StageClock())
    return {arm.label: arm.sim.run().fingerprint() for arm in arms}


def _sharded_churn(seed: int) -> Dict[str, object]:
    """The ledger's churn arm at quick scale.

    The controller is unreachable for three cycles; Gingko decides them
    on a view that carries no global candidate table.
    """
    workloads = _ledger_workloads()
    (arm,) = workloads.sharded_churn_k4(seed, 0.1, workloads.StageClock())
    result = arm.sim.run()
    outage = [s.cycle for s in result.cycle_stats if not s.controller_available]
    return {"fingerprint": result.fingerprint(), "fallback_cycles": len(outage)}


def _controller_outage(strategy: str) -> str:
    """``tests/test_failures.py``'s outage scenario."""
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=40 * MBps, uplink=4 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
        total_bytes=96 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    failures = FailureSchedule(
        [
            FailureEvent(cycle=2, kind="controller_fail"),
            FailureEvent(cycle=5, kind="controller_recover"),
        ]
    )
    sim = Simulation(
        topo, [job], make_strategy(strategy, seed=3),
        SimConfig(max_cycles=9, stop_when_complete=False),
        failures=failures, seed=3,
    )
    return sim.run().fingerprint()


def _relay_failure(strategy: str) -> str:
    """A run in which Bullet's peers are not direct's origin holders.

    Two destination DCs start with a fifth of the file on each server,
    so Bullet's RanSub subsets reach beyond the source DC, and one of
    those servers fails mid-run. (The ledger's ``overlay_compare`` and
    its pins cannot tell Bullet from direct: the receivers' downlinks
    bound both to the same deliveries.)
    """
    topo = Topology.full_mesh(
        num_dcs=6, servers_per_dc=4, wan_capacity=1 * GBps, uplink=8 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3", "dc4", "dc5"),
        total_bytes=160 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    pre_seeded = {
        server.server_id: job.blocks[k % 5 :: 5]
        for dc in ("dc1", "dc2")
        for k, server in enumerate(topo.servers_in(dc))
    }
    failures = FailureSchedule(
        [
            FailureEvent(cycle=3, kind="agent_fail", target="dc1-s0"),
            FailureEvent(cycle=7, kind="agent_recover", target="dc1-s0"),
        ]
    )
    sim = Simulation(
        topo, [job], make_strategy(strategy, seed=4), SimConfig(),
        failures=failures, pre_seeded=pre_seeded, seed=4,
    )
    return sim.run().fingerprint()


def _fig9() -> Dict[str, object]:
    result = exp_fig9_bds_vs_gingko(
        file_bytes=128 * MB, servers_per_dc=3, days=1
    )
    return {
        "gingko_server_times": result.gingko_server_times,
        "bds_server_times": result.bds_server_times,
        "by_app": {
            app: {name: list(stats) for name, stats in arms.items()}
            for app, arms in result.by_app.items()
        },
        "timeseries": result.timeseries,
    }


def _table3() -> Dict[str, float]:
    result = exp_table3_overlay_comparison(setups=("baseline",), seed=11)
    return result.times["baseline"]


def _fig5() -> Dict[str, object]:
    result = exp_fig5_gingko_vs_ideal(
        servers_per_dc=12, file_bytes=256 * MB, seed=5
    )
    return {
        "gingko_times": result.gingko_times,
        "median_ratio": result.median_ratio,
    }


SCENARIOS: Dict[str, Callable[[], object]] = {
    "overlay_compare:quick:seed0": lambda: _overlay_compare(0, 0.1),
    "overlay_compare:quick:seed1": lambda: _overlay_compare(1, 0.1),
    "overlay_compare:full:seed0": lambda: _overlay_compare(0, 1.0),
    "overlay_compare:full:seed1": lambda: _overlay_compare(1, 1.0),
    "sharded_churn_k4:inprocess:seed0": lambda: _sharded_churn(0),
    "sharded_churn_k4:inprocess:seed1": lambda: _sharded_churn(1),
    "controller_outage:bds": lambda: _controller_outage("bds"),
    "controller_outage:gingko": lambda: _controller_outage("gingko"),
    "fig9:test_scale": _fig9,
    "table3:baseline": _table3,
    "fig5:test_scale": _fig5,
    "bullet:relay_failure": lambda: _relay_failure("bullet"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_equals_the_parent_commit(name):
    pins = json.loads(PINS_FILE.read_text())
    # Through JSON and back, so tuples and lists compare alike.
    assert json.loads(json.dumps(SCENARIOS[name]())) == pins[name]


def test_fallback_cycles_are_crossed():
    """The churn pins only pin the fallback if the outage is inside the run."""
    pins = json.loads(PINS_FILE.read_text())
    for name, pin in pins.items():
        if name.startswith("sharded_churn_k4"):
            assert pin["fallback_cycles"] == 3


def test_the_bullet_pin_is_not_direct():
    """The relay-failure pin sees Bullet's own peers and partitions."""
    pins = json.loads(PINS_FILE.read_text())
    assert pins["bullet:relay_failure"] != _relay_failure("direct")


if __name__ == "__main__":
    from tests.test_engine_pins import _clean_commit

    recorded = {"commit": _clean_commit(), "by": "tests/test_baseline_pins.py"}
    pins = {name: SCENARIOS[name]() for name in sorted(SCENARIOS)}
    PINS_FILE.write_text(json.dumps({"_recorded": recorded, **pins}, indent=1) + "\n")
