"""The Fig. 4 measurement: direct against relayed path throughput."""

import pytest

from repro.net.paths import throughput_ratio_samples
from repro.net.topology import Topology
from repro.utils.units import GB, MBps


class TestRatioSampling:
    def test_samples_produced(self):
        topo = Topology.random_mesh(
            num_dcs=6,
            servers_per_dc=2,
            wan_capacity_range=(1 * GB, 10 * GB),
            uplink_range=(10 * MBps, 100 * MBps),
            seed=4,
        )
        ratios = throughput_ratio_samples(topo, 100, seed=4)
        assert len(ratios) == 100
        assert all(r > 0 for r in ratios)

    def test_needs_three_dcs(self):
        topo = Topology.full_mesh(2, 1, 1 * GB, 1 * MBps)
        with pytest.raises(ValueError):
            throughput_ratio_samples(topo, 10, seed=0)

    def test_heterogeneous_capacities_make_disjoint_pairs(self):
        topo = Topology.random_mesh(
            num_dcs=8,
            servers_per_dc=2,
            wan_capacity_range=(1 * GB, 10 * GB),
            uplink_range=(10 * MBps, 200 * MBps),
            seed=11,
        )
        ratios = throughput_ratio_samples(topo, 300, seed=11)
        disjoint = sum(1 for r in ratios if abs(r - 1) > 0.01) / len(ratios)
        # The paper's Fig. 4: >95% of pairs have different throughput.
        assert disjoint > 0.9
