"""Latency model and background-traffic model."""

import statistics

import pytest

from repro.net.background import BackgroundTraffic, delay_inflation
from repro.net.latency import LatencyModel
from repro.net.topology import wan_key


def delays(model, src_dc, dst_dc, count):
    """``count`` independent delay samples in seconds."""
    return [model.sample_delay(src_dc, dst_dc) for _ in range(count)]


class TestLatencyModel:
    def test_delays_positive(self):
        model = LatencyModel(seed=0)
        assert all(d > 0 for d in delays(model, "a", "b", 100))

    def test_mean_near_configured(self):
        model = LatencyModel(mean_ms=25, seed=1)
        # Average across many DC pairs (each pair has a stable base).
        samples = []
        for i in range(40):
            samples.extend(delays(model, f"dc{i}", f"dc{i+100}", 25))
        mean_ms = statistics.mean(samples) * 1000
        assert 10 < mean_ms < 50

    def test_pair_base_is_symmetric(self):
        model = LatencyModel(seed=2)
        ab = model._pair_base("a", "b")
        ba = model._pair_base("b", "a")
        assert ab == ba

    def test_intra_dc_faster_than_inter(self):
        model = LatencyModel(seed=3)
        intra = statistics.mean(delays(model, "a", "a", 50))
        inter = statistics.mean(delays(model, "a", "b", 50))
        assert intra < inter

    def test_seeded_reproducibility(self):
        a = delays(LatencyModel(seed=4), "x", "y", 5)
        b = delays(LatencyModel(seed=4), "x", "y", 5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(mean_ms=0)


class TestBackgroundTraffic:
    def test_fraction_within_unit_interval(self):
        bg = BackgroundTraffic(seed=0)
        link = wan_key("a", "b")
        for t in range(0, 24 * 3600, 1800):
            frac = bg.usage_fraction(link, float(t))
            assert 0.0 <= frac <= 1.0

    def test_diurnal_variation_present(self):
        bg = BackgroundTraffic(
            base_fraction=0.2, diurnal_fraction=0.5, noise_fraction=0.0, seed=1
        )
        link = wan_key("a", "b")
        fracs = [bg.usage_fraction(link, t * 600.0) for t in range(144)]
        assert max(fracs) - min(fracs) > 0.3

    def test_phases_differ_across_links(self):
        bg = BackgroundTraffic(noise_fraction=0.0, seed=2)
        p1 = bg._link_phase(wan_key("a", "b"))
        p2 = bg._link_phase(wan_key("c", "d"))
        assert p1 != p2

    def test_usage_scales_with_capacity(self):
        bg = BackgroundTraffic(noise_fraction=0.0, seed=3)
        link = wan_key("a", "b")
        frac = bg.usage_fraction(link, 0.0)
        # A fresh generator with the same seed replays the same noise.
        bg2 = BackgroundTraffic(noise_fraction=0.0, seed=3)
        assert bg2.usage(link, 0.0, 100.0) == pytest.approx(frac * 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackgroundTraffic(base_fraction=1.5)


class TestDelayInflation:
    def test_no_inflation_below_threshold(self):
        assert delay_inflation(0.5) == 1.0
        assert delay_inflation(0.8) == 1.0

    def test_inflation_grows_past_threshold(self):
        assert delay_inflation(0.9) > 1.0
        assert delay_inflation(0.95) > delay_inflation(0.9)

    def test_thirty_x_regime(self):
        # The paper's incident: sustained overload caused ~30x delays.
        assert delay_inflation(0.994) > 30

    def test_capped_at_100(self):
        assert delay_inflation(1.0) <= 100.0

    def test_custom_threshold(self):
        assert delay_inflation(0.7, threshold=0.6) > 1.0
        assert delay_inflation(0.55, threshold=0.6) == 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            delay_inflation(0.5, threshold=1.5)
