"""Dynamic bandwidth separation: the §5.2 residual-budget formula."""

import pytest

from tests.oracles import residual_budget


class TestResidualBudget:
    def test_basic(self):
        assert residual_budget(100, 30, threshold=0.8) == pytest.approx(50)

    def test_clamped_at_zero(self):
        assert residual_budget(100, 95, threshold=0.8) == 0.0

    def test_zero_online(self):
        assert residual_budget(100, 0, threshold=0.8) == pytest.approx(80)

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_budget(0, 0)
        with pytest.raises(ValueError):
            residual_budget(100, -1)
        with pytest.raises(ValueError):
            residual_budget(100, 10, threshold=1.2)
