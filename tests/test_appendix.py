"""The appendix theorem: balanced replica distributions finish faster."""

import pytest

from repro.analysis.appendix import (
    balanced_completion_time,
    imbalanced_completion_time,
)


class TestClosedForms:
    def test_balanced_formula(self):
        # V = N(m-k)rho; rate = kR/(m-k); t = (m-k)^2 N rho / (k R).
        t = balanced_completion_time(num_blocks=10, m=5, k=2, rho=1.0, rate=1.0)
        assert t == pytest.approx((5 - 2) ** 2 * 10 / 2)

    def test_link_capacity_can_dominate(self):
        slow_link = balanced_completion_time(
            10, 5, 2, 1.0, 1.0, link_capacity=0.1
        )
        free_link = balanced_completion_time(10, 5, 2, 1.0, 1.0)
        assert slow_link > free_link

    def test_imbalanced_dominated_by_rare_half(self):
        t = imbalanced_completion_time(10, m=5, k1=1, k2=3, rho=1.0, rate=1.0)
        # Serving rate of the rare half: k1*R/(m-k1) = 1/4.
        volume = 5 * 4 * 1.0 + 5 * 2 * 1.0
        assert t == pytest.approx(volume / (1 / 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            balanced_completion_time(10, 5, 5, 1.0, 1.0)  # k >= m
        with pytest.raises(ValueError):
            imbalanced_completion_time(10, 5, 3, 2, 1.0, 1.0)  # k1 >= k2
        with pytest.raises(ValueError):
            imbalanced_completion_time(10, 5, 1, 5, 1.0, 1.0)  # k2 >= m


class TestTheorem:
    @pytest.mark.parametrize(
        "m,k1,k2",
        [(5, 1, 3), (10, 2, 4), (10, 1, 7), (20, 3, 9), (8, 2, 6)],
    )
    def test_balanced_always_faster(self, m, k1, k2):
        """``t_A < t_B`` at the same mean ``k = (k1 + k2) / 2``."""
        k = (k1 + k2) // 2
        t_a = balanced_completion_time(100, m, k, rho=2.0, rate=1.5)
        t_b = imbalanced_completion_time(100, m, k1, k2, rho=2.0, rate=1.5)
        assert t_a < t_b

    def test_derivative_always_negative(self):
        """Eq. 7: the balanced completion time falls as ``k`` grows."""
        for m in (3, 5, 10, 50):
            times = [
                balanced_completion_time(100, m, k, rho=2.0, rate=1.5)
                for k in range(1, m)
            ]
            assert all(a > b for a, b in zip(times, times[1:]))
