"""Seeded RNG plumbing and argument validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import make_rng
from repro.utils.validation import (
    check_count,
    check_fraction,
    check_non_negative,
    check_positive,
)


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=5)
        b = make_rng(42).integers(0, 1000, size=5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestValidation:
    def test_check_positive_passes_through(self):
        assert check_positive("x", 3.5) == 3.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("y", 0.0) == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValueError, match="y"):
            check_non_negative("y", -1)

    def test_check_fraction_bounds(self):
        assert check_fraction("f", 0.0) == 0.0
        assert check_fraction("f", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("f", 1.01)
        with pytest.raises(ValueError):
            check_fraction("f", -0.01)

    def test_check_count(self):
        assert check_count("n", 3, 1) == 3
        assert check_count("n", np.int64(0), 0) == 0
        for value in (0, 2.0, 2.5, True, "2"):
            with pytest.raises(ValueError, match="n must be an int >= 1"):
                check_count("n", value, 1)
