"""Seeded RNG plumbing and argument validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import (
    check_count,
    check_fraction,
    check_non_negative,
    check_positive,
    check_type,
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


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(1, 5)) == 5

    def test_streams_are_independent(self):
        streams = spawn_rngs(7, 2)
        a = streams[0].integers(0, 10**9, size=10)
        b = streams[1].integers(0, 10**9, size=10)
        assert not (a == b).all()

    def test_deterministic_across_calls(self):
        a = spawn_rngs(3, 3)[2].integers(0, 10**9, size=4)
        b = spawn_rngs(3, 3)[2].integers(0, 10**9, size=4)
        assert (a == b).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []


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

    def test_check_type_single(self):
        assert check_type("t", 5, int) == 5
        with pytest.raises(TypeError, match="t must be int"):
            check_type("t", "no", int)

    def test_check_type_tuple(self):
        assert check_type("t", 5.0, (int, float)) == 5.0
        with pytest.raises(TypeError):
            check_type("t", [], (int, float))
