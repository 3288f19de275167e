"""Unit tests for the shared validation helpers."""

import math

import pytest

from repro._validation import (
    check_finite,
    check_fraction,
    check_int,
    check_non_negative,
    check_positive,
    check_probability_vector,
    require,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", math.inf)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("x", "1.0")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative("x", -0.1)


class TestCheckFinite:
    def test_accepts_int_and_float(self):
        assert check_finite("x", 3) == 3
        assert check_finite("x", -2.5) == -2.5

    def test_rejects_none(self):
        with pytest.raises(TypeError):
            check_finite("x", None)


class TestCheckFraction:
    def test_accepts_bounds_inclusive(self):
        assert check_fraction("x", 0.0) == 0.0
        assert check_fraction("x", 1.0) == 1.0

    def test_rejects_bounds_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction("x", 0.0, inclusive=False)
        with pytest.raises(ValueError):
            check_fraction("x", 1.0, inclusive=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction("x", 1.01)
        with pytest.raises(ValueError):
            check_fraction("x", -0.01)


class TestCheckInt:
    def test_accepts_int(self):
        assert check_int("n", 5) == 5

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_int("n", 5.0)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_int("n", False)

    def test_minimum_enforced(self):
        with pytest.raises(ValueError, match=">= 1"):
            check_int("n", 0, minimum=1)


class TestProbabilityVector:
    def test_accepts_valid_distribution(self):
        assert check_probability_vector("p", [0.25, 0.75]) == [0.25, 0.75]

    def test_rejects_non_unit_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_probability_vector("p", [0.5, 0.6])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            check_probability_vector("p", [1.5, -0.5])

    def test_tolerates_float_rounding(self):
        check_probability_vector("p", [1 / 3, 1 / 3, 1 / 3])
