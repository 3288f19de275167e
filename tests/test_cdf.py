"""Unit tests for the empirical CDF helper."""

import numpy as np
import pytest

from repro.analysis import EmpiricalCDF


class TestEvaluation:
    def test_step_function_values(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(1.0) == 0.25
        assert cdf.evaluate(2.5) == 0.5
        assert cdf.evaluate(4.0) == 1.0
        assert cdf.evaluate(99.0) == 1.0

    def test_vectorised_evaluation(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        out = cdf.evaluate(np.array([0.0, 1.5, 3.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_quantile_inverts(self):
        data = np.linspace(0, 1, 101)
        cdf = EmpiricalCDF(data)
        assert cdf.quantile(0.5) == pytest.approx(0.5)
        assert cdf.median() == pytest.approx(0.5)

    def test_steps_for_plotting(self):
        cdf = EmpiricalCDF([3.0, 1.0, 2.0])
        x, y = cdf.steps()
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(y, [1 / 3, 2 / 3, 1.0])


class TestNormalization:
    def test_normalized_divides_by_reference(self):
        cdf = EmpiricalCDF([50.0, 100.0]).normalized(100.0)
        np.testing.assert_allclose(cdf.values, [0.5, 1.0])

    def test_invalid_reference_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1.0]).normalized(0.0)


class TestSpread:
    def test_subvertical_cdf_has_small_spread(self):
        # The paper's Colla-Filt power CDF is "sub-vertical": nearly all
        # mass at one value.
        tight = EmpiricalCDF([0.99, 1.0, 1.0, 1.0, 1.01])
        wide = EmpiricalCDF([0.2, 0.4, 0.6, 0.8, 1.0])
        assert tight.spread() < 0.1 * wide.spread()


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1.0, float("nan")])

    def test_n_property(self):
        assert EmpiricalCDF([1, 2, 3]).n == 3
