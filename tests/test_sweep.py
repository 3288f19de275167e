"""Unit tests for sweep/replication utilities."""

import numpy as np
import pytest

from repro.analysis.sweep import replicate


class TestReplicate:
    def test_mean_and_std(self):
        def experiment(seed):
            return {"value": float(seed)}

        out = replicate(experiment, seeds=[1, 2, 3])
        assert out["value"].mean == pytest.approx(2.0)
        assert out["value"].std == pytest.approx(1.0)
        assert out["value"].n == 3

    def test_confidence_interval_brackets_mean(self):
        rng = np.random.default_rng(0)
        data = {s: float(rng.normal(10.0, 2.0)) for s in range(30)}

        out = replicate(lambda s: {"x": data[s]}, seeds=list(range(30)))
        summary = out["x"]
        assert summary.ci_low < summary.mean < summary.ci_high
        # 95% z CI half-width = 1.96 * std / sqrt(n).
        assert summary.ci_half_width == pytest.approx(
            1.96 * summary.std / np.sqrt(30), rel=1e-3
        )

    def test_single_seed_has_zero_ci(self):
        out = replicate(lambda s: {"x": 5.0}, seeds=[0])
        assert out["x"].std == 0.0
        assert out["x"].ci_half_width == 0.0

    def test_deterministic_experiment_is_tight(self):
        out = replicate(lambda s: {"x": 7.0}, seeds=[1, 2, 3, 4])
        assert out["x"].std == 0.0

    def test_inconsistent_metrics_rejected(self):
        def experiment(seed):
            return {"a": 1.0} if seed == 0 else {"b": 1.0}

        with pytest.raises(ValueError, match="metrics"):
            replicate(experiment, seeds=[0, 1])

    def test_unsupported_confidence_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {"x": 1.0}, seeds=[0, 1], confidence=0.5)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {"x": 1.0}, seeds=[])
