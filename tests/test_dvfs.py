"""Unit tests for the DVFS frequency ladder."""

import pytest

from repro.cluster import PAPER_FREQUENCIES_GHZ


class TestPaperLadder:
    def test_paper_ladder_has_13_levels(self, ladder):
        assert len(ladder) == 13

    def test_paper_ladder_bounds(self, ladder):
        assert ladder.frequency(0) == pytest.approx(1.2)
        assert ladder.f_max == pytest.approx(2.4)

    def test_paper_ladder_step_is_100mhz(self, ladder):
        freqs = ladder.frequencies_ghz
        steps = [round(b - a, 6) for a, b in zip(freqs, freqs[1:])]
        assert all(s == pytest.approx(0.1) for s in steps)

    def test_module_constant_matches(self, ladder):
        assert ladder.frequencies_ghz == PAPER_FREQUENCIES_GHZ


class TestRatios:
    def test_max_level_ratio_is_one(self, ladder):
        assert ladder.ratio(ladder.max_level) == pytest.approx(1.0)

    def test_min_level_ratio(self, ladder):
        assert ladder.ratio(0) == pytest.approx(0.5)

    def test_ratios_are_increasing(self, ladder):
        ratios = ladder.ratios()
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_frequency_lookup(self, ladder):
        assert ladder.frequency(0) == pytest.approx(1.2)
        assert ladder.frequency(6) == pytest.approx(1.8)


class TestStepping:
    def test_step_down_saturates_at_zero(self, ladder):
        assert ladder.step_down(0) == 0
        assert ladder.step_down(1, steps=5) == 0

    def test_step_up_saturates_at_max(self, ladder):
        assert ladder.step_up(ladder.max_level) == ladder.max_level
        assert ladder.step_up(11, steps=5) == ladder.max_level

    def test_step_amounts(self, ladder):
        assert ladder.step_down(5, steps=2) == 3
        assert ladder.step_up(5, steps=3) == 8

    def test_clamp(self, ladder):
        assert ladder.clamp(-3) == 0
        assert ladder.clamp(100) == ladder.max_level
        assert ladder.clamp(7) == 7


class TestValidation:
    def test_level_out_of_range_rejected(self, ladder):
        with pytest.raises(ValueError):
            ladder.ratio(13)
        with pytest.raises(ValueError):
            ladder.frequency(-1)
