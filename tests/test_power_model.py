"""Unit tests for the server power model."""

import pytest

from repro.cluster import FrequencyLadder, ServerPowerModel
from repro.cluster.power_model import PowerEvalTable
from repro.workloads import (
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
)


class TestIdlePower:
    def test_idle_at_nominal_is_idle_fraction(self, power_model):
        assert power_model.idle_power(1.0) == pytest.approx(38.0)

    def test_idle_decreases_with_frequency(self, power_model):
        assert power_model.idle_power(0.5) < power_model.idle_power(1.0)

    def test_idle_has_static_floor(self, power_model):
        # Leakage term keeps idle power above zero at any frequency.
        assert power_model.idle_power(0.5) > 0.5 * power_model.idle_power(1.0)


def _busy_power(model, rtype, n, freq_ratio):
    """Power with *n* workers busy on *rtype*, in the per-type count form
    (``power_from_counts``) every server evaluates."""
    return model.power_from_counts(
        [n],
        [rtype.dynamic_power_factor(freq_ratio, alpha=model.alpha)],
        model.idle_power(freq_ratio),
    )


class TestDynamicPower:
    def test_full_load_colla_filt_hits_nameplate(self, power_model):
        assert power_model.full_load_power(COLLA_FILT, 1.0) == pytest.approx(100.0)

    def test_power_monotone_in_busy_workers(self, power_model):
        p1 = _busy_power(power_model, COLLA_FILT, 1, 1.0)
        p2 = _busy_power(power_model, COLLA_FILT, 4, 1.0)
        p3 = _busy_power(power_model, COLLA_FILT, 8, 1.0)
        assert p1 < p2 < p3

    def test_power_monotone_in_frequency(self, power_model):
        powers = [
            _busy_power(power_model, COLLA_FILT, 4, r) for r in (0.5, 0.7, 0.9, 1.0)
        ]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_empty_server_draws_idle_only(self, power_model):
        assert power_model.power_from_counts(
            [], [], power_model.idle_power(1.0)
        ) == pytest.approx(power_model.idle_power(1.0))

    def test_volume_dos_power_is_negligible(self, power_model):
        heavy = power_model.worker_power(COLLA_FILT, 1.0)
        light = power_model.worker_power(VOLUME_DOS, 1.0)
        assert light < 0.1 * heavy


class TestTypeOrderings:
    """The catalog orderings the paper's Figs 4–6 depend on."""

    def test_full_load_power_ordering(self, power_model):
        # Fig 5a: Colla-Filt presses against nameplate, then K-means,
        # Word-Count, Text-Cont, volume floods.
        loads = [
            power_model.full_load_power(t, 1.0)
            for t in (COLLA_FILT, K_MEANS, WORD_COUNT, TEXT_CONT, VOLUME_DOS)
        ]
        assert loads == sorted(loads, reverse=True)

    def test_kmeans_has_highest_energy_per_request(self, power_model):
        # Fig 5b: "the query requesting for K-means consumes most power
        # per request".
        e_km = power_model.energy_per_request(K_MEANS, 1.0)
        for t in (COLLA_FILT, WORD_COUNT, TEXT_CONT, VOLUME_DOS):
            assert e_km > power_model.energy_per_request(t, 1.0)

    def test_kmeans_power_least_frequency_sensitive(self, power_model):
        # Fig 6b: throttling barely reduces K-means' power, so DVFS must
        # cut deeper.  Compare relative power reduction at half speed.
        def reduction(t):
            hi = power_model.worker_power(t, 1.0)
            lo = power_model.worker_power(t, 0.5)
            return (hi - lo) / hi

        assert reduction(K_MEANS) < reduction(COLLA_FILT)
        assert reduction(K_MEANS) < reduction(WORD_COUNT)


class TestEnergyPerRequest:
    def test_energy_positive_for_all_types(self, power_model):
        for t in (COLLA_FILT, K_MEANS, WORD_COUNT, TEXT_CONT, VOLUME_DOS):
            assert power_model.energy_per_request(t, 1.0) > 0

    def test_throttling_tradeoff_for_cpu_bound(self, power_model):
        # CPU-bound work at low frequency runs longer at lower power;
        # for alpha > 1 the energy per request still drops (race-to-idle
        # does not hold for the dynamic component alone).
        e_hi = power_model.energy_per_request(COLLA_FILT, 1.0)
        e_lo = power_model.energy_per_request(COLLA_FILT, 0.5)
        assert e_lo < e_hi

    def test_memory_bound_energy_barely_drops_when_throttled(self, power_model):
        # K-means keeps burning (DRAM) power while running longer, so
        # throttling saves far less of its per-request energy than of a
        # CPU-bound type's.
        def saving(t):
            e_hi = power_model.energy_per_request(t, 1.0)
            e_lo = power_model.energy_per_request(t, 0.5)
            return (e_hi - e_lo) / e_hi

        assert saving(K_MEANS) < 0.5 * saving(COLLA_FILT)


class TestValidation:
    def test_invalid_idle_fraction(self):
        with pytest.raises(ValueError):
            ServerPowerModel(idle_fraction=0.0)
        with pytest.raises(ValueError):
            ServerPowerModel(idle_fraction=1.0)

    def test_invalid_nameplate(self):
        with pytest.raises(ValueError):
            ServerPowerModel(nameplate_w=-5)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ServerPowerModel(num_workers=0)


class TestEvalTableLevels:
    """Level-indexed accessors reject a level off the ladder.

    A raw list index would read ``idle[-1]`` (the top level's floor)
    for -1 and a lower level's floor for -3, and raise a bare
    ``IndexError`` past the top.
    """

    @pytest.mark.parametrize("level", [-1, -3, 13, 99])
    @pytest.mark.parametrize(
        "accessor", ["idle_power_at", "factor_row", "speedup_row", "watts_memo"]
    )
    def test_level_off_the_ladder_rejected(self, accessor, level):
        table = PowerEvalTable(ServerPowerModel(), FrequencyLadder())
        table.slot_of(COLLA_FILT)
        with pytest.raises(ValueError, match="outside ladder"):
            getattr(table, accessor)(level)

    def test_levels_on_the_ladder_accepted(self, power_model):
        ladder = FrequencyLadder()
        table = PowerEvalTable(power_model, ladder)
        table.slot_of(COLLA_FILT)
        for level in (0, ladder.max_level):
            ratio = ladder.ratio(level)
            assert table.idle_power_at(level) == power_model.idle_power(ratio)
            assert table.factor_row(level) == [
                COLLA_FILT.dynamic_power_factor(ratio, alpha=power_model.alpha)
            ]
            assert table.speedup_row(level) == [COLLA_FILT.speedup(ratio)]
            assert table.watts_memo(level) == {}
