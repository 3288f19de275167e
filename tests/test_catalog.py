"""Unit tests for the request-type catalog (paper Table 1)."""

import numpy as np
import pytest

from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VICTIM_TYPES,
    VOLUME_DOS,
    RequestMix,
    RequestType,
    alios_mix,
    get_type,
    get_type_by_url,
    uniform_mix,
)


class TestCatalogContents:
    def test_table1_victim_types_present(self):
        names = {t.name for t in VICTIM_TYPES}
        assert names == {"colla-filt", "k-means", "word-count", "text-cont"}

    def test_all_types_includes_volume_dos(self):
        assert VOLUME_DOS in ALL_TYPES
        assert len(ALL_TYPES) == 5

    def test_lookup_by_name(self):
        assert get_type("k-means") is K_MEANS
        with pytest.raises(KeyError):
            get_type("nope")

    def test_lookup_by_url(self):
        assert get_type_by_url("/api/recommend") is COLLA_FILT
        with pytest.raises(KeyError):
            get_type_by_url("/unknown")

    def test_urls_are_unique(self):
        urls = [t.url for t in ALL_TYPES]
        assert len(set(urls)) == len(urls)


class TestRequestTypeModel:
    def test_speedup_at_nominal_is_one(self):
        for t in ALL_TYPES:
            assert t.speedup(1.0) == pytest.approx(1.0)

    def test_cpu_bound_slows_more(self):
        # Colla-Filt (c=0.95) suffers more at half frequency than
        # memory-bound K-means (c=0.40).
        assert COLLA_FILT.speedup(0.5) < K_MEANS.speedup(0.5)

    def test_service_time_inverse_of_speedup(self):
        assert COLLA_FILT.service_time(0.5) == pytest.approx(
            COLLA_FILT.base_service_s / COLLA_FILT.speedup(0.5)
        )

    def test_power_factor_at_nominal_equals_intensity(self):
        for t in ALL_TYPES:
            assert t.dynamic_power_factor(1.0) == pytest.approx(t.power_intensity)

    def test_power_factor_monotone_in_frequency(self):
        for t in ALL_TYPES:
            factors = [t.dynamic_power_factor(r) for r in (0.5, 0.75, 1.0)]
            assert factors == sorted(factors)

    def test_invalid_url_rejected(self):
        with pytest.raises(ValueError):
            RequestType("x", "no-slash", 0.1, 0.5, 0.5, 0.5)

    def test_invalid_service_time_rejected(self):
        with pytest.raises(ValueError):
            RequestType("x", "/x", 0.0, 0.5, 0.5, 0.5)

    def test_types_are_frozen(self):
        with pytest.raises(Exception):
            COLLA_FILT.base_service_s = 1.0  # type: ignore[misc]


class TestRequestMix:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RequestMix({COLLA_FILT: 0.5, K_MEANS: 0.6})

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            RequestMix({})

    def test_sampling_respects_weights(self):
        rng = np.random.default_rng(0)
        mix = RequestMix({TEXT_CONT: 0.9, COLLA_FILT: 0.1})
        draws = mix.sample_many(rng, 20000)
        frac_cf = sum(1 for t in draws if t is COLLA_FILT) / len(draws)
        assert frac_cf == pytest.approx(0.1, abs=0.01)

    def test_sample_many_matches_domain(self):
        rng = np.random.default_rng(1)
        mix = uniform_mix(VICTIM_TYPES)
        assert set(mix.sample_many(rng, 500)) <= set(VICTIM_TYPES)

    def test_single_sample(self):
        rng = np.random.default_rng(2)
        mix = RequestMix({K_MEANS: 1.0})
        assert mix.sample(rng) is K_MEANS

    def test_sample_many_zero(self):
        rng = np.random.default_rng(3)
        assert uniform_mix(VICTIM_TYPES).sample_many(rng, 0) == []

    def test_sample_many_negative_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            uniform_mix(VICTIM_TYPES).sample_many(rng, -1)

    def test_expected_base_service(self):
        mix = RequestMix({COLLA_FILT: 0.5, TEXT_CONT: 0.5})
        expected = 0.5 * COLLA_FILT.base_service_s + 0.5 * TEXT_CONT.base_service_s
        assert mix.expected_base_service() == pytest.approx(expected)

    def test_expected_power_factor(self):
        mix = RequestMix({COLLA_FILT: 1.0})
        assert mix.expected_power_factor(1.0) == pytest.approx(
            COLLA_FILT.power_intensity
        )


class TestAliosMix:
    def test_dominated_by_light_traffic(self):
        mix = alios_mix()
        weights = dict(zip(mix.types, mix.weights))
        assert weights[TEXT_CONT] > 0.5

    def test_contains_all_victim_types(self):
        assert set(alios_mix().types) == set(VICTIM_TYPES)

    def test_uniform_mix_equal_weights(self):
        mix = uniform_mix((COLLA_FILT, K_MEANS))
        assert mix.weights == (0.5, 0.5)

    def test_uniform_mix_empty_rejected(self):
        with pytest.raises(ValueError):
            uniform_mix(())
