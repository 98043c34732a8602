"""Tests for caching-option generation, including the paper's worked example."""

import pytest

from repro.core.options import (
    CachingOption,
    baseline_read_latency,
    generate_caching_options,
    needed_chunks,
    option_with_weight,
    option_with_weight_at_most,
    with_popularity,
)
from repro.geo.topology import TABLE1_FRANKFURT_LATENCIES


@pytest.fixture
def table1_latencies():
    return dict(TABLE1_FRANKFURT_LATENCIES)


class TestNeededChunks:
    def test_discards_furthest_m(self, round_robin_chunks, table1_latencies):
        needed = needed_chunks(round_robin_chunks, table1_latencies, data_chunks=9, parity_chunks=3)
        assert len(needed) == 9
        regions = [chunk.region for chunk in needed]
        # Two Sydney chunks and one Tokyo chunk are discarded.
        assert regions.count("sydney") == 0
        assert regions.count("tokyo") == 1
        assert regions.count("frankfurt") == 2
        # Sorted furthest first.
        assert needed[0].region == "tokyo"
        assert needed[-1].region == "frankfurt"

    def test_baseline_latency_is_furthest_needed(self, round_robin_chunks, table1_latencies):
        assert baseline_read_latency(round_robin_chunks, table1_latencies, 9, 3) == pytest.approx(3400.0)

    def test_missing_latency_estimate(self, round_robin_chunks):
        with pytest.raises(ValueError):
            needed_chunks(round_robin_chunks, {"frankfurt": 80.0}, 9, 3)

    def test_too_few_chunks(self, table1_latencies):
        with pytest.raises(ValueError):
            needed_chunks({"frankfurt": [0]}, table1_latencies, 9, 3)


class TestPaperWorkedExample:
    """§IV-A example: Frankfurt node, Table I latencies, popularity 80."""

    @pytest.fixture
    def options(self, round_robin_chunks, table1_latencies):
        return generate_caching_options(
            key="key1",
            chunks_by_region=round_robin_chunks,
            region_latencies=table1_latencies,
            popularity=80.0,
            data_chunks=9,
            parity_chunks=3,
            cache_read_ms=20.0,
        )

    def test_five_options_at_region_boundaries(self, options):
        assert [option.weight for option in options] == [1, 3, 5, 7, 9]

    def test_option_1_caches_the_tokyo_block(self, options, round_robin_chunks):
        assert set(options[0].chunk_indices) <= set(round_robin_chunks["tokyo"])
        assert options[0].weight == 1

    def test_option_1_value_is_160000(self, options):
        """Popularity 80 × (3,400 − 1,400) = 160,000."""
        assert options[0].latency_improvement_ms == pytest.approx(2000.0)
        assert options[0].value == pytest.approx(160_000.0)

    def test_option_2_marginal_value_is_64000(self, options):
        """Popularity 80 × (1,400 − 600) = 64,000 (the paper's 'option 2')."""
        assert options[1].weight == 3
        assert options[1].marginal_improvement_ms == pytest.approx(800.0)
        assert options[1].marginal_value == pytest.approx(64_000.0)

    def test_absolute_equals_sum_of_marginals(self, options):
        cumulative = 0.0
        for option in options:
            cumulative += option.marginal_improvement_ms
            assert option.latency_improvement_ms == pytest.approx(cumulative)

    def test_values_monotonically_increase_with_weight(self, options):
        values = [option.value for option in options]
        assert values == sorted(values)

    def test_full_replica_residual_is_cache_latency(self, options):
        assert options[-1].residual_latency_ms == pytest.approx(20.0)

    def test_option_chunks_are_supersets(self, options):
        for smaller, larger in zip(options, options[1:]):
            assert smaller.chunk_set() < larger.chunk_set()


class TestGenerationEdgeCases:
    def test_zero_popularity_gives_zero_values(self, round_robin_chunks, frankfurt_latencies):
        options = generate_caching_options(
            "k", round_robin_chunks, frankfurt_latencies, popularity=0.0,
            data_chunks=9, parity_chunks=3,
        )
        assert options and all(option.value == 0.0 for option in options)

    def test_negative_popularity_rejected(self, round_robin_chunks, frankfurt_latencies):
        with pytest.raises(ValueError):
            generate_caching_options("k", round_robin_chunks, frankfurt_latencies,
                                     popularity=-1.0, data_chunks=9, parity_chunks=3)

    def test_with_popularity_equals_regeneration(self, round_robin_chunks, frankfurt_latencies):
        def generate(popularity):
            return generate_caching_options("k", round_robin_chunks, frankfurt_latencies,
                                            popularity=popularity, data_chunks=9,
                                            parity_chunks=3, cache_read_ms=20.0)

        repriced = with_popularity(generate(2.0), 0.37)
        assert repriced == generate(0.37)
        assert [option.value for option in repriced] == [option.value for option in generate(0.37)]
        assert hash(repriced[0]) == hash(generate(0.37)[0])
        with pytest.raises(ValueError):
            with_popularity(repriced, -1.0)

    def test_include_all_weights(self, round_robin_chunks, frankfurt_latencies):
        options = generate_caching_options(
            "k", round_robin_chunks, frankfurt_latencies, popularity=5.0,
            data_chunks=9, parity_chunks=3, include_all_weights=True,
        )
        assert [option.weight for option in options] == list(range(1, 10))
        # Intermediate weights are dominated: same improvement as the boundary below.
        by_weight = {option.weight: option for option in options}
        assert by_weight[2].latency_improvement_ms == pytest.approx(by_weight[1].latency_improvement_ms)

    def test_uniform_distances_yield_flat_middle(self, round_robin_chunks):
        flat = {region: 400.0 for region in round_robin_chunks}
        options = generate_caching_options(
            "k", round_robin_chunks, flat, popularity=1.0,
            data_chunks=9, parity_chunks=3, cache_read_ms=20.0,
        )
        # With every region equally far, only the full-replica option improves latency.
        assert all(option.latency_improvement_ms == pytest.approx(0.0) for option in options[:-1])
        assert options[-1].latency_improvement_ms == pytest.approx(380.0)


class TestOptionLookups:
    def make_options(self):
        return [
            CachingOption("k", (1,), 1, 100.0, 100.0, 2.0, 900.0),
            CachingOption("k", (1, 2, 3), 3, 300.0, 200.0, 2.0, 700.0),
            CachingOption("k", (1, 2, 3, 4, 5), 5, 500.0, 200.0, 2.0, 500.0),
        ]

    def test_option_with_weight_exact(self):
        options = self.make_options()
        assert option_with_weight(options, 3).weight == 3
        assert option_with_weight(options, 4) is None

    def test_option_with_weight_at_most(self):
        options = self.make_options()
        assert option_with_weight_at_most(options, 4).weight == 3
        assert option_with_weight_at_most(options, 0) is None

    def test_option_validation(self):
        with pytest.raises(ValueError):
            CachingOption("k", (1, 2), 3, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CachingOption("k", (), 0, 1.0, 1.0, 1.0, 1.0)
