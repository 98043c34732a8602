"""Cached option templates stay equal to fresh option generation (§IV-A).

The Cache Manager keeps each key's options as a popularity-free template,
keyed on the object's metadata instance and on the Region Manager's estimate
view.  After every event that can change an option — a PUT, a delete, an
estimate refresh, a down region, a recovery — ``generate_options`` must equal
a fresh :func:`generate_caching_options` call for every key: weights, chunk
indices, improvements, residuals and popularity.
"""

import pytest

from repro.backend import ErasureCodedStore
from repro.backend.placement import PlacementPolicy
from repro.core.agar_node import AgarNode
from repro.core.options import generate_caching_options
from repro.geo import default_topology

MEGABYTE = 1024 * 1024


class RotatingPlacement(PlacementPolicy):
    """Round-robin whose start region advances on every placement.

    A PUT therefore moves the object's chunks, so a template kept across it
    would go stale.
    """

    def __init__(self) -> None:
        self._calls = 0

    def place(self, key, total_chunks, regions):
        offset = self._calls % len(regions)
        self._calls += 1
        return {index: regions[(index + offset) % len(regions)] for index in range(total_chunks)}


def fresh_options(node, popularity):
    """What option generation yields with no template cache at all."""
    region_manager = node.region_manager
    params = region_manager.params
    candidates = sorted(((key, pop) for key, pop in popularity.items() if pop > 0.0),
                        key=lambda item: (-item[1], item[0]))
    expected = {}
    for key, pop in candidates:
        if key not in region_manager.known_keys():
            continue
        options = generate_caching_options(
            key=key,
            chunks_by_region=region_manager.chunks_by_region(key),
            region_latencies=region_manager.latency_estimates(),
            popularity=pop,
            data_chunks=params.data_chunks,
            parity_chunks=params.parity_chunks,
            cache_read_ms=region_manager.cache_read_estimate(),
        )
        if options:
            expected[key] = options
    return expected


def assert_fresh(node, popularity):
    generated = node.cache_manager.generate_options(popularity)
    expected = fresh_options(node, popularity)
    assert list(generated) == list(expected)
    for key, options in expected.items():
        assert [
            (option.key, option.chunk_indices, option.weight, option.latency_improvement_ms,
             option.marginal_improvement_ms, option.residual_latency_ms, option.popularity)
            for option in generated[key]
        ] == [
            (option.key, option.chunk_indices, option.weight, option.latency_improvement_ms,
             option.marginal_improvement_ms, option.residual_latency_ms, option.popularity)
            for option in options
        ]
    return generated


@pytest.fixture
def rotating_store():
    store = ErasureCodedStore(default_topology(seed=3), placement=RotatingPlacement())
    store.populate(24, MEGABYTE)
    return store


@pytest.fixture
def node(rotating_store):
    return AgarNode("frankfurt", rotating_store, cache_capacity_bytes=10 * MEGABYTE)


def popularity_for(node, scale=1.0):
    popularity = {key: scale * (1.0 + index % 7) for index, key in
                  enumerate(node.region_manager.known_keys())}
    popularity["ghost"] = 5.0
    return popularity


def test_templates_apply_new_popularity(node):
    node.cache_manager.reconfigure(popularity_for(node))
    assert_fresh(node, popularity_for(node))
    assert_fresh(node, popularity_for(node, scale=0.37))


def test_put_rebuilds_the_key_template(node, rotating_store):
    popularity = popularity_for(node)
    node.cache_manager.reconfigure(popularity)
    before = node.region_manager.chunks_by_region("object-3")
    rotating_store.put_virtual("object-3", MEGABYTE, version=1)
    assert node.region_manager.chunks_by_region("object-3") != before
    assert_fresh(node, popularity)

    rotating_store.put_virtual("object-new", MEGABYTE)
    popularity["object-new"] = 9.0
    assert "object-new" in assert_fresh(node, popularity)


def test_delete_drops_the_key(node, rotating_store):
    popularity = popularity_for(node)
    node.cache_manager.reconfigure(popularity)
    rotating_store.delete("object-5")
    assert "object-5" not in assert_fresh(node, popularity)


def test_refresh_estimates_invalidates_templates(node):
    popularity = popularity_for(node)
    node.cache_manager.reconfigure(popularity)
    before = node.region_manager.latency_estimates()
    node.region_manager.refresh_estimates()
    assert node.region_manager.latency_estimates() != before
    assert_fresh(node, popularity)


def test_down_region_and_recovery_invalidate_templates(node):
    popularity = popularity_for(node)
    healthy = node.cache_manager.reconfigure(popularity)
    healthy_options = assert_fresh(node, popularity)

    node.emergency_reconfigure(1.0, frozenset({"sao_paulo"}))
    degraded_options = assert_fresh(node, popularity)
    assert degraded_options != healthy_options

    node.emergency_reconfigure(2.0, frozenset())
    assert assert_fresh(node, popularity) == healthy_options
    assert healthy.candidate_keys == len(healthy_options)
