"""Equivalence suite: optimized KnapsackSolver vs. the reference solver.

The optimized solver (scalar-state DP, parent-pointer reconstruction) must
produce *exactly* the same best value and weight as
:class:`ReferenceKnapsackSolver`, the direct transcription of the paper's
pseudo-code, on randomized instances — including with relaxation disabled and
with every early-stop setting.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import ErasureCodedStore
from repro.core.agar_node import AgarNode
from repro.core.knapsack import KnapsackSolver, ReferenceKnapsackSolver
from repro.core.options import CachingOption
from repro.experiments.ablation import synthetic_options
from repro.geo import default_topology
from repro.workload.workload import WorkloadSpec, generate_requests


def random_options(rng: random.Random, key_count: int) -> dict[str, list[CachingOption]]:
    """A random multiple-choice instance with clustered weights and values.

    Duplicate values and weights are generated on purpose: ties are where an
    order-sensitive rewrite of the DP would diverge from the reference.
    """
    options_by_key = {}
    for index in range(key_count):
        key = f"key-{index}"
        options = []
        previous_weight = 0
        for _ in range(rng.randint(1, 4)):
            weight = previous_weight + rng.randint(1, 4)
            previous_weight = weight
            value = rng.choice([1.0, 2.5, 4.0, 8.0, 16.0]) * rng.randint(1, 6)
            options.append(
                CachingOption(
                    key=key,
                    chunk_indices=tuple(range(weight)),
                    weight=weight,
                    latency_improvement_ms=value,
                    marginal_improvement_ms=value,
                    popularity=1.0,
                    residual_latency_ms=0.0,
                )
            )
        options_by_key[key] = options
    return options_by_key


def assert_equivalent(options_by_key, capacity, use_relax=True, stop_after_extra_keys=25):
    reference = ReferenceKnapsackSolver(
        capacity, use_relax=use_relax, stop_after_extra_keys=stop_after_extra_keys
    ).solve(options_by_key)
    optimized = KnapsackSolver(
        capacity, use_relax=use_relax, stop_after_extra_keys=stop_after_extra_keys
    ).solve(options_by_key)

    assert optimized.best.value == reference.best.value
    assert optimized.best.weight == reference.best.weight
    assert optimized.keys_processed == reference.keys_processed
    assert optimized.stopped_early == reference.stopped_early
    assert set(optimized.table) == set(reference.table)
    for slot in reference.table:
        assert optimized.table[slot].value == reference.table[slot].value
        assert optimized.table[slot].weight == reference.table[slot].weight
    return reference, optimized


@pytest.mark.parametrize("seed", range(40))
def test_random_instances_match_reference(seed):
    rng = random.Random(seed)
    options_by_key = random_options(rng, key_count=rng.randint(1, 14))
    capacity = rng.randint(1, 30)
    assert_equivalent(options_by_key, capacity)


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_no_relax(seed):
    rng = random.Random(1000 + seed)
    options_by_key = random_options(rng, key_count=rng.randint(1, 12))
    assert_equivalent(options_by_key, rng.randint(1, 25), use_relax=False)


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_early_stop_variants(seed):
    rng = random.Random(2000 + seed)
    options_by_key = random_options(rng, key_count=rng.randint(4, 12))
    capacity = rng.randint(1, 20)
    for stop in (None, 0, 2):
        assert_equivalent(options_by_key, capacity, stop_after_extra_keys=stop)


@pytest.mark.parametrize("seed", range(6))
def test_synthetic_paper_instances_match_reference(seed):
    """Instances with the paper's option structure (region-boundary weights)."""
    options_by_key = synthetic_options(object_count=10 + 3 * seed, skew=0.8 + 0.1 * seed,
                                       seed=seed)
    for capacity in (9, 27, 45):
        reference, optimized = assert_equivalent(options_by_key, capacity)
        # Exact option lists should match too on these well-formed instances.
        for slot in reference.table:
            assert [
                (option.key, option.weight) for option in reference.table[slot].options
            ] == [
                (option.key, option.weight) for option in optimized.table[slot].options
            ]


def test_degenerate_inputs_match_reference():
    assert_equivalent({}, 10)
    options = random_options(random.Random(3), key_count=3)
    assert_equivalent(options, 0)
    # Options larger than the capacity are dropped by both solvers.
    assert_equivalent(options, 1)


def assert_same_tables(options_by_key, capacity, stop_after_extra_keys=25):
    """Equivalent, and every slot holds the very same option list."""
    reference, optimized = assert_equivalent(options_by_key, capacity,
                                             stop_after_extra_keys=stop_after_extra_keys)
    for slot in reference.table:
        assert optimized.table[slot].options == reference.table[slot].options
    assert optimized.best.options == reference.best.options
    return reference, optimized


@pytest.fixture(scope="module")
def agar_node_instances():
    """Option sets an AgarNode generates on the engine-agar / wire-agar shape.

    Default topology, 300 x 1 MB objects, Zipf 1.1 and a 10 MB cache (89
    chunk slots), captured after three popularity periods in each of two
    regions.
    """
    store = ErasureCodedStore(default_topology())
    store.populate(300, 1024 * 1024)
    workload = WorkloadSpec(object_count=300, request_count=1500, skew=1.1, seed=11)
    keys = [request.key for request in generate_requests(workload, seed=11)]
    instances = []
    for region in ("frankfurt", "sydney"):
        node = AgarNode(region, store, cache_capacity_bytes=10 * 1024 * 1024)
        manager = node.cache_manager
        for period in range(3):
            for key in keys[period * 500:(period + 1) * 500]:
                node.request_monitor.record_request(key)
            popularity = node.request_monitor.end_period()
            instances.append((manager.generate_options(popularity), manager.capacity_chunks))
            manager.reconfigure(popularity)
    return instances


@pytest.mark.parametrize("index", range(6))
def test_agar_node_instances_match_reference(agar_node_instances, index):
    """Real AgarNode option sets: identical tables, slot by slot."""
    options_by_key, capacity = agar_node_instances[index]
    assert capacity == 89
    assert len(options_by_key) > 100
    assert_same_tables(options_by_key, capacity)


@pytest.mark.parametrize("seed", range(40))
def test_random_instances_same_option_lists(seed):
    """The random suite's instances, compared option list by option list."""
    rng = random.Random(seed)
    options_by_key = random_options(rng, key_count=rng.randint(1, 14))
    assert_same_tables(options_by_key, rng.randint(1, 30))


def test_random_suite_exercises_weight_shrinking_relaxes():
    """The random suite must keep reaching relaxes that evict an object whole.

    A total eviction leaves a configuration lighter than its slot; only such
    instances (and the improving relaxes behind them) would expose a relax
    filter that skips a state it should have improved.  The paper-shaped
    synthetic instances never produce one.
    """
    shrunk = 0
    for seed in range(40):
        rng = random.Random(seed)
        options_by_key = random_options(rng, key_count=rng.randint(1, 14))
        table = ReferenceKnapsackSolver(rng.randint(1, 30)).solve(options_by_key).table
        shrunk += sum(1 for slot, config in table.items() if config.weight < slot)
    assert shrunk > 0


@st.composite
def tied_instances(draw):
    """Small instances drawn from few weights and values, zeros included.

    Shared values make relaxes tie with the state they would replace; gaps
    in a key's weights force total evictions that shrink a state below its
    slot.
    """
    key_count = draw(st.integers(1, 7))
    options_by_key = {}
    for index in range(key_count):
        key = f"key-{index}"
        weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        popularity = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        options = []
        for weight in weights:
            improvement = draw(st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0]))
            options.append(CachingOption(
                key=key, chunk_indices=tuple(range(weight)), weight=weight,
                latency_improvement_ms=improvement, marginal_improvement_ms=improvement,
                popularity=popularity, residual_latency_ms=0.0,
            ))
        options_by_key[key] = options
    capacity = draw(st.integers(0, 16))
    stop = draw(st.sampled_from([None, 0, 1, 25]))
    return options_by_key, capacity, stop


@settings(max_examples=300, deadline=None)
@given(tied_instances())
def test_property_small_tied_instances_match_reference(instance):
    options_by_key, capacity, stop = instance
    assert_same_tables(options_by_key, capacity, stop_after_extra_keys=stop)
