"""The cache-configuration Knapsack solver (paper §IV-B, Figs. 4 and 5).

Choosing which chunks to cache is a multiple-choice knapsack problem: each
object contributes several mutually exclusive caching options (§IV-A) and the
cache capacity bounds the total weight.  The paper solves it with a dynamic
programming heuristic:

* ``MaxV[w]`` holds the best configuration found so far of weight at most ``w``;
* every option is offered to every intermediate configuration twice — once via
  **relaxation** (replace an already-chosen option of another object with a
  smaller one of the same object to make room, Fig. 5) and once via
  **addition** (extend the configuration, Fig. 4 lines 14–21);
* objects are processed in decreasing value order, and the paper's §VI
  optimisation stops a fixed number of objects after ``MaxV[capacity]`` is
  first reached, making the run time depend on the cache size rather than on
  the dataset size.

Two implementations are provided:

* :class:`KnapsackSolver` — the optimized solver.  The DP state is scalar: a
  weight-indexed array of ``(value, weight, key-bitmask, option-chain)``
  records, so the inner loops touch only floats, ints and tuple cells.  Each
  record carries an upper bound on what a relax can gain, so the Fig. 5
  chain scan runs only on records it might improve.  Full
  :class:`CacheConfiguration` objects are materialized from the option
  chains after the DP finishes, each on first read.
* :class:`ReferenceKnapsackSolver` — the original direct transcription of the
  paper's pseudo-code, which derives an immutable :class:`CacheConfiguration`
  for every intermediate state.  It is kept as the ground truth for the
  equivalence test-suite and for the ablation benchmarks.

:mod:`repro.core.exact` and :mod:`repro.core.greedy` provide an exact MCKP
solver and a greedy baseline for the ablation benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.options import (
    CachingOption,
    best_option_value,
    option_with_weight,
    options_by_weight,
)
from repro.erasure.chunk import ChunkId


@dataclass(frozen=True)
class CacheConfiguration:
    """An assignment of caching options to objects (at most one per object).

    Configurations are immutable; the solver derives new ones via
    :meth:`with_option` and :meth:`replace`.  Weight, value and the key index
    are computed once at construction time, so the properties are O(1).
    """

    options: tuple[CachingOption, ...] = ()
    _by_key: dict[str, CachingOption] = field(init=False, repr=False, compare=False)
    _weight: int = field(init=False, repr=False, compare=False)
    _value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_key: dict[str, CachingOption] = {}
        for option in self.options:
            if option.key in by_key:
                raise ValueError(f"configuration contains two options for key {option.key!r}")
            by_key[option.key] = option
        object.__setattr__(self, "_by_key", by_key)
        # The value is the plain left-to-right float sum, the order in which
        # the solvers accumulate it; sum() compensates float rounding from
        # Python 3.12 on, which would make the two disagree in the last ulp.
        value = 0.0
        for option in self.options:
            value += option.value
        object.__setattr__(self, "_weight", sum(option.weight for option in self.options))
        object.__setattr__(self, "_value", value)

    # -- inspection ---------------------------------------------------- #
    @property
    def weight(self) -> int:
        """Total number of chunks the configuration caches."""
        return self._weight

    @property
    def value(self) -> float:
        """Total value (popularity-weighted latency improvement)."""
        return self._value

    def has_key(self, key: str) -> bool:
        """True if the configuration already caches chunks of ``key``."""
        return key in self._by_key

    def option_for(self, key: str) -> CachingOption | None:
        """The option chosen for ``key``, if any."""
        return self._by_key.get(key)

    def keys(self) -> list[str]:
        """Keys with at least one cached chunk, in insertion order."""
        return [option.key for option in self.options]

    def chunks_for(self, key: str) -> tuple[int, ...]:
        """Chunk indices cached for ``key`` (empty tuple if none)."""
        option = self._by_key.get(key)
        return option.chunk_indices if option else ()

    def chunk_ids(self) -> frozenset[ChunkId]:
        """All chunk ids named by the configuration (what the cache should pin)."""
        ids = set()
        for option in self.options:
            for index in option.chunk_indices:
                ids.add(ChunkId(key=option.key, index=index))
        return frozenset(ids)

    def __len__(self) -> int:
        return len(self.options)

    # -- derivation ---------------------------------------------------- #
    def with_option(self, option: CachingOption) -> "CacheConfiguration":
        """Return a new configuration with ``option`` appended.

        Raises:
            ValueError: if the configuration already has an option for the key.
        """
        return CacheConfiguration(options=self.options + (option,))

    def replace(self, old: CachingOption, replacement: CachingOption | None,
                added: CachingOption | None = None) -> "CacheConfiguration":
        """Return a new configuration with ``old`` swapped for ``replacement``.

        ``replacement`` may be ``None`` (total eviction of the old object,
        paper Fig. 5); ``added`` is an option for another object appended at
        the end (the option that the relaxation made room for).
        """
        position = -1
        for index, option in enumerate(self.options):
            if option is old:
                position = index
                break
        if position < 0:
            # Identity miss: fall back to a single equality scan.
            for index, option in enumerate(self.options):
                if option == old:
                    position = index
                    break
        new_options = list(self.options)
        if position >= 0:
            if replacement is not None:
                new_options[position] = replacement
            else:
                del new_options[position]
        if added is not None:
            new_options.append(added)
        return CacheConfiguration(options=tuple(new_options))


EMPTY_CONFIGURATION = CacheConfiguration()


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    Attributes:
        best: the configuration to install (highest value with weight ≤ capacity).
        table: the final ``MaxV`` table (weight slot → best configuration
            seen).  :class:`KnapsackSolver` returns a read-only mapping that
            builds each slot's configuration on first read.
        keys_processed: how many objects the solver examined.
        stopped_early: whether the §VI early-stop optimisation triggered.
    """

    best: CacheConfiguration
    table: Mapping[int, CacheConfiguration]
    keys_processed: int
    stopped_early: bool


#: Gain entry for a weight no chain node can make room for.
_NO_GAIN = float("-inf")

#: Relative slack of the relax bound, as a fraction of M, the sum of every
#: usable option's absolute value.  A relax compares
#: ``base - old + replacement + option`` with ``base``; each term and partial
#: sum is a sum of distinct options' values, so float rounding moves the
#: comparison, and the bound's own ``replacement - old``, by a few ulps of M.
#: A slack of 1e-9 * M covers that many times over, so a record is skipped
#: only when no relax can improve it.
_BOUND_SLACK = 1e-9


def _upper(first: Sequence[float], second: Sequence[float]) -> tuple[float, ...]:
    """Element-wise max of two bound vectors."""
    return tuple([a if a > b else b for a, b in zip(first, second)])


class _State:
    """One scalar DP record: the configuration at a ``MaxV`` weight slot.

    ``chain`` is a singly linked chain of
    ``(option, value, weight, key_bit, parent, gains)`` tuples in reverse
    insertion order, so the relax scan touches only tuple cells — no property
    calls, no dict lookups.  ``gains[w]`` is what relaxing the node's object
    by ``w`` chunks gains before the new option's value is added: the value
    of its exact-weight replacement (0 for a total eviction) minus the
    node's value.  Materializing a :class:`CacheConfiguration` happens only
    after the DP converged.  ``mask`` is a bitmask over the solver's key
    indices — an O(1) replacement for ``has_key``.

    ``bound`` is the element-wise max of the chain's gains: an upper bound on
    what any relax of the record can gain.  A record made by an addition
    leaves it ``None`` and keeps its ``source`` record;
    :meth:`_DynamicProgram._bound_of` extends the source's bound by the head
    node's gains on first use.
    """

    __slots__ = ("value", "weight", "mask", "chain", "bound", "source")

    def __init__(self, value: float, weight: int, mask: int, chain: tuple | None,
                 bound: tuple[float, ...] | None, source: "_State | None" = None) -> None:
        self.value = value
        self.weight = weight
        self.mask = mask
        self.chain = chain
        self.bound = bound
        self.source = source

    def nodes_in_order(self) -> list[tuple]:
        """The chain's nodes in insertion order."""
        nodes: list[tuple] = []
        node = self.chain
        while node is not None:
            nodes.append(node)
            node = node[4]
        nodes.reverse()
        return nodes

    def materialize(self) -> CacheConfiguration:
        """Build the full configuration object (done once, after the DP)."""
        return CacheConfiguration(options=tuple(node[0] for node in self.nodes_in_order()))


class _MaterializingTable(Mapping[int, CacheConfiguration]):
    """The final ``MaxV`` table; a slot's configuration is built on first read."""

    def __init__(self, states: dict[int, _State]) -> None:
        self._states = states
        self._configs: dict[int, CacheConfiguration] = {}

    def __getitem__(self, slot: int) -> CacheConfiguration:
        config = self._configs.get(slot)
        if config is None:
            config = self._configs[slot] = self._states[slot].materialize()
        return config

    def __contains__(self, slot: object) -> bool:
        return slot in self._states

    def __iter__(self) -> Iterator[int]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)


class KnapsackSolver:
    """The paper's dynamic-programming heuristic for cache configuration.

    This is the optimized solver: the DP operates on scalar
    ``(value, weight, mask, chain)`` records in a weight-indexed array, with
    per-option weight/value read once, O(1) key-membership checks and
    parent-pointer reconstruction.  Each record also carries a bound on what
    a relax can gain, so the Fig. 5 chain scan runs only where it might
    improve the record.  It is exactly equivalent (same table, same option
    lists) to :class:`ReferenceKnapsackSolver`, which transcribes the paper's
    pseudo-code directly; the equivalence suite asserts this on randomized
    and captured instances.

    Args:
        capacity_weight: cache capacity expressed in chunks.
        use_relax: enable the relaxation step (Fig. 5); disabling it leaves a
            plain addition-only DP, used by the ablation benchmark.
        stop_after_extra_keys: §VI optimisation — how many more objects to
            process after ``MaxV[capacity]`` is first reached (``None``
            disables early stopping).
    """

    def __init__(self, capacity_weight: int, use_relax: bool = True,
                 stop_after_extra_keys: int | None = 25) -> None:
        if capacity_weight < 0:
            raise ValueError("capacity_weight must be non-negative")
        if stop_after_extra_keys is not None and stop_after_extra_keys < 0:
            raise ValueError("stop_after_extra_keys must be non-negative or None")
        self._capacity = capacity_weight
        self._use_relax = use_relax
        self._stop_after_extra_keys = stop_after_extra_keys

    @property
    def capacity_weight(self) -> int:
        """Cache capacity in chunks."""
        return self._capacity

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> SolverResult:
        """Compute a cache configuration from per-object caching options.

        Objects are processed in decreasing order of their best option value
        (Fig. 4 line 8: "iterate through keys in decreasing value order").
        """
        if self._capacity == 0 or not options_by_key:
            return SolverResult(best=EMPTY_CONFIGURATION, table={0: EMPTY_CONFIGURATION},
                                keys_processed=0, stopped_early=False)

        capacity = self._capacity
        usable: dict[str, list[CachingOption]] = {}
        best_values: dict[str, float] = {}
        magnitude = 0.0
        max_weight = 0
        for key, options in options_by_key.items():
            fitting = [option for option in options if option.weight <= capacity]
            if not fitting:
                continue
            values = [option.value for option in fitting]
            usable[key] = fitting
            best_values[key] = max(values)
            magnitude += sum(map(abs, values))
            max_weight = max(max_weight, max(option.weight for option in fitting))
        ordered_keys = sorted(usable, key=lambda key: (-best_values[key], key))

        run = _DynamicProgram(usable, capacity, max_weight, magnitude)
        keys_since_full: int | None = None
        keys_processed = 0
        stopped_early = False

        for index, key in enumerate(ordered_keys):
            bit = 1 << index
            for option in sorted(usable[key], key=lambda opt: opt.weight):
                if self._use_relax:
                    run.relax_pass(option, bit)
                run.addition_pass(option, bit)
            keys_processed += 1

            if self._stop_after_extra_keys is not None:
                if keys_since_full is None and run.max_slot >= capacity:
                    keys_since_full = 0
                elif keys_since_full is not None:
                    keys_since_full += 1
                    if keys_since_full >= self._stop_after_extra_keys:
                        stopped_early = True
                        break

        table, best = run.table_and_best()
        return SolverResult(best=best, table=table, keys_processed=keys_processed,
                            stopped_early=stopped_early)

    def solve_configuration(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration:
        """Convenience wrapper returning only the best configuration."""
        return self.solve(options_by_key).best


class _DynamicProgram:
    """One :class:`KnapsackSolver` run: the ``MaxV`` array and its passes.

    ``_states[w]`` is the record at weight slot ``w`` and ``_values[w]`` its
    value (``None`` when empty), kept in parallel so the addition pass can
    prefilter targets without attribute loads.  Per-key work (exact-weight
    indexes, relax gains) happens only for keys the DP reaches.
    """

    def __init__(self, usable: Mapping[str, Sequence[CachingOption]], capacity: int,
                 max_weight: int, magnitude: float) -> None:
        self._usable = usable
        self._capacity = capacity
        # With non-finite option values the bound is meaningless: no limit
        # ever filters a state.
        self._slack = magnitude * _BOUND_SLACK if math.isfinite(magnitude) else math.inf
        self._empty_bound = (_NO_GAIN,) * (max_weight + 1)
        # Running max of every bound ever built: a relax pass whose option
        # cannot gain even against it is skipped outright.
        self._reach = list(self._empty_bound)
        self._indexes: dict[str, dict[int, CachingOption]] = {}
        # Keyed by id(): every option lives in ``usable`` for the whole run.
        self._gains: dict[int, tuple[float, ...]] = {}
        self._states: list[_State | None] = [None] * (capacity + 1)
        self._values: list[float | None] = [None] * (capacity + 1)
        self._states[0] = _State(0.0, 0, 0, None, self._empty_bound)
        self._values[0] = 0.0
        self.max_slot = 0

    # -- per-key data --------------------------------------------------- #
    def _index_for(self, key: str) -> dict[int, CachingOption]:
        """Exact-weight lookup of ``key``'s options (SearchOption of Fig. 5)."""
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = options_by_weight(self._usable.get(key, ()))
        return index

    def _gains_of(self, option: CachingOption) -> tuple[float, ...]:
        """Per weight ``w``: what relaxing ``option``'s node by ``w`` chunks gains."""
        gains = self._gains.get(id(option))
        if gains is None:
            index = self._index_for(option.key)
            weight = option.weight
            value = option.value
            vector = list(self._empty_bound)
            for freed in range(1, weight + 1):
                replacement = index.get(weight - freed)
                vector[freed] = (replacement.value if replacement is not None else 0.0) - value
            gains = self._gains[id(option)] = tuple(vector)
        return gains

    @staticmethod
    def _bound_of(state: _State) -> tuple[float, ...]:
        """``state``'s relax bound, extending pending sources oldest first."""
        pending = []
        while state.bound is None:
            pending.append(state)
            state = state.source
        bound = state.bound
        for state in reversed(pending):
            bound = state.bound = _upper(bound, state.chain[5])
            state.source = None
        return bound

    # -- DP passes ------------------------------------------------------ #
    def addition_pass(self, option: CachingOption, bit: int) -> None:
        """Fig. 4 lines 14–21: extend existing configurations with ``option``.

        Sources are read before the pass: additions inside it must not feed
        further additions of the same option.  A target slot's value only
        rises within the pass, so a source that does not beat the target's
        pre-pass value cannot beat its live value either; the survivors are
        then checked live in ascending slot order.  ``max_slot`` tracks the
        maximum occupied slot so the §VI early-stop check never rescans.
        """
        capacity = self._capacity
        option_weight = option.weight
        option_value = option.value
        states = self._states
        values = self._values
        sources = [
            state for state, value in zip(states, values)
            if value is not None and not state.mask & bit
            and (target := state.weight + option_weight) <= capacity
            and ((current := values[target]) is None or current < value + option_value)
        ]
        if not sources:
            return
        gains = self._gains_of(option)
        for state in sources:
            new_weight = state.weight + option_weight
            new_value = state.value + option_value
            current = values[new_weight]
            if current is None or current < new_value:
                states[new_weight] = _State(
                    new_value, new_weight, state.mask | bit,
                    (option, option_value, option_weight, bit, state.chain, gains),
                    None, state,
                )
                values[new_weight] = new_value
                if new_weight > self.max_slot:
                    self.max_slot = new_weight
        self._reach = _upper(self._reach, gains)

    def relax_pass(self, option: CachingOption, bit: int) -> None:
        """Fig. 4 lines 10–12 / Fig. 5: improve configurations at constant weight slot.

        Only records whose bound admits a gain larger than minus the
        option's value (less the rounding slack) run the exact chain scan;
        the scan itself, its tie-breaking and its float sums are unchanged.
        """
        option_weight = option.weight
        option_value = option.value
        limit = -option_value - self._slack
        if self._reach[option_weight] < limit:
            return
        states = self._states
        bound_of = self._bound_of
        slots = [
            slot for slot, state in enumerate(states)
            if state is not None and not state.mask & bit
            and not (state.bound or bound_of(state))[option_weight] < limit
        ]
        for slot in slots:
            state = states[slot]
            if state.chain is None:
                continue
            improved = self._relax(state, option, option_value, option_weight, bit, limit)
            if improved is not None and improved.value > state.value:
                states[slot] = improved
                self._values[slot] = improved.value
                self._reach = _upper(self._reach, improved.bound)

    def _relax(self, state: _State, option: CachingOption, option_value: float,
               option_weight: int, bit: int, limit: float) -> _State | None:
        """Fig. 5: make room for ``option`` by shrinking one already-chosen object.

        The replacement option must have *exactly* the weight freed by the
        swap (``OldOption.Weight − Option.Weight``), so the configuration's
        total weight never changes — the invariant that keeps ``MaxV[w]`` a
        weight-``w`` configuration.  When no such option exists the old object
        may be evicted entirely ("the replacement can be total"), which keeps
        the weight bounded by ``w``.

        Nodes whose gain at the option's weight is below ``limit`` cannot
        make a candidate beat the base value, so they are passed over.
        Returns the best improved state, or ``None`` if no replacement
        increases the value.
        """
        base_value = state.value
        best_value = base_value
        best_node: tuple | None = None
        best_replacement: CachingOption | None = None

        # The chain is in reverse insertion order.  The reference scans in
        # insertion order and keeps the *first* candidate achieving the best
        # value, so here a later (= earlier-inserted) candidate may take over
        # on equality: strictly-better than the base, at-least-as-good as the
        # incumbent.
        node = state.chain
        while node is not None:
            # A negative freed weight means the new option is larger than the
            # old one; swapping would exceed the slot's weight.
            if not node[5][option_weight] < limit and node[2] >= option_weight:
                freed_weight = node[2] - option_weight
                replacement = None
                replacement_value = 0.0
                if freed_weight >= 1:
                    replacement = self._index_for(node[0].key).get(freed_weight)
                    if replacement is not None:
                        replacement_value = replacement.value
                candidate_value = base_value - node[1] + replacement_value + option_value
                if candidate_value > base_value and candidate_value >= best_value:
                    best_value = candidate_value
                    best_node = node
                    best_replacement = replacement
            node = node[4]

        if best_node is None:
            return None

        # Rebuild the chain in insertion order with the swap applied, exactly
        # as CacheConfiguration.replace would, and recompute the scalar value
        # as the ordered sum so floats match the reference bit for bit.
        value = 0.0
        weight = 0
        mask = 0
        chain: tuple | None = None
        bound = self._empty_bound
        for existing in state.nodes_in_order():
            if existing is best_node:
                if best_replacement is None:
                    continue
                entry = (best_replacement, best_replacement.value,
                         best_replacement.weight, existing[3], chain,
                         self._gains_of(best_replacement))
            else:
                entry = (existing[0], existing[1], existing[2], existing[3], chain, existing[5])
            value += entry[1]
            weight += entry[2]
            mask |= entry[3]
            chain = entry
            bound = _upper(bound, entry[5])
        value += option_value
        weight += option_weight
        mask |= bit
        chain = (option, option_value, option_weight, bit, chain, self._gains_of(option))
        bound = _upper(bound, chain[5])
        return _State(value, weight, mask, chain, bound)

    # -- result --------------------------------------------------------- #
    def table_and_best(self) -> tuple[_MaterializingTable, CacheConfiguration]:
        """The lazily materialized table and its best configuration.

        The best is the first slot maximizing ``(value, -weight)``.  A
        record's scalar value equals its configuration's value bit for bit
        (both are the left-to-right sum in insertion order), so only the
        best slot is materialized here.
        """
        occupied = {slot: state for slot, state in enumerate(self._states) if state is not None}
        table = _MaterializingTable(occupied)
        best_slot = max(occupied, key=lambda slot: (occupied[slot].value, -occupied[slot].weight))
        return table, table[best_slot]


class ReferenceKnapsackSolver:
    """Direct transcription of the paper's pseudo-code (Figs. 4 and 5).

    Each intermediate ``MaxV`` entry is a full immutable
    :class:`CacheConfiguration`.  This is the original, slow implementation;
    it serves as ground truth for :class:`KnapsackSolver`'s equivalence tests
    and accepts the same constructor arguments.
    """

    def __init__(self, capacity_weight: int, use_relax: bool = True,
                 stop_after_extra_keys: int | None = 25) -> None:
        if capacity_weight < 0:
            raise ValueError("capacity_weight must be non-negative")
        if stop_after_extra_keys is not None and stop_after_extra_keys < 0:
            raise ValueError("stop_after_extra_keys must be non-negative or None")
        self._capacity = capacity_weight
        self._use_relax = use_relax
        self._stop_after_extra_keys = stop_after_extra_keys

    @property
    def capacity_weight(self) -> int:
        """Cache capacity in chunks."""
        return self._capacity

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> SolverResult:
        """Compute a cache configuration from per-object caching options."""
        if self._capacity == 0 or not options_by_key:
            return SolverResult(best=EMPTY_CONFIGURATION, table={0: EMPTY_CONFIGURATION},
                                keys_processed=0, stopped_early=False)

        usable = {
            key: [option for option in options if option.weight <= self._capacity]
            for key, options in options_by_key.items()
        }
        usable = {key: options for key, options in usable.items() if options}
        ordered_keys = sorted(usable, key=lambda key: (-best_option_value(usable[key]), key))

        table: dict[int, CacheConfiguration] = {0: EMPTY_CONFIGURATION}
        keys_since_full: int | None = None
        keys_processed = 0
        stopped_early = False

        for key in ordered_keys:
            for option in sorted(usable[key], key=lambda opt: opt.weight):
                if self._use_relax:
                    self._relax_pass(table, option, usable)
                self._addition_pass(table, option)
            keys_processed += 1

            if self._stop_after_extra_keys is not None:
                if keys_since_full is None and self._capacity_reached(table):
                    keys_since_full = 0
                elif keys_since_full is not None:
                    keys_since_full += 1
                    if keys_since_full >= self._stop_after_extra_keys:
                        stopped_early = True
                        break

        best = max(table.values(), key=lambda config: (config.value, -config.weight))
        return SolverResult(best=best, table=table, keys_processed=keys_processed,
                            stopped_early=stopped_early)

    def solve_configuration(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration:
        """Convenience wrapper returning only the best configuration."""
        return self.solve(options_by_key).best

    # ------------------------------------------------------------------ #
    # DP passes
    # ------------------------------------------------------------------ #
    def _capacity_reached(self, table: dict[int, CacheConfiguration]) -> bool:
        return any(weight >= self._capacity for weight in table)

    def _addition_pass(self, table: dict[int, CacheConfiguration], option: CachingOption) -> None:
        """Fig. 4 lines 14–21: extend existing configurations with ``option``."""
        for weight, config in sorted(table.items()):
            if config.has_key(option.key):
                continue
            new_weight = config.weight + option.weight
            if new_weight > self._capacity:
                continue
            new_value = config.value + option.value
            existing = table.get(new_weight)
            if existing is None or existing.value < new_value:
                table[new_weight] = config.with_option(option)

    def _relax_pass(self, table: dict[int, CacheConfiguration], option: CachingOption,
                    options_by_key: Mapping[str, Sequence[CachingOption]]) -> None:
        """Fig. 4 lines 10–12 / Fig. 5: improve configurations at constant weight."""
        for weight, config in list(table.items()):
            improved = self._relax(config, option, options_by_key)
            if improved is not None and improved.value > config.value:
                table[weight] = improved

    def _relax(self, config: CacheConfiguration, option: CachingOption,
               options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration | None:
        """Fig. 5: make room for ``option`` by shrinking one already-chosen object."""
        if config.has_key(option.key) or not config.options:
            return None

        best_choice: tuple[CachingOption, CachingOption | None] | None = None
        best_value = config.value

        for old_option in config.options:
            freed_weight = old_option.weight - option.weight
            if freed_weight < 0:
                # The new option is larger than the old one; swapping would
                # exceed the slot's weight.
                continue
            replacement = None
            if freed_weight >= 1:
                replacement = option_with_weight(
                    options_by_key.get(old_option.key, ()), freed_weight
                )
            replacement_value = replacement.value if replacement is not None else 0.0
            candidate_value = config.value - old_option.value + replacement_value + option.value
            if candidate_value > best_value:
                best_value = candidate_value
                best_choice = (old_option, replacement)

        if best_choice is None:
            return None
        old_option, replacement = best_choice
        return config.replace(old_option, replacement, added=option)


def configuration_summary(configuration: CacheConfiguration) -> dict[int, int]:
    """Histogram {cached chunk count: number of objects} for a configuration.

    This is the quantity Fig. 10 visualises for Agar's cache contents.
    """
    histogram: dict[int, int] = {}
    for option in configuration.options:
        histogram[option.weight] = histogram.get(option.weight, 0) + 1
    return histogram


def total_chunks(configurations: Iterable[CacheConfiguration]) -> int:
    """Total chunks across several configurations (used in multi-region reports)."""
    return sum(config.weight for config in configurations)
