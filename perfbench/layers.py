"""Which public entry points are traced, and under which layer name.

Both processes use these helpers: the benchmark process for the engine
workloads, the gateway child for the serving stack.  Every wrapper sits on a
public function or method of the program; nothing under ``src/`` knows it is
being traced.
"""

from __future__ import annotations

from repro.core.knapsack import KnapsackSolver

from tracing import Tracer

#: Layer rows of the attribution table: (row label, span names summed).
STACK_ROWS = (
    ("strategies (decision)", ("strategies.read", "strategies.read_indexed",
                               "strategies.compose_indexed_batch")),
    ("core.monitor", ("core.monitor",)),
    ("core.reconfigure", ("core.reconfigure",)),
    ("core.solve", ("core.solve",)),
    ("cache", ("cache.get", "cache.put")),
    ("latency draws", ("latency.sample", "latency.block")),
)
GATEWAY_ROWS = (
    ("protocol.parse_request", ("protocol.parse_request",)),
    *STACK_ROWS,
    ("ledger.read_entry", ("ledger.read_entry",)),
    ("store.get_chunks", ("store.get_chunks",)),
    ("store.put", ("store.put",)),
    ("erasure.decode", ("erasure.decode",)),
    ("erasure.encode", ("erasure.encode",)),
    ("protocol.build_response", ("protocol.build_response",)),
)


def instrument_strategy(tracer: Tracer, strategy) -> None:
    """Trace a strategy, its Agar node, its cache and its latency model."""
    for method in ("read", "read_indexed", "compose_indexed_batch"):
        if hasattr(strategy, method):
            tracer.patch_method(strategy, method, f"strategies.{method}")
    node = getattr(strategy, "node", None)
    if node is not None:
        tracer.patch_method(node, "reconfigure", "core.reconfigure")
        monitor = node.request_monitor
        tracer.patch_method(monitor, "record_request", "core.monitor")
        tracer.patch_method(monitor, "record_request_indices", "core.monitor")
    cache = getattr(strategy, "cache", None)
    if cache is not None:
        tracer.patch_method(cache, "get", "cache.get")
        tracer.patch_method(cache, "put", "cache.put")


def instrument_latency(tracer: Tracer, latency) -> None:
    """Trace every draw the strategies take from the latency model.

    Scalar draws count one per span; block draws tally their ``count``.
    """
    for method in ("sample_backend_read", "sample_cache_read",
                   "next_standard_normal"):
        tracer.patch_method(latency, method, "latency.sample")
    for method in ("take_standard_normals", "take_standard_normals_array"):
        tracer.patch_method(latency, method, "latency.block", tally_arg=0)


def instrument_solver(tracer: Tracer) -> None:
    """The cache manager builds a solver per reconfiguration: trace the class."""
    tracer.patch_class(KnapsackSolver, "solve", "core.solve")


def instrument_gateway_module(tracer: Tracer, gateway_module) -> None:
    """Trace the module-level names the gateway's handlers call."""
    tracer.patch_module(gateway_module, "parse_request", "protocol.parse_request")
    tracer.patch_module(gateway_module, "build_response", "protocol.build_response")
    tracer.patch_module(gateway_module, "read_entry", "ledger.read_entry")


def instrument_store(tracer: Tracer, store) -> None:
    """Trace the store's chunk fetch and write, and its codec."""
    tracer.patch_method(store, "get_chunks", "store.get_chunks")
    tracer.patch_method(store, "put", "store.put")
    codec = store.codec
    tracer.patch_method(codec, "decode", "erasure.decode")
    tracer.patch_method(codec, "encode", "erasure.encode")


def cache_counters(strategy) -> dict[str, int]:
    """The strategy's chunk-cache counters (zeros for cacheless strategies)."""
    cache = getattr(strategy, "cache", None)
    if cache is None:
        return {"hits": 0, "misses": 0, "evictions": 0}
    stats = cache.stats
    return {"hits": stats.chunk_hits, "misses": stats.chunk_misses,
            "evictions": stats.evictions}


def counter_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def stack_metrics(summary, spans, reads: int,
                  cache: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of the decision stack shared by every workload.

    ``reads`` is the number of object reads (or GETs) the window of
    ``spans`` served and ``cache`` its chunk-cache counter deltas.  Times
    come from the spans, counts from the program's own counters where it
    keeps them.
    """
    per = 1.0 / reads if reads else 0.0
    lookups = cache["hits"] + cache["misses"]
    draws = (summary.calls("latency.sample")
             + spans.tallies.get("latency.block", 0))
    latency_s = summary.self_s("latency.sample") + summary.self_s("latency.block")
    return {
        "strategies.read_us": summary.mean_us("strategies.read"),
        "strategies.read_indexed_us": summary.mean_us("strategies.read_indexed"),
        "strategies.compose_indexed_batch_us":
            summary.mean_us("strategies.compose_indexed_batch"),
        "strategies.reads": float(summary.calls("strategies.read")
                                  + summary.calls("strategies.read_indexed")
                                  + summary.calls("strategies.compose_indexed_batch")),
        "core.reconfigure_count": float(summary.calls("core.reconfigure")),
        "core.reconfigure_ms": summary.mean_us("core.reconfigure") / 1e3,
        "core.reconfigure_max_ms": summary.max_ms("core.reconfigure"),
        "core.solve_ms": summary.mean_us("core.solve") / 1e3,
        "core.monitor_us": summary.mean_us("core.monitor"),
        "cache.get_per_read": lookups * per,
        "cache.get_us": summary.mean_us("cache.get"),
        "cache.put_per_read": summary.calls("cache.put") * per,
        "cache.evictions_per_read": cache["evictions"] * per,
        "cache.chunk_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "latency.draws_per_read": draws * per,
        "latency.draw_us": latency_s / draws * 1e6 if draws else 0.0,
    }


def layer_rows(summary, rows, reads: int) -> list[tuple[str, float]]:
    """(label, corrected self microseconds per read) for each table row."""
    return [(label, sum(summary.self_s(name) for name in names) / reads * 1e6)
            for label, names in rows]
