"""The engine workloads: ``EventEngine.execute`` timed in-process.

Each execution runs on a freshly built deployment with the same seed, so every
execution of a run must report the same modelled latencies and hit ratio: the
first one is the warm-up and the reference, every later one is timed and
compared with it.  Deployment construction is timed separately as set-up.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.sim.engine import EventEngine

import hostspeed
import layers
from tracing import PROBE, SpanSummary, Tracer, calibrate

#: Upper bound on timed executions, whatever ``--seconds`` asks for.
MAX_EXECUTIONS = 64
#: Rounds of untraced, traced and probe executions in the traced run.
ROUNDS = 3


def _build(config, seed: int):
    """A fresh deployment; ``seed`` is unused (see ``workloads.py``)."""
    engine = EventEngine(config)
    # Every run starts the jitter stream at the same place, so the Region
    # Manager's warm-up probes, and with them the deployment, are the same
    # for every seed; ``execute`` then draws the seed's request streams.
    engine.topology.latency.reseed(config.topology_seed)
    return engine, engine.build_deployment()


def _outcome(config, result) -> dict:
    """What one execution must reproduce exactly, plus its read count."""
    stats = result.overall_stats()
    return {
        "reads": stats.count,
        "unavailable": stats.unavailable_reads,
        "degraded": stats.degraded_reads,
        "retries": stats.retries_total,
        "hedged": stats.hedged_reads,
        "mean_ms": stats.mean_latency_ms,
        "p50_ms": stats.p50_latency_ms,
        "p99_ms": stats.p99_latency_ms,
        "hit_ratio": stats.hit_ratio,
        "per_region": {name: (region.stats.count, region.stats.unavailable_reads)
                       for name, region in result.regions.items()},
    }


def _conservation_failures(config, outcome: dict) -> int:
    """Regions where ``count + unavailable != requests``."""
    expected = {spec.region: spec.clients * (config.workload.request_count
                                             - config.warmup_requests)
                for spec in config.regions}
    return sum(1 for name, (count, unavailable) in outcome["per_region"].items()
               if count + unavailable != expected[name])


def _timed_executions(config, seed: int, seconds: float):
    """Warm-up, then executions until ``seconds`` of them have been timed.

    The host's slowdown (``hostspeed``) is sampled before each build and
    after each execution; their mean scales that execution's figures.
    """
    setups, walls, slowdowns, failures = [], [], [], []
    reference = None
    measured = 0.0
    while True:
        before = hostspeed.slowdown()
        began = time.perf_counter()
        engine, deployment = _build(config, seed)
        setup = time.perf_counter() - began
        # Start each execution from a collected heap, so no execution pays
        # for garbage an earlier one left behind.
        gc.collect()
        began = time.perf_counter()
        result = engine.execute(deployment, seed)
        wall = time.perf_counter() - began
        slowdown = (before + hostspeed.slowdown()) / 2
        setups.append(setup / slowdown)
        outcome = _outcome(config, result)
        failures.append(_conservation_failures(config, outcome)
                        + outcome["unavailable"])
        if reference is None:
            reference = outcome
            continue
        if outcome != reference:
            failures[-1] += 1
        walls.append(wall)
        slowdowns.append(slowdown)
        measured += wall
        if (len(walls) >= 2 and measured >= seconds) or len(walls) >= MAX_EXECUTIONS:
            return reference, setups, walls, slowdowns, failures


def run(workload, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The untraced run: the end-to-end metrics."""
    config = workload.config(seed, smoke)
    reference, setups, walls, slowdowns, failures = _timed_executions(
        config, seed, seconds)
    reads = reference["reads"]
    raw = [reads / wall for wall in walls]
    rates = [rate * slowdown for rate, slowdown in zip(raw, slowdowns)]
    return {
        "metrics": {
            "setup_s": (statistics.median(setups), len(setups)),
            "rps": (statistics.median(rates), len(rates)),
            "p50_ms": (reference["p50_ms"], reads),
            "p99_ms": (reference["p99_ms"], reads),
            "model_read_ms": (reference["mean_ms"], reads),
            "hit_ratio": (reference["hit_ratio"], reads),
        },
        "extra": {
            "raw_rps": (statistics.median(raw), "1/s", len(raw)),
            "host_slowdown": (statistics.median(slowdowns), "ratio",
                              len(slowdowns)),
        },
        "attempted": reads * len(failures),
        "failed": sum(failures),
        "notes": [
            f"{len(failures)} executions of {reads} simulated reads "
            f"(1 warm-up + {len(walls)} timed), all identical: "
            f"{'yes' if sum(failures) == 0 else 'NO'}",
            f"degraded reads {reference['degraded']}, unavailable "
            f"{reference['unavailable']}, retries {reference['retries']}, "
            f"hedged {reference['hedged']}",
            "setup_s and rps are scaled to the reference host speed "
            "(hostspeed.py); raw_rps is unscaled",
        ],
    }


def _instrumented(config, seed: int, tracer: Tracer):
    engine, deployment = _build(config, seed)
    tracer.patch_method(engine, "execute", "engine.execute")
    for strategy in deployment.strategies:
        layers.instrument_strategy(tracer, strategy)
    layers.instrument_latency(tracer, engine.topology.latency)
    layers.instrument_solver(tracer)
    return engine, deployment


def _cache_totals(deployment) -> dict[str, int]:
    totals: dict[str, int] = {}
    for strategy in deployment.strategies:
        for name, value in layers.cache_counters(strategy).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _execution(config, seed: int, wrappers: int) -> dict:
    """One execution on a fresh deployment, traced ``wrappers`` times deep.

    0 is untraced, 1 traced, 2 traced with a probe layer on top.
    """
    tracer = Tracer()
    try:
        if wrappers:
            engine, deployment = _instrumented(config, seed, tracer)
        else:
            engine, deployment = _build(config, seed)
        if wrappers == 2:
            tracer.add_probe_layer()
        before = _cache_totals(deployment)
        gc.collect()
        began = time.perf_counter()
        result = engine.execute(deployment, seed)
        wall = time.perf_counter() - began
        spans = tracer.take()
    finally:
        tracer.unpatch()
    return {"wall": wall, "spans": spans,
            "cache": layers.counter_delta(_cache_totals(deployment), before),
            "outcome": _outcome(config, result)}


def run_traced(workload, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The traced run: per-layer metrics and the attribution table.

    After a warm-up execution, untraced, traced and probe executions take
    turns, ``ROUNDS`` times.  A probe execution wraps every traced entry
    point twice; its extra wall time over the traced execution next to it,
    per extra span, is what one span costs in place (the median over rounds).
    The round whose traced execution was fastest gives the spans and the
    untraced reference: noise on a shared host only ever adds time.
    """
    config = workload.config(seed, smoke)
    warm_up = _execution(config, seed, 0)
    rounds = [[_execution(config, seed, wrappers) for wrappers in (0, 1, 2)]
              for _round in range(ROUNDS)]
    reference = warm_up["outcome"]
    failures = [_conservation_failures(config, run["outcome"])
                + run["outcome"]["unavailable"]
                + int(run["outcome"] != reference)
                for run in [warm_up, *(run for trio in rounds for run in trio)]]
    # The span cost from each round's neighbouring traced and probe
    # executions; the round with the fastest traced execution for the rest.
    per_span_s = statistics.median(
        (probed["wall"] - traced["wall"]) / probed["spans"].count(PROBE)
        for _untraced, traced, probed in rounds)
    untraced, traced, _probed = min(rounds, key=lambda trio: trio[1]["wall"])

    overhead = calibrate().scaled_to(per_span_s)
    summary = SpanSummary.of(traced["spans"], overhead)
    outcome = traced["outcome"]
    reads = outcome["reads"]
    metrics = layers.stack_metrics(summary, traced["spans"], reads,
                                   traced["cache"])
    engine_self = summary.self_s("engine.execute")
    metrics.update({
        "engine.self_us_per_read": engine_self / reads * 1e6,
        "engine.degraded_per_read": outcome["degraded"] / reads,
        "resilience.retries_per_read": outcome["retries"] / reads,
        "resilience.hedges_per_read": outcome["hedged"] / reads,
        "trace.overhead": untraced["wall"] / traced["wall"],
    })
    rows = [("engine.execute (self)", engine_self / reads * 1e6)]
    rows += layers.layer_rows(summary, layers.STACK_ROWS, reads)
    return {
        "metrics": metrics,
        "attempted": reads * len(failures),
        "failed": sum(failures),
        "table": {
            "title": f"{workload.name}: microseconds per simulated read "
                     f"({reads} reads, fastest of {ROUNDS} traced executions)",
            "rows": rows,
            "residual": None,
            "reference_label": "untraced execute wall time",
            "reference_us": untraced["wall"] / reads * 1e6,
            "traced_us": traced["wall"] / reads * 1e6,
            "spans": summary.spans,
            "overhead": overhead,
        },
        "spans": traced["spans"],
    }
