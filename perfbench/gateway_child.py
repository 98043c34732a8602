"""The gateway process of a wire workload.

Started by ``wire_bench.GatewayProcess`` with pipes on stdin and stdout.  It
reads one JSON line of settings, builds the deployment with
``ServeCluster.from_config(..., payloads=True)`` several times (timing each
build and scaling it by the host's slowdown, sampled just before and after;
see ``hostspeed.py``; the last build serves), starts listening and answers
one JSON line per command line:

- ``{"cmd": "window", "probe": p}`` starts a measurement window: counters
  are snapshot and, when traced, the spans recorded so far are dropped;
  ``p`` wraps every traced entry point once more for the window, so its
  extra CPU time per extra span is the tracing cost in place;
- ``{"cmd": "collect"}`` ends it: counter deltas and span counts; a traced,
  unprobed window's spans are kept under the returned ``kept`` index;
- ``{"cmd": "gc"}`` runs a full garbage collection, so every timed phase
  starts at the same point of the collector's cycle (a full collection of
  a 16,384-object gateway heap pauses the loop for over 100 ms);
- ``{"cmd": "slowdown"}`` samples the host's slowdown in this process,
  which runs the event loop; the benchmark asks only between windows,
  while no request is in flight;
- ``{"cmd": "summarize", "window": i, "per_span_s": x}`` returns kept window
  ``i``'s per-layer metrics and attribution rows with ``x`` per span taken
  out;
- ``{"cmd": "stop"}`` (or end of input) stops the cluster, writes the
  summarized window's spans out and exits.

With ``"trace": true`` the process wraps the gateway module's names before
the cluster is built, and the methods the strategy, store, codec, Agar node,
cache and latency-model instances call right after (on their classes; see
``tracing.Tracer.patch_method``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.serve.gateway as gateway_module  # noqa: E402
from repro.serve.gateway import ServeCluster  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracing import PROBE, SpanSummary, Spans, Tracer, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class Served:
    """The serving cluster plus what the benchmark reads from it."""

    def __init__(self, cluster: ServeCluster, tracer: Tracer | None) -> None:
        self.cluster = cluster
        self.gateway = next(iter(cluster.gateways.values()))
        self.tracer = tracer
        self.calibrated = calibrate() if tracer is not None else None
        #: Spans and counter deltas of every traced (non-probe) window.
        self.kept: list[tuple[Spans, dict]] = []
        self.chosen: Spans | None = None
        self._start: dict = {}

    def counters(self) -> dict:
        gateway = self.gateway
        node = getattr(gateway.strategy, "node", None)
        return {
            "requests": gateway.requests_total,
            "puts": gateway.puts_total,
            "errors": gateway.errors_total,
            "reconfigurations": (len(node.reconfiguration_history())
                                 if node is not None else 0),
            **layers.cache_counters(gateway.strategy),
        }

    def window(self, probe: bool = False) -> dict:
        """Start a window: snapshot the counters, drop earlier spans.

        ``probe`` wraps every traced entry point once more for this window.
        """
        if self.tracer is not None:
            if probe:
                self.tracer.add_probe_layer()
            else:
                self.tracer.remove_probe_layer()
            self.tracer.take()
        self._start = self.counters()
        return {}

    def collect(self) -> dict:
        """End a window: counter deltas; the spans are kept for ``summarize``."""
        delta = layers.counter_delta(self.counters(), self._start)
        reply = {"counters": delta}
        if self.tracer is not None:
            spans = self.tracer.take()
            reply["spans"] = len(spans.name_id)
            reply["probes"] = spans.count(PROBE)
            if not reply["probes"]:
                reply["kept"] = len(self.kept)
                self.kept.append((spans, delta))
        return reply

    def summarize(self, window: int, per_span_s: float) -> dict:
        """Per-layer metrics of a kept window, at the measured span cost."""
        overhead = self.calibrated.scaled_to(per_span_s)
        spans, delta = self.kept[window]
        self.chosen = spans
        summary = SpanSummary.of(spans, overhead)
        gets = delta["requests"] - delta["puts"]
        cache = {name: delta[name] for name in ("hits", "misses", "evictions")}
        metrics = layers.stack_metrics(summary, spans, gets, cache)
        per_get = 1.0 / gets
        metrics.update({
            "erasure.decodes_per_get": summary.calls("erasure.decode") * per_get,
            "erasure.decode_us": summary.mean_us("erasure.decode"),
            "erasure.encode_us": summary.mean_us("erasure.encode"),
            "store.get_chunks_us": summary.mean_us("store.get_chunks"),
            "store.put_us": summary.mean_us("store.put"),
            "protocol.parse_request_us": summary.mean_us("protocol.parse_request"),
            "protocol.build_response_us": summary.mean_us("protocol.build_response"),
            "ledger.read_entry_us": summary.mean_us("ledger.read_entry"),
            "gateway.loop_stall_max_ms": summary.top_level_max_ms(),
        })
        return {"metrics": metrics,
                "rows": layers.layer_rows(summary, layers.GATEWAY_ROWS, gets),
                "overhead": [overhead.inside_s, overhead.outside_s]}


def _build(settings: dict) -> tuple[ServeCluster, list[float]]:
    workload = WORKLOADS[settings["workload"]]
    config = workload.config(settings["seed"])
    setups = []
    cluster = None
    for _ in range(settings["setups"]):
        cluster = None  # release the previous build before the next one
        before = hostspeed.slowdown()
        began = time.perf_counter()
        # seed=0: the same jitter stream, warm-up probes and deployment for
        # every run (see workloads.py); the payloads and the load carry the
        # run's seed.
        cluster = ServeCluster.from_config(config, seed=0, payloads=True)
        setup = time.perf_counter() - began
        setups.append(setup / ((before + hostspeed.slowdown()) / 2))
    return cluster, setups


def _read_commands(loop, queue: asyncio.Queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, json.loads(line))
    loop.call_soon_threadsafe(queue.put_nowait, {"cmd": "stop"})


async def _serve(served: Served, setups: list[float], settings: dict) -> None:
    cluster = served.cluster
    await cluster.start()
    host, port = next(iter(cluster.addresses.values()))
    queue: asyncio.Queue = asyncio.Queue()
    threading.Thread(target=_read_commands,
                     args=(asyncio.get_running_loop(), queue),
                     daemon=True).start()
    store = cluster.deployment.store
    _reply({"ready": True, "host": host, "port": port, "pid": os.getpid(),
            "setup_s": setups, "codec_backend": store.codec.backend_name})
    try:
        while True:
            message = await queue.get()
            command = message["cmd"]
            if command == "stop":
                break
            if command == "window":
                _reply(served.window(message.get("probe", False)))
            elif command == "collect":
                _reply(served.collect())
            elif command == "slowdown":
                _reply({"slowdown": hostspeed.slowdown()})
            elif command == "gc":
                gc.collect()
                _reply({})
            elif command == "summarize":
                _reply(served.summarize(message["window"],
                                        message["per_span_s"]))
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        await cluster.stop()
        # Let connection handlers finish closing before the loop shuts down.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=1.0)
    if served.chosen is not None and settings.get("span_file"):
        served.chosen.write(Path(settings["span_file"]))
    _reply({"stopped": True})


def main() -> None:
    settings = json.loads(sys.stdin.readline())
    tracer = None
    if settings["trace"]:
        tracer = Tracer()
        layers.instrument_gateway_module(tracer, gateway_module)
        layers.instrument_solver(tracer)
    cluster, setups = _build(settings)
    if tracer is not None:
        for gateway in cluster.gateways.values():
            layers.instrument_strategy(tracer, gateway.strategy)
        store = cluster.deployment.store
        layers.instrument_store(tracer, store)
        layers.instrument_latency(tracer, store.topology.latency)
    asyncio.run(_serve(Served(cluster, tracer), setups, settings))


if __name__ == "__main__":
    main()
