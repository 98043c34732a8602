"""The wire workload: one gateway child process, load from this process.

A run has four parts after the gateway is up:

1. warm-up: closed-loop GETs, untimed, so caches fill and the knapsack has
   solved at least twice;
2. closed loop: ``run_wire_load`` batches on two connections, 64 in flight
   each, for 20% of ``--seconds`` — the saturated GET rate and the gateway's
   CPU time per GET;
3. open loop: Poisson GETs at the workload's fixed offered rate for the other
   80%, in ``OPEN_PARTS`` windows — GET latency from each request's
   scheduled send time;
4. the correctness pass: GET every object and compare each body byte for
   byte with an identically populated reference store, or with the last
   acknowledged PUT payload.

A PUT sender on its own connection runs at a fixed rate through parts 2
and 3.

The host's slowdown (``hostspeed``) is sampled in the gateway process around
its set-up builds and around every window, while no request is in flight.
The set-up time, the gateway's GETs per CPU-second and the open-loop p99
are scaled by it.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro.serve.loadgen as loadgen
from repro.backend.object_store import ErasureCodedStore
from repro.client.stats import LatencyStats
from repro.geo.topology import default_topology
from repro.serve.loadgen import WireLoadSpec, run_wire_load
from repro.workload.workload import ArrivalSpec, generate_request_ranks

from tracing import SpanSummary, Tracer, WrapperOverhead, calibrate

HERE = Path(__file__).resolve().parent
CHILD = HERE / "gateway_child.py"
REGION = "frankfurt"
BATCH_GETS = 4096
CLOSED_CONNECTIONS = 2
PIPELINE_DEPTH = 64
VERIFY_DEPTH = 32
SETUPS = 9
#: Stream tags keeping the phases' request streams apart.
WARMUP, CLOSED, OPEN, PUTS = range(4)
PHASE_TIMEOUT_S = 120.0
#: Rounds of untraced, traced and probed windows in the traced run.
ROUNDS = 4
#: At most this many slices of the open loop give the reported p99, each
#: holding at least ``SLICE_GETS`` GETs (ten beyond its p99).
OPEN_SLICES = 64
SLICE_GETS = 1500
#: The open loop runs as this many windows, so the host's slowdown is
#: sampled between them and scales each one's figures.
OPEN_PARTS = 4


class GatewayProcess:
    """The child process serving one workload's gateway."""

    def __init__(self, workload, seed: int, trace: bool,
                 span_file: Path | None = None) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(CHILD)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=str(HERE.parent))
        try:
            self._send({"workload": workload.name, "seed": seed,
                        "trace": trace, "setups": SETUPS,
                        "span_file": str(span_file) if span_file else None})
            self.ready = self._receive()
        except BaseException:
            self.close()
            raise
        self.pid = self.ready["pid"]
        self.address = (self.ready["host"], self.ready["port"])

    def _send(self, message: dict) -> None:
        self._process.stdin.write(json.dumps(message) + "\n")
        self._process.stdin.flush()

    def _receive(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("gateway process exited "
                               f"(code {self._process.poll()})")
        return json.loads(line)

    def command(self, cmd: str, **fields) -> dict:
        self._send({"cmd": cmd, **fields})
        return self._receive()

    def cpu_s(self) -> float:
        """The child's CPU time from the OS, in nanoseconds' resolution.

        ``/proc/<pid>/schedstat`` counts the main thread, which runs the event
        loop; the only other thread sleeps on the command pipe.
        """
        with open(f"/proc/{self.pid}/schedstat", encoding="ascii") as stat:
            return int(stat.read().split()[0]) / 1e9

    def close(self) -> None:
        """Ask the child to stop; kill it if it does not, and reap it."""
        process = self._process
        if process.poll() is None:
            try:
                self._send({"cmd": "stop"})
                process.stdin.close()
                process.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                process.kill()
                process.wait(timeout=30)
        process.stdout.close()

    def __enter__(self) -> "GatewayProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ResponseTap:
    """Reads the decision headers off every response the generator parses."""

    def __init__(self) -> None:
        self.model_ms = 0.0
        self.responses = 0
        self.bodies: Counter = Counter()
        self._original = None

    def __enter__(self) -> "ResponseTap":
        original = self._original = loadgen.parse_response

        def tapped(buffer, offset=0):
            parsed = original(buffer, offset)
            if parsed is not None:
                headers = parsed[0][1]
                model = headers.get("x-agar-model-ms")
                if model is not None:
                    self.model_ms += float(model)
                    self.responses += 1
                self.bodies[headers.get("x-agar-body", "none")] += 1
            return parsed

        loadgen.parse_response = tapped
        return self

    def __exit__(self, *exc) -> None:
        loadgen.parse_response = self._original


def _get_request(key: str) -> bytes:
    return f"GET /objects/{key} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()


def _put_request(key: str, body: bytes) -> bytes:
    return (f"PUT /objects/{key} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


async def _read_response(reader) -> tuple[int, dict, bytes]:
    """One HTTP/1.1 response, parsed here rather than by the program."""
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


class PutStream:
    """Same-size PUTs on keys drawn from the workload's Zipf stream."""

    def __init__(self, spec, seed: int) -> None:
        ranks = generate_request_ranks(replace(spec, request_count=8192),
                                       seed=seed * 10 + PUTS)
        self._keys = [spec.key_for_rank(int(rank)) for rank in ranks]
        self._size = spec.object_size
        self._rng = np.random.default_rng((seed, PUTS))
        self._position = 0
        self.acked: dict[str, bytes] = {}
        self.latencies_ms: list[float] = []
        self.sent = 0
        self.failed = 0

    def next(self) -> tuple[str, bytes]:
        key = self._keys[self._position % len(self._keys)]
        self._position += 1
        return key, self._rng.integers(0, 256, self._size, dtype=np.uint8).tobytes()

    async def run(self, address, rate_rps: float, stop: asyncio.Event) -> None:
        """Send Poisson-paced PUTs until ``stop``; wait for every answer."""
        reader, writer = await asyncio.open_connection(*address)
        pending: deque = deque()
        perf = time.perf_counter

        async def receive() -> None:
            while True:
                status, _headers, _body = await _read_response(reader)
                due, key, payload = pending.popleft()
                self.latencies_ms.append((perf() - due) * 1000.0)
                if status in (201, 204):
                    self.acked[key] = payload
                else:
                    self.failed += 1

        receiver = asyncio.create_task(receive())
        due = perf()
        try:
            while not stop.is_set():
                due += self._rng.exponential(1.0 / rate_rps)
                delay = due - perf()
                if delay > 0:
                    try:
                        await asyncio.wait_for(stop.wait(), delay)
                        break
                    except asyncio.TimeoutError:
                        pass
                key, payload = self.next()
                pending.append((due, key, payload))
                writer.write(_put_request(key, payload))
                self.sent += 1
                await writer.drain()
            while pending and not receiver.done():
                await asyncio.sleep(0.001)
        finally:
            receiver.cancel()
            try:
                await receiver
            except asyncio.CancelledError:
                pass
            await _close(writer)
        if pending:
            raise RuntimeError(f"{len(pending)} PUTs were never answered")


async def _with_puts(address, puts: PutStream, rate: float, load):
    """Run the coroutine ``load`` with the PUT sender beside it."""
    stop = asyncio.Event()
    sender = asyncio.create_task(puts.run(address, rate, stop))
    try:
        return await load
    finally:
        stop.set()
        await sender


async def _closed_loop(address, workload, seed: int, phase: int,
                       seconds: float, smoke: bool) -> list:
    """``run_wire_load`` batches until ``seconds`` have passed."""
    results = []
    began = time.perf_counter()
    batch = BATCH_GETS // 8 if smoke else BATCH_GETS
    while not results or time.perf_counter() - began < seconds:
        spec = WireLoadSpec(
            workload=workload.requests(seed, batch),
            connections=CLOSED_CONNECTIONS,
            pipeline_depth=PIPELINE_DEPTH)
        stream_seed = (seed * 10 + phase) * 1000 + len(results)
        results.append((await run_wire_load({REGION: address}, spec,
                                            seed=stream_seed))[REGION])
    return results


async def _open_loop(address, workload, seed: int, seconds: float,
                     smoke: bool, part: int = 0):
    rate = workload.get_rate_rps / (4 if smoke else 1)
    spec = WireLoadSpec(
        workload=workload.requests(seed, max(int(rate * seconds), 1)),
        arrival=ArrivalSpec(process="poisson", rate_rps=rate),
        connections=1, pipeline_depth=PIPELINE_DEPTH)
    return (await run_wire_load({REGION: address}, spec,
                                seed=(seed * 10 + OPEN) * 1000 + part))[REGION], rate


def _phase(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, PHASE_TIMEOUT_S))


def _warm_up(gateway, workload, seed: int, smoke: bool) -> None:
    _phase(_closed_loop(gateway.address, workload, seed, WARMUP,
                        1.2 if smoke else 2.5, smoke))


def _verify(address, workload, seed: int,
            puts: PutStream) -> tuple[int, int]:
    """GET every object; (bodies checked, bodies wrong)."""
    spec = workload.workload(seed)
    keys = [spec.key_for_rank(rank) for rank in range(spec.object_count)]
    expected = expected_bodies(spec, keys, puts)

    async def fetch() -> int:
        reader, writer = await asyncio.open_connection(*address)
        wrong = 0
        try:
            for start in range(0, len(keys), VERIFY_DEPTH):
                batch = keys[start:start + VERIFY_DEPTH]
                writer.write(b"".join(_get_request(key) for key in batch))
                await writer.drain()
                for key in batch:
                    status, _headers, body = await _read_response(reader)
                    if status != 200 or body != expected[key]:
                        wrong += 1
        finally:
            await _close(writer)
        return wrong

    return len(keys), _phase(fetch())


def expected_bodies(spec, keys: list[str], puts: PutStream) -> dict:
    """Each key's bytes: the last acknowledged PUT, else the seeded original."""
    reference = ErasureCodedStore(default_topology(seed=0))
    reference.populate(object_count=spec.object_count,
                       object_size=spec.object_size,
                       key_prefix=spec.key_prefix, virtual=False, seed=spec.seed)
    return {key: puts.acked.get(key) or reference.get_object(key)
            for key in keys}


def _nearest_rank(values, percentile: float) -> float:
    """The nearest-rank percentile (the convention ``LatencyStats`` uses)."""
    ordered = np.sort(np.asarray(values))
    rank = max(int(np.ceil(percentile / 100 * len(ordered))) - 1, 0)
    return float(ordered[rank])


def _top_percentile(latencies_ms) -> tuple[str, float]:
    """The highest of p99/p95/p90/p50 with ten samples beyond it."""
    for percentile in (99, 95, 90, 50):
        if len(latencies_ms) * (100 - percentile) / 100 >= 10:
            return f"p{percentile}", _nearest_rank(latencies_ms, percentile)
    return "max", max(latencies_ms, default=0.0)


def _sliced_p99(latencies_ms) -> float:
    """The interquartile mean, over consecutive slices of the open loop, of
    each slice's p99.

    A slice holds ``SLICE_GETS`` GETs, two seconds at wire-agar's offered
    rate, so each holds about four of its knapsack solves.  One rare pause
    (a full garbage collection, a host hiccup) moves one slice's p99 and
    falls outside the middle half; a stall that recurs, such as the solve,
    lands in every slice.  The mean of the middle half varies less from run
    to run than their median did.
    """
    slices = max(min(OPEN_SLICES, len(latencies_ms) // SLICE_GETS), 1)
    values = sorted(_nearest_rank(part, 99)
                    for part in np.array_split(np.asarray(latencies_ms), slices))
    quarter = len(values) // 4
    return statistics.fmean(values[quarter:len(values) - quarter])


def _window(gateway, workload, seed: int, seconds: float, smoke: bool,
            puts: PutStream, open_loop: bool, part: int = 0) -> dict:
    """One load window, with the gateway's and this process's CPU time.

    Closed loop: ``run_wire_load`` batches for ``seconds``.  Open loop:
    Poisson GETs at the workload's offered rate for ``seconds``; ``part``
    tells an open-loop window's request stream apart from the others'.
    The host's slowdown is the mean of the gateway's samples just before
    and after.
    """
    gateway.command("gc")
    before = gateway.command("slowdown")["slowdown"]
    child_cpu, own_cpu = gateway.cpu_s(), time.process_time()
    began = time.perf_counter()
    if open_loop:
        load = _open_loop(gateway.address, workload, seed, seconds, smoke,
                          part)
    else:
        load = _closed_loop(gateway.address, workload, seed, CLOSED, seconds,
                            smoke)
    outcome = _phase(_with_puts(gateway.address, puts,
                                _put_rate(workload, smoke), load))
    wall = time.perf_counter() - began
    child_cpu = gateway.cpu_s() - child_cpu
    own_cpu = time.process_time() - own_cpu
    slowdown = (before + gateway.command("slowdown")["slowdown"]) / 2
    if open_loop:
        result, rate = outcome
        results = [result]
    else:
        results, rate = outcome, None
    gets = sum(result.requests for result in results)
    return {"results": results, "gets": gets, "rate": rate,
            "rps": gets / sum(result.duration_s for result in results),
            "cpu_us_per_get": child_cpu / gets * 1e6,
            "loadgen_cpu_share": own_cpu / wall, "slowdown": slowdown}


def _put_rate(workload, smoke: bool) -> float:
    return workload.put_rate_rps / (4 if smoke else 1)


def _failures(results) -> tuple[int, int]:
    """(attempted, failed) GETs of ``run_wire_load`` results."""
    attempted = sum(result.requests for result in results)
    # Error statuses, 503s and lost responses are all missing from count.
    return attempted, attempted - sum(result.stats.count for result in results)


def run(workload, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The untraced run: the end-to-end metrics.

    ``setup_s``, ``rps`` and ``p99_ms`` are scaled to the reference host's
    speed: the gateway's GETs per CPU-second are multiplied by its window's
    slowdown, and for ``p99_ms`` every open-loop latency is divided by it
    (the tail is the knapsack solve's CPU time).  ``p50_ms`` is not scaled:
    at this load it is mostly wake-up and loopback time, which does not
    follow the kernel, and scaling it made it spread more.
    """
    spec = workload.workload(seed)
    puts = PutStream(spec, seed)
    tap = ResponseTap()
    with GatewayProcess(workload, seed, trace=False) as gateway:
        _warm_up(gateway, workload, seed, smoke)
        gateway.command("window")
        with tap:
            closed = _window(gateway, workload, seed, seconds * 0.2, smoke,
                             puts, open_loop=False)
            parts = [_window(gateway, workload, seed,
                             seconds * 0.8 / OPEN_PARTS, smoke, puts,
                             open_loop=True, part=part)
                     for part in range(OPEN_PARTS)]
        counters = gateway.command("collect")["counters"]
        checked, wrong = _verify(gateway.address, workload, seed, puts)
    opened = [part["results"][0] for part in parts]
    attempted, failed = _failures([*closed["results"], *opened])
    stats = LatencyStats.merge_all(
        [result.stats for result in [*closed["results"], *opened]])
    open_stats = LatencyStats.merge_all([result.stats for result in opened])
    open_gets = sum(part["gets"] for part in parts)
    raw_latencies = np.concatenate(
        [result.stats.latencies_array() for result in opened])
    latencies = np.concatenate(
        [result.stats.latencies_array() / part["slowdown"]
         for result, part in zip(opened, parts)])
    slowdowns = [part["slowdown"] for part in parts]
    setups = gateway.ready["setup_s"]
    rate = parts[0]["rate"]
    extra = {
        "closed_loop_rps": (closed["rps"], "1/s", closed["gets"]),
        "gateway_cpu_us_per_get_closed": (closed["cpu_us_per_get"], "us",
                                          closed["gets"]),
        "gateway_cpu_us_per_get_open": (
            statistics.median(part["cpu_us_per_get"] for part in parts),
            "us", open_gets),
        "loadgen_cpu_share": (closed["loadgen_cpu_share"], "ratio", 1),
        "open_offered_rps": (rate, "1/s", open_gets),
        "open_achieved_rps": (
            open_stats.count / sum(result.duration_s for result in opened),
            "1/s", open_stats.count),
        "open_p99_ms_whole": (open_stats.p99_latency_ms, "ms",
                              open_stats.count),
        "raw_p99_ms": (_sliced_p99(raw_latencies), "ms",
                       len(raw_latencies)),
        "raw_rps": (statistics.median(1e6 / part["cpu_us_per_get"]
                                      for part in parts), "1/s", open_gets),
        "host_slowdown": (statistics.median(slowdowns), "ratio",
                          len(slowdowns)),
        "reconfigurations": (counters["reconfigurations"], "count", 1),
    }
    label, value = _top_percentile(puts.latencies_ms)
    extra[f"put_{label}_ms"] = (value, "ms", len(puts.latencies_ms))
    attempted += puts.sent
    failed += puts.failed
    return {
        "metrics": {
            "setup_s": (statistics.median(setups), len(setups)),
            "rps": (statistics.median(1e6 / part["cpu_us_per_get"]
                                      * part["slowdown"] for part in parts),
                    open_gets),
            "p50_ms": (_nearest_rank(raw_latencies, 50), len(raw_latencies)),
            "p99_ms": (_sliced_p99(latencies), len(latencies)),
            "model_read_ms": (tap.model_ms / max(tap.responses, 1),
                              tap.responses),
            "hit_ratio": (stats.hit_ratio, stats.count),
        },
        "extra": extra,
        "attempted": attempted + checked,
        "failed": failed + wrong,
        "gateway_pid": gateway.pid,
        "notes": [
            f"closed loop: {len(closed['results'])} batches, "
            f"{closed['gets']} GETs; open loop: {open_gets} GETs in "
            f"{OPEN_PARTS} windows at {rate:g}/s offered",
            f"response bodies: {dict(tap.bodies)}; codec backend "
            f"{gateway.ready['codec_backend']}",
            f"correctness pass: {checked} bodies compared, {wrong} wrong",
            "setup_s, rps and p99_ms are scaled to the reference host speed "
            "(hostspeed.py); raw_rps and raw_p99_ms are not",
        ],
    }


def run_traced(workload, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The traced run: per-layer metrics and the attribution table.

    Two gateways run side by side, one untraced and one traced.  They serve
    open-loop windows at the workload's fixed rate in turn: untraced, traced,
    then traced with a probe layer (every traced entry point wrapped twice),
    ``ROUNDS`` times over.  At a fixed rate each GET arrives on its own, so
    the CPU time per GET does not shift with how many requests a slower
    gateway finds waiting.  A probe window's extra CPU time per GET over the
    traced window before it, per extra span, is what one span costs in place
    (the median over rounds).  The round with the cheapest traced window
    gives the spans and the untraced reference: noise on a shared host only
    adds time.  Then each gateway
    serves one closed-loop window (the tracing overhead on the saturated
    rate), and both pass the correctness check.
    """
    spec = workload.workload(seed)
    window_s = seconds / 8
    puts, traced_puts = PutStream(spec, seed), PutStream(spec, seed)
    span_file = HERE / "out" / f"{workload.name}-{seed}-gateway-spans.npz"
    tap = ResponseTap()
    tracer = Tracer()
    windows: dict[str, list] = {"untraced": [], "traced": [], "probed": []}
    with GatewayProcess(workload, seed, trace=False) as plain, \
            GatewayProcess(workload, seed, trace=True,
                           span_file=span_file) as gateway:
        _warm_up(plain, workload, seed, smoke)
        _warm_up(gateway, workload, seed, smoke)
        plain.command("window")
        for _round in range(ROUNDS):
            with tap:
                windows["untraced"].append(_window(
                    plain, workload, seed, window_s, smoke, puts, True))
            for kind, probe in (("traced", False), ("probed", True)):
                gateway.command("window", probe=probe)
                if not probe:
                    tracer.patch_module(loadgen, "parse_response",
                                        "loadgen.parse_response")
                try:
                    window = _window(gateway, workload, seed, window_s, smoke,
                                     traced_puts, True)
                finally:
                    tracer.unpatch()
                window["spans"] = tracer.take()
                window["child"] = gateway.command("collect")
                windows[kind].append(window)
        with tap:
            plain_closed = _window(plain, workload, seed, window_s, smoke,
                                   puts, False)
        counters = plain.command("collect")["counters"]
        gateway.command("window")
        traced_closed = _window(gateway, workload, seed, window_s, smoke,
                                traced_puts, False)
        gateway.command("collect")
        # The span cost from each round's neighbouring traced and probed
        # windows; the round with the cheapest traced window for the rest.
        per_span_s = statistics.median(
            (probed["cpu_us_per_get"] - traced["cpu_us_per_get"]) / 1e6
            / (probed["child"]["probes"] / probed["gets"])
            for traced, probed in zip(windows["traced"], windows["probed"]))
        best = min(range(ROUNDS),
                   key=lambda index: windows["traced"][index]["cpu_us_per_get"])
        untraced, traced = windows["untraced"][best], windows["traced"][best]
        layered = gateway.command("summarize", window=traced["child"]["kept"],
                                  per_span_s=per_span_s)
        checked, wrong = _verify(plain.address, workload, seed, puts)
        traced_checked, traced_wrong = _verify(gateway.address, workload, seed,
                                               traced_puts)

    everything = [plain_closed, traced_closed, *windows["untraced"],
                  *windows["traced"], *windows["probed"]]
    attempted, failed = _failures(
        [result for window in everything for result in window["results"]])
    attempted += checked + traced_checked
    failed += wrong + traced_wrong
    gets = traced["gets"]
    rows = [tuple(row) for row in layered["rows"]]
    overhead = WrapperOverhead(*layered["overhead"])
    # The traced CPU per GET less the wrappers' own cost is the untraced
    # cost estimate; what the rows leave of it is the unattributed residual.
    estimate = (traced["cpu_us_per_get"]
                - traced["child"]["spans"] / gets * overhead.total_s * 1e6)
    unattributed = estimate - sum(value for _label, value in rows)
    served = tap.bodies["cached"] + tap.bodies["decoded"]
    own = SpanSummary.of(traced["spans"], calibrate())
    open_result = untraced["results"][0]
    metrics = dict(layered["metrics"])
    metrics.update({
        "core.reconfigure_count": float(counters["reconfigurations"]),
        "gateway.cpu_us_per_get": untraced["cpu_us_per_get"],
        "gateway.unattributed_us": unattributed,
        "gateway.body_cache_hit_ratio":
            tap.bodies["cached"] / served if served else 0.0,
        "loadgen.parse_response_us":
            own.self_s("loadgen.parse_response") / gets * 1e6,
        "loadgen.cpu_share": plain_closed["loadgen_cpu_share"],
        "loadgen.offered_vs_achieved":
            open_result.throughput_rps / untraced["rate"],
        "trace.overhead": traced_closed["rps"] / plain_closed["rps"],
    })
    metrics["wire.put_p99_ms"] = _top_percentile(puts.latencies_ms)[1]
    attempted += puts.sent + traced_puts.sent
    failed += puts.failed + traced_puts.failed
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "gateway_pid": gateway.pid,
        "table": {
            "title": f"{workload.name}: gateway CPU microseconds per GET "
                     f"(open loop at {untraced['rate']:g}/s, {gets} traced "
                     "GETs)",
            "rows": rows,
            "residual": ("gateway.unattributed_us", unattributed),
            "reference_label": "untraced gateway CPU",
            "reference_us": untraced["cpu_us_per_get"],
            "traced_us": traced["cpu_us_per_get"],
            "spans": traced["child"]["spans"],
            "overhead": overhead,
        },
        "spans": traced["spans"],
        "notes": [
            f"untraced gateway pid {plain.pid}: {counters['reconfigurations']} "
            "reconfigurations over its measured windows",
            f"closed loop: {plain_closed['rps']:.0f} GET/s untraced, "
            f"{traced_closed['rps']:.0f} traced",
            f"correctness pass: {checked + traced_checked} bodies compared, "
            f"{wrong + traced_wrong} wrong",
        ],
    }
