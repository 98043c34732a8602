"""The benchmark's three workloads: deployment shapes and load settings.

Every input is derived from the run's ``--seed``: the object payloads, the
Zipf request streams and the PUT payloads.  The program under test receives
only those generated inputs.  The deployment itself is the same for every
seed: the calibrated six-region topology (``topology_seed`` 0), the shapes
below, and the latency-model jitter stream the deployment starts from.  The
Region Manager ranks regions by warm-up probes drawn from that stream, and
some streams rank two regions the other way round, which moves the modelled
read latency by 38% — a different deployment, not a different input.

``smoke=True`` shrinks the engine shapes (and ``wire_bench`` the wire load)
so the benchmark's own tests run every workload through the same code in a
few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.core.agar_node import AgarNodeConfig
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.workload.workload import WorkloadSpec, zipfian_workload

KIB = 1024
MIB = 1024 * KIB

#: Offered rate of the open-loop phase.  With a knapsack solve every 0.5 s
#: it keeps the gateway under half busy even when the shared reference host
#: (2 vCPU, Python 3.11, numpy backend; see README.md) runs at half its
#: usual speed, which it did for minutes at a time; at higher load the
#: open-loop tail followed the host's speed rather than the program (at
#: 1,500/s its p99 spread 0.38 of its median over ten seeds).
WIRE_AGAR_GET_RATE_RPS = 750.0
#: PUTs on a second connection: enough for a p99 over at least 1,000 PUTs in
#: a 30 s run, and every PUT retires a body-cache slot, so the codec and the store
#: are exercised on the wire.
WIRE_AGAR_PUT_RATE_RPS = 50.0


@dataclass(frozen=True)
class EngineWorkload:
    """An in-process ``EventEngine.execute`` workload."""

    name: str
    why: str
    regions: tuple[str, str]
    clients: int
    requests_per_client: int
    outage: bool = False

    def config(self, seed: int, smoke: bool = False) -> EngineConfig:
        clients = 8 if smoke else self.clients
        requests = 60 if smoke else self.requests_per_client
        workload = zipfian_workload(1.1, request_count=requests,
                                    object_count=300, seed=seed)
        client = ClientConfig()
        faults = None
        if self.outage:
            # The gated hedged-faulted shape: retries, hedging and an
            # emergency re-solve when sao_paulo (inside the nearest-9 plan
            # of both regions) goes down for the middle of the run.
            client = ClientConfig(resilience=ResilienceConfig(
                retry_budget=1, timeout_factor=1.1, backoff_base_ms=4.0,
                hedge=True, hedge_quantile=0.7, hedge_min_samples=8,
                emergency_reconfiguration=True))
            middle = requests * 0.9  # simulated seconds (a read takes ≈0.9–1 s)
            faults = FaultSchedule([RegionOutage(
                "sao_paulo", start_s=middle * 0.3, end_s=middle * 0.7)])
        return EngineConfig(
            workload=workload,
            regions=tuple(RegionSpec(region=region, clients=clients)
                          for region in self.regions),
            cache_capacity_bytes=10 * MIB,
            client=client,
            faults=faults,
        )


@dataclass(frozen=True)
class WireWorkload:
    """One gateway in a child process, driven over loopback sockets."""

    name: str
    why: str
    strategy: str
    objects: int
    skew: float
    cache_bytes: int
    get_rate_rps: float
    put_rate_rps: float
    reconfiguration_period_s: float

    def workload(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(name=f"zipf-{self.skew:g}",
                            object_count=self.objects, object_size=4 * KIB,
                            request_count=0, skew=self.skew, seed=seed)

    def config(self, seed: int) -> EngineConfig:
        # One closed-loop client: the legacy shape, so the Agar node's
        # period check rides on the read path (nothing else ticks it).
        return EngineConfig(
            workload=self.workload(seed),
            regions=(RegionSpec(region="frankfurt", clients=1,
                                strategy=self.strategy),),
            cache_capacity_bytes=self.cache_bytes,
            agar=AgarNodeConfig(
                reconfiguration_period_s=self.reconfiguration_period_s),
        )

    def requests(self, seed: int, count: int) -> WorkloadSpec:
        return replace(self.workload(seed), request_count=count)


WORKLOADS = {
    workload.name: workload for workload in (
        EngineWorkload(
            name="engine-agar",
            why="the paper's Fig. 6 shape scaled out: 2 regions x 256 "
                "closed-loop clients, Zipf 1.1 over 300 x 1 MB objects, "
                "10 MB Agar cache, 30 s period",
            regions=("frankfurt", "sydney"),
            clients=256,
            requests_per_client=200,
        ),
        EngineWorkload(
            name="engine-outage",
            why="the Agar shape with a mid-run sao_paulo outage and retries, "
                "hedging and emergency re-solves: the degraded, resilient "
                "read path",
            regions=("frankfurt", "dublin"),
            clients=256,
            requests_per_client=50,
            outage=True,
        ),
        WireWorkload(
            name="wire-agar",
            why="one agar gateway, 300 x 4 KiB objects, Zipf 1.1, 40 KiB "
                "cache re-solved every 0.5 s, PUTs on hot keys: HTTP path, "
                "knapsack stalls, codec and store",
            strategy="agar",
            objects=300,
            skew=1.1,
            cache_bytes=40 * KIB,
            get_rate_rps=WIRE_AGAR_GET_RATE_RPS,
            put_rate_rps=WIRE_AGAR_PUT_RATE_RPS,
            reconfiguration_period_s=0.5,
        ),
    )
}
