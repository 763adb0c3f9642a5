"""The three workloads: ``setup``, ``soak`` and ``query``.

Each drives the program only through its public API and leaves every
number the program reports about itself (protocol-time latencies,
delivery ratios) to the correctness checks. Sizes are fixed here, not
options: a run differs from another only by its seed and its length.
Import this module after :func:`perfbench.harness.ensure_program`; the
program is imported here, before any set-up is timed.
"""

from __future__ import annotations

import gc
import http.client
import json
import time

import numpy as np

from repro.crypto.stats import STATS
from repro.gateway.api import GatewayApp, GatewayHttpServer
from repro.gateway.store import GatewayStateStore
from repro.protocol.agent import ProtocolError
from repro.protocol.aggregation import encode_reading
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import run_key_setup
from repro.runtime.cluster import LiveNetwork, build_transport
from repro.runtime.faults import FaultInjectingTransport, FaultPlan, LinkFaults
from repro.sim.network import Network
from repro.sim.rng import RngManager
from repro.sim.topology import Deployment
from repro.workloads.streams import default_node_stream

from perfbench.checks import StoreModel, check_key_setup, check_soak_deliveries
from perfbench.harness import RoundResult, check
from perfbench.tracing import PROGRAM_COUNTERS

#: Mean node degree of every deployment (the paper's Figs. 6-9 use 10).
DENSITY = 10.0

#: Seed of the one field (node positions) the soak and query workloads
#: deploy on. Forwarding cost per reading follows the shape of the field
#: (hop depth, downhill fan-out): over random fields at n=400 readings/s
#: spread by a fifth from seed to seed, which would bury any change to
#: the program. The run's seed still draws keys, election timers, faults
#: and readings.
FIELD = 7


def deploy(n: int, seed: int, layers: dict, config=None, fault_plan=None, field=None):
    """One loopback deployment through key setup, timed per layer.

    The same steps as ``repro.runtime.deploy_live``, spelled out so the
    topology build and the key setup are timed apart; the two times are
    appended to ``layers["topology"]`` and ``layers["key_setup"]``.
    ``field`` fixes the node positions to those drawn from that seed,
    leaving ``seed`` to draw keys and election timers; without it,
    ``seed`` draws the positions too (``Network.build``).
    """
    start = time.perf_counter()
    if field is None:
        network = Network.build(n, DENSITY, seed=seed)
    else:
        positions = RngManager(field).stream("deployment")
        network = Network(Deployment.random_uniform(n, DENSITY, positions), seed=seed)
    built = time.perf_counter()
    fabric = build_transport("loopback", network)
    if fault_plan is not None:
        fabric = FaultInjectingTransport(fabric, fault_plan)
    deployed, _metrics = run_key_setup(LiveNetwork(network, fabric), config)
    done = time.perf_counter()
    layers["topology"].append(built - start)
    layers["key_setup"].append(done - built)
    return deployed


def behaviour(deployed) -> dict:
    """Behaviour counters of one deployment (exact, seed-determined)."""
    counters = deployed.network.trace.counters
    return {
        "clusters": len({a.state.cid for a in deployed.agents.values()}),
        "frames_sent": counters["net.frames_sent"],
        "retransmits": counters["net.retx.sent"],
        "dedup_hits": counters["forward.dedup_hit"],
        "acks": counters["tx.ack"],
        "bs_delivered": deployed.bs_agent.delivered_total,
    }


def program_counters(deployed) -> dict:
    """The program's own counters the traced run reads around a round."""
    counters = deployed.network.trace.counters
    transport = deployed.network.transport
    fabric = getattr(transport, "inner", transport)
    return {
        "crypto.opens": STATS.opens,
        "net.frames_sent": counters["net.frames_sent"],
        "net.retx.acked": counters["net.retx.acked"],
        "forwarded": sum(a.forwarded_count for a in deployed.agents.values()),
        "faults.injected": sum(v for k, v in counters.items() if k.startswith("fault.")),
        "loopback.deliveries": fabric.frames_delivered,
    }


def sub_seed(seed: int, index: int) -> int:
    """Deployment seed of the ``index``-th deployment of a run.

    Every deployment in a run is distinct, so no key-derivation cache
    entry made by one deployment is hit by the next.
    """
    return seed * 1000 + index


class _Workload:
    name = ""
    #: Untimed rounds before the timed ones (see ``harness.measure``).
    WARMUP_ROUNDS = 1
    #: Timed rounds after which peak RSS is read.
    RSS_ROUNDS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: The traced run's :class:`~perfbench.tracing.Tracer`, if any.
        self.tracer = None
        self.setup_layers: dict[str, list[float]] = {"topology": [], "key_setup": []}
        self._setup_times: list[float] = []
        self._counters: dict = {}

    def setup_times(self) -> list[float]:
        """Wall seconds of each set-up the run made."""
        return self._setup_times

    def counters(self) -> dict:
        """Behaviour counters for the run report (repeat per seed)."""
        return self._counters

    def finish(self) -> int:
        """End-of-run work and checks; returns operations that failed."""
        return 0

    def close(self) -> None:
        """Release what the workload started; safe to call twice."""


class SetupWorkload(_Workload):
    """Fresh paper-scale key setups, one per round (Sec. IV-B).

    A round is one deployment of ``N`` sensors at density 10 on a clean
    loopback fabric through ``Network.build`` and ``run_key_setup``; its
    latency is the operation's latency, and ``setup_s`` is their median.
    """

    name = "setup"
    N = 2500

    def __init__(self, seed: int, n: int = N) -> None:
        super().__init__(seed)
        self.n = n
        self._totals: dict[str, int] = {}

    def prepare(self) -> None:
        """Nothing to set up ahead: every round is one set-up."""

    def run_round(self) -> RoundResult:
        """Deploy and key one fresh network; check it untimed."""
        # Layer times of traced rounds would carry the wrappers' cost.
        traced = self.tracer is not None and self.tracer.installed
        layers = {"topology": [], "key_setup": []} if traced else self.setup_layers
        gc.collect()
        start = time.perf_counter()
        deployed = deploy(self.n, sub_seed(self.seed, len(self._setup_times)), layers)
        elapsed = time.perf_counter() - start
        self._setup_times.append(elapsed)
        counts = check_key_setup(deployed)
        if not self._counters:
            self._counters = {"round1": {**behaviour(deployed), **counts}}
        for key, value in program_counters(deployed).items():
            if key == "crypto.opens":
                self._totals[key] = value
            else:
                self._totals[key] = self._totals.get(key, 0) + value
        return RoundResult([elapsed], 1, busy_s=elapsed)

    def program_counters(self) -> dict:
        """Counter totals over every deployment so far."""
        totals = {key: self._totals.get(key, 0) for key in PROGRAM_COUNTERS}
        totals["crypto.opens"] = STATS.opens
        return totals


class SoakWorkload(_Workload):
    """Sustained forwarding under duplication and reordering.

    ``N`` sensors with custody ACKs on, behind a fault plan that
    duplicates and reorders 5% of deliveries each and drops none. Each
    round offers ``LOAD`` readings over one protocol second, round-robin
    over the routable sources in a seeded order, and runs the clock
    through that second; in-flight readings carry over, so consecutive
    rounds are one steady stream. An operation is one reading, from offer
    to acceptance at the base station, timed on the wall clock.
    """

    name = "soak"
    #: Readings offered in the first two rounds fill the forwarding path.
    WARMUP_ROUNDS = 2
    N = 400
    LOAD = 100
    SETUPS = 9
    SETTLE_S = 5.0
    FAULT_RATE = 0.05

    def __init__(self, seed: int, n: int = N) -> None:
        super().__init__(seed)
        self.n = n
        self.deployed = None
        self._offered: dict[tuple[int, bytes], float] = {}
        self._accepted: list[tuple[int, bytes]] = []
        self._latencies: list[float] = []
        self._next = 0

    def _deploy(self, index: int):
        seed = sub_seed(self.seed, index)
        plan = FaultPlan(
            seed=seed,
            defaults=LinkFaults(duplicate=self.FAULT_RATE, reorder=self.FAULT_RATE),
        )
        config = ProtocolConfig(hop_ack_enabled=True)
        return deploy(self.n, seed, self.setup_layers, config, plan, field=FIELD)

    def prepare(self) -> None:
        """Deploy ``SETUPS`` times (timed apart); keep the last one."""
        for index in range(self.SETUPS):
            self.deployed = None
            gc.collect()
            start = time.perf_counter()
            deployed = self._deploy(index)
            checked = time.perf_counter()
            check_key_setup(deployed)
            resumed = time.perf_counter()
            sources = [
                nid
                for nid, agent in sorted(deployed.agents.items())
                if agent.state.hops_to_bs > 0
            ]
            # A seeded order, so every round's LOAD consecutive sources
            # are a random sample of the field, not one corner of it.
            np.random.default_rng(self.seed).shuffle(sources)
            check(bool(sources), "no routable source to offer readings from")
            deployed.bs_agent.add_delivery_listener(self._on_delivery)
            self._setup_times.append(time.perf_counter() - resumed + checked - start)
            self.deployed = deployed
        self.sources = sources
        self.streams = {nid: default_node_stream(self.seed, nid) for nid in sources}
        self._counters = {"setup": behaviour(self.deployed)}

    def _on_delivery(self, reading) -> None:
        key = (reading.source, bytes(reading.data))
        self._accepted.append(key)
        offered_at = self._offered.get(key)
        if offered_at is not None:
            self._latencies.append(time.perf_counter() - offered_at)

    def _offer(self, source: int, payload: bytes) -> None:
        self._offered[(source, payload)] = time.perf_counter()
        try:
            self.deployed.agents[source].send_reading(payload)
        except ProtocolError:
            pass  # never accepted, so the end-of-run check counts it failed

    def run_round(self) -> RoundResult:
        """Offer one protocol second of load and run the clock through it."""
        deployed = self.deployed
        t0 = deployed.now()
        interval = 1.0 / self.LOAD
        for k in range(self.LOAD):
            source = self.sources[self._next % len(self.sources)]
            payload = encode_reading(
                self._next, self.streams[source].sample(t0 + k * interval), source
            )
            self._next += 1
            deployed.schedule(
                k * interval, lambda s=source, p=payload: self._offer(s, p)
            )
        self._latencies = []
        deployed.run_for(1.0)
        if "round1" not in self._counters:
            self._counters["round1"] = behaviour(deployed)
        return RoundResult(self._latencies, self.LOAD)

    def finish(self) -> int:
        """Drain in-flight readings, then check every offer's outcome."""
        self.deployed.run_for(self.SETTLE_S)
        return check_soak_deliveries(self._offered, self._accepted)

    def program_counters(self) -> dict:
        """The live deployment's counters."""
        return program_counters(self.deployed)


class QueryWorkload(_Workload):
    """The gateway's query plane under one keep-alive HTTP/1.1 client.

    Set-up deploys a small mesh and offers readings until the base
    station has verified ``WARM_READINGS`` of them; those readings feed a
    fresh ``GatewayStateStore`` served by ``GatewayHttpServer``. Each
    round ingests the next ``BATCH`` readings (writes), then sends the GET
    mix (reads), checking every answer against :class:`StoreModel`. An
    operation is one HTTP request, timed from send to the last body byte
    on one connection in a closed loop.
    """

    name = "query"
    RSS_ROUNDS = 20
    N = 100
    WARM_READINGS = 128
    BATCH = 32
    SETUPS = 5
    READINGS_LIMIT = 256

    def __init__(self, seed: int, n: int = N) -> None:
        super().__init__(seed)
        self.n = n
        self.server = None
        self.conn = None
        self._pool: list = []
        self._next = 0
        self._cursor = 0
        self.model = StoreModel()
        self._rng = np.random.default_rng(seed)

    def _warm(self, deployed) -> list:
        """Offer readings round-robin until enough are verified."""
        sources = [
            nid for nid, a in sorted(deployed.agents.items()) if a.state.hops_to_bs > 0
        ]
        k = 0
        while deployed.bs_agent.delivered_total < self.WARM_READINGS:
            for _ in range(len(sources)):
                source = sources[k % len(sources)]
                deployed.agents[source].send_reading(encode_reading(k, float(k), source))
                k += 1
                deployed.run_for(0.01)
            deployed.run_for(1.0)
        return list(deployed.bs_agent.delivered)

    def close(self) -> None:
        """Close the client connection and stop the server thread."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def prepare(self) -> None:
        """Deploy, verify readings, start the gateway; ``SETUPS`` times."""
        for index in range(self.SETUPS):
            self.close()
            gc.collect()
            start = time.perf_counter()
            deployed = deploy(
                self.n, sub_seed(self.seed, index), self.setup_layers, field=FIELD
            )
            checked = time.perf_counter()
            check_key_setup(deployed)
            resumed = time.perf_counter()
            pool = self._warm(deployed)
            self.store = GatewayStateStore("bench")
            self.server = GatewayHttpServer(GatewayApp(self.store)).start()
            host, port = self.server.address
            self.conn = http.client.HTTPConnection(host, port, timeout=30)
            self.conn.connect()
            self._setup_times.append(time.perf_counter() - resumed + checked - start)
        self._pool = pool
        self._counters = {"setup": {**behaviour(deployed), "pool": len(pool)}}

    def _get(self, path: str, latencies: list[float]) -> dict:
        start = time.perf_counter()
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        if self.tracer is not None and self.tracer.installed:
            self.tracer.request_latencies.append(elapsed)
        check(200 <= response.status < 300, f"GET {path} answered {response.status}")
        return json.loads(raw)

    def run_round(self) -> RoundResult:
        """One batch of ingests, then the GET mix, each answer checked."""
        model = self.model
        batch = []
        for _ in range(self.BATCH):
            batch.append(self._pool[self._next % len(self._pool)])
            self._next += 1
        start = time.perf_counter()
        for reading in batch:
            self.store.ingest(reading)
        writes = time.perf_counter() - start
        for reading in batch:
            model.ingest(reading.source, reading.time, bytes(reading.data))
        latencies: list[float] = []
        model.check_readings(
            self._get(f"/readings?limit={self.READINGS_LIMIT}", latencies),
            self.READINGS_LIMIT,
        )
        model.check_nodes(self._get("/nodes", latencies))
        nodes = sorted(model.latest)
        node = nodes[int(self._rng.integers(len(nodes)))]
        model.check_node(node, self._get(f"/nodes/{node}", latencies))
        since = self._cursor
        body = self._get(f"/updates?cursor={since}&limit=1024", latencies)
        self._cursor = model.check_updates(since, body)
        model.check_status(self._get("/status", latencies))
        if "round1" not in self._counters:
            self._counters["round1"] = {"cursor": self._cursor, "nodes": len(nodes)}
        # The client's checks between requests are not the program's time.
        return RoundResult(latencies, len(latencies), busy_s=writes + sum(latencies))

    def program_counters(self) -> dict:
        """No mesh runs in the timed part; only crypto is process-wide."""
        return {**dict.fromkeys(PROGRAM_COUNTERS, 0), "crypto.opens": STATS.opens}


WORKLOADS = {cls.name: cls for cls in (SetupWorkload, SoakWorkload, QueryWorkload)}
