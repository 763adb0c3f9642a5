"""Layer timing wrappers for the traced run (``--trace 1``).

The program is not instrumented: each wrapper here replaces one public
function or method at a layer boundary *where the caller looks it up*
(``repro.protocol.forwarding.open_``, not ``repro.crypto.aead.open_``,
because forwarding imported the name), records its call count, total and
self time, and calls the original. Self time is a span's duration minus
the durations of the wrapped spans nested directly inside it, kept per
thread. Spans are aggregated per layer name as they close rather than
kept one by one; a traced soak round closes millions of them.

:meth:`Tracer.install` / :meth:`Tracer.uninstall` swap the wrappers in
and out between rounds, so untraced rounds pay nothing for them.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro.gateway.api import GatewayApp
from repro.gateway.store import GatewayStateStore
from repro.protocol import agent, base_station, forwarding, messages
from repro.runtime import faults
from repro.runtime.loopback import LoopbackTransport
from repro.sim.engine import EventQueue
from repro.sim.trace import Trace
from repro.telemetry.registry import MetricsRegistry

from perfbench.harness import check

#: The program's own counters each workload's ``program_counters()``
#: reads around every traced round.
PROGRAM_COUNTERS = (
    "crypto.opens",
    "net.frames_sent",
    "net.retx.acked",
    "forwarded",
    "faults.injected",
    "loopback.deliveries",
)


def _layer_sites():
    """``(owner, attribute, layer name)`` of every wrapped boundary."""
    sites = [
        (messages, "seal", "crypto.seal"),
        (messages, "open_", "crypto.open"),
        (forwarding, "seal", "crypto.seal"),
        (forwarding, "seal_many", "crypto.seal"),
        (forwarding, "open_", "crypto.open"),
        # A DATA frame is decoded by the agent (decode_data) and again
        # inside unwrap_hop (decode_data_view): both count as decodes.
        (messages, "decode_data", "messages.decode_data"),
        (forwarding, "decode_data_view", "messages.decode_data"),
        (messages, "decode_ack", "messages.decode_ack"),
        (agent, "unwrap_hop", "forwarding.unwrap_hop"),
        (base_station, "unwrap_hop", "forwarding.unwrap_hop"),
        (agent, "wrap_hop", "forwarding.wrap_hop"),
        (agent.ProtocolAgent, "on_frame", "agent.on_frame"),
        (base_station.BaseStationAgent, "on_frame", "agent.on_frame"),
        (LoopbackTransport, "broadcast", "loopback.broadcast"),
        (LoopbackTransport, "run", "loopback.run"),
        (EventQueue, "pop_due", "engine.pop_due"),
        (faults._FaultedEndpoint, "receive", "faults"),
        (faults._LateDelivery, "__call__", "faults"),
        (MetricsRegistry, "inc", "telemetry.inc"),
        (Trace, "count", "trace.count"),
        (GatewayStateStore, "ingest", "store.ingest"),
        (GatewayApp, "handle", "api.handle"),
    ]
    # Every store read the API's GET endpoints make.
    for name in (
        "snapshot_with_cursor",
        "latest",
        "node_history",
        "recent",
        "updates_since",
        "stats",
    ):
        sites.append((GatewayStateStore, name, "store.read"))
    return sites


class Tracer:
    """Installs the layer wrappers and aggregates what they record."""

    def __init__(self) -> None:
        #: layer name -> [calls, total seconds, self seconds].
        self.stats: dict[str, list] = {}
        #: ``api.handle`` durations and the client-side latencies of the
        #: same traced requests, in order (the query workload fills the
        #: latter), for the HTTP overhead.
        self.handle_durations: list[float] = []
        self.request_latencies: list[float] = []
        self.data_rx = 0
        self.events = 0
        self.ops = 0
        self.program: dict[str, int] = dict.fromkeys(PROGRAM_COUNTERS, 0)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        self._sites = _layer_sites()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Replace every layer boundary with its timing wrapper."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in self._sites:
            # A class's own attribute, never an inherited one: restoring
            # must not leave a copy behind on the class.
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    @property
    def installed(self) -> bool:
        """Whether the wrappers are in place right now."""
        return bool(self._originals)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        local = self._local
        lock = self._lock
        perf = time.perf_counter
        tracer = self
        is_frame = name == "agent.on_frame"
        is_pop = name == "engine.pop_due"
        is_handle = name == "api.handle"

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - nested
            if is_frame and args[2][:1] == b"\x03":  # messages.DATA
                tracer.data_rx += 1
            elif is_pop and result is not None:
                tracer.events += 1
            elif is_handle:
                tracer.handle_durations.append(elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregating ------------------------------------------------------

    def add_round(self, ops: int, before: dict, after: dict) -> None:
        """Account one traced round: its operations and counter growth."""
        self.ops += ops
        for name in PROGRAM_COUNTERS:
            self.program[name] += after[name] - before[name]

    def _stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def per_layer(self, setup_layers: dict[str, list[float]]) -> dict:
        """The per-layer metrics of ``BENCHMARK.json``.

        Counts and times are per operation of the workload (one key
        setup, one accepted reading, one HTTP request) over the traced
        rounds, so they compare across runs of different length.
        ``setup.*`` are medians over the run's set-ups.
        """
        ops = max(1, self.ops)
        prog = self.program

        def calls(name):
            return self._stat(name)[0]

        def per_op(value):
            return value / ops

        def total_s(name):
            return self._stat(name)[1] / ops

        def self_s(name):
            return self._stat(name)[2] / ops

        def ratio(num, den):
            return num / den if den else 0.0

        opens = calls("crypto.open")
        check(
            opens == prog["crypto.opens"],
            f"wrapped open_ calls ({opens}) differ from the program's "
            f"crypto.opens counter ({prog['crypto.opens']})",
        )
        decodes = calls("messages.decode_data")
        decode_acks = calls("messages.decode_ack")
        overheads = [
            lat - handle
            for lat, handle in zip(self.request_latencies, self.handle_durations)
        ]
        return {
            "crypto.open_calls": (per_op(opens), "count/op"),
            "crypto.open_s": (total_s("crypto.open"), "s/op"),
            "crypto.seal_calls": (per_op(calls("crypto.seal")), "count/op"),
            "crypto.seal_s": (total_s("crypto.seal"), "s/op"),
            "crypto.opens_per_frame": (ratio(opens, prog["net.frames_sent"]), "ratio"),
            "messages.decode_data_calls": (per_op(decodes), "count/op"),
            "messages.decode_ack_calls": (per_op(decode_acks), "count/op"),
            "messages.decodes_per_data_rx": (ratio(decodes, self.data_rx), "ratio"),
            "forwarding.unwrap_hop_s": (total_s("forwarding.unwrap_hop"), "s/op"),
            "forwarding.wrap_hop_s": (total_s("forwarding.wrap_hop"), "s/op"),
            "agent.on_frame_calls": (per_op(calls("agent.on_frame")), "count/op"),
            "agent.on_frame_self_s": (self_s("agent.on_frame"), "s/op"),
            "agent.forwarded_per_open": (ratio(prog["forwarded"], opens), "ratio"),
            "agent.ack_match_ratio": (ratio(prog["net.retx.acked"], decode_acks), "ratio"),
            "loopback.broadcast_calls": (per_op(calls("loopback.broadcast")), "count/op"),
            "loopback.deliveries": (per_op(prog["loopback.deliveries"]), "count/op"),
            "loopback.run_self_s": (self_s("loopback.run"), "s/op"),
            "engine.events": (per_op(self.events), "count/op"),
            "engine.pop_s": (total_s("engine.pop_due"), "s/op"),
            "faults.self_s": (self_s("faults"), "s/op"),
            "faults.injected": (per_op(prog["faults.injected"]), "count/op"),
            "telemetry.inc_calls": (per_op(calls("telemetry.inc")), "count/op"),
            "telemetry.inc_s": (total_s("telemetry.inc"), "s/op"),
            "trace.count_calls": (per_op(calls("trace.count")), "count/op"),
            "setup.topology_s": (_median(setup_layers["topology"]), "s"),
            "setup.key_setup_s": (_median(setup_layers["key_setup"]), "s"),
            "store.ingest_calls": (per_op(calls("store.ingest")), "count/op"),
            "store.ingest_s": (total_s("store.ingest"), "s/op"),
            "store.read_s": (total_s("store.read"), "s/op"),
            "api.handle_calls": (per_op(calls("api.handle")), "count/op"),
            "api.handle_s": (total_s("api.handle"), "s/op"),
            "http.overhead_ms_p50": (1e3 * _median(overheads), "ms"),
        }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
