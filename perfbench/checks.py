"""Correctness checks, each derived from the method rather than from a
recorded output.

* :func:`check_key_setup` recomputes the unit-disk graph from the node
  positions and the radio range and checks the clustering and key
  distribution of Sec. IV-B against it;
* :func:`check_soak_deliveries` checks that every reading offered was
  accepted exactly once, from its sender, with the bytes offered;
* :class:`StoreModel` is an independent last-write-wins model of what the
  query workload ingested, against which the gateway's HTTP answers are
  compared.

Every check raises :class:`~perfbench.harness.CheckFailed` on a
violation.
"""

from __future__ import annotations

import numpy as np
from repro.crypto.kdf import derive_cluster_key

from perfbench.harness import check


def unit_disk_neighbors(positions: dict[int, np.ndarray], radius: float) -> dict[int, list[int]]:
    """Neighbours within ``radius`` (inclusive) of every node, by id.

    Computed in row blocks straight from the coordinates, independently
    of the program's cell grid.
    """
    ids = sorted(positions)
    coords = np.array([positions[i] for i in ids], dtype=float)
    limit = radius * radius * (1.0 + 1e-12)
    out: dict[int, list[int]] = {}
    block = 256
    for lo in range(0, len(ids), block):
        diff = coords[lo : lo + block, None, :] - coords[None, :, :]
        near = (diff * diff).sum(axis=2) <= limit
        for row, mask in enumerate(near):
            me = lo + row
            out[ids[me]] = [ids[j] for j in np.flatnonzero(mask) if j != me]
    return out


def check_key_setup(deployed) -> dict:
    """Check the Sec. IV-B outcome of one deployment; returns counters.

    * every sensor is in exactly one cluster, whose head is itself or a
      unit-disk neighbour and is a head of that same cluster;
    * every member holds its head's cluster key ``K_c = F(K_MC, head)``,
      recomputed from the base station's ``K_MC``;
    * every node holds the key of each neighbouring cluster;
    * ``K_m`` is erased everywhere.
    """
    network = deployed.network
    agents = deployed.agents
    radius = network.deployment.radius
    # Sensors only: the base station belongs to no cluster.
    positions = {nid: network.node(nid).position for nid in agents}
    neighbors = unit_disk_neighbors(positions, radius)
    kmc = deployed.registry.kmc.material
    cid_of = {}
    for nid, agent in agents.items():
        st = agent.state
        check(st.cid is not None, f"sensor {nid} is in no cluster")
        check(st.cid in agents, f"sensor {nid} names head {st.cid}, not a sensor")
        check(
            st.cid == nid or st.cid in neighbors[nid],
            f"sensor {nid} is assigned to head {st.cid}, which is not its neighbour",
        )
        check(
            agents[st.cid].state.cid == st.cid,
            f"head {st.cid} of sensor {nid} heads another cluster",
        )
        check(
            st.preload.master_key.erased, f"sensor {nid} still holds K_m after setup"
        )
        cid_of[nid] = st.cid
    expected = {cid: derive_cluster_key(kmc, cid) for cid in set(cid_of.values())}
    links = 0
    for nid, agent in agents.items():
        ring = agent.state.keyring
        own = cid_of[nid]
        check(
            ring.has(own) and ring.get(own).material == expected[own],
            f"sensor {nid} does not hold the key of its cluster {own}",
        )
        for cid in {cid_of[v] for v in neighbors[nid]} - {own}:
            links += 1
            check(
                ring.has(cid) and ring.get(cid).material == expected[cid],
                f"sensor {nid} lacks the key of neighbouring cluster {cid}",
            )
    return {"clusters": len(expected), "neighbor_cluster_links": links}


def check_soak_deliveries(
    offered: dict[tuple[int, bytes], object], accepted: list[tuple[int, bytes]]
) -> int:
    """Count offered readings not accepted exactly once, as offered.

    ``offered`` is keyed by ``(source, plaintext)``; ``accepted`` lists
    what the base station handed its delivery listeners, as
    ``(source it verified, plaintext)``. A reading accepted twice, under
    another source, or with other bytes fails; so does an acceptance of
    anything never offered, which is a :class:`CheckFailed` of its own.
    """
    counts: dict[tuple[int, bytes], int] = {}
    for key in accepted:
        check(key in offered, f"accepted a reading never offered: source {key[0]}")
        counts[key] = counts.get(key, 0) + 1
    return sum(1 for key in offered if counts.get(key, 0) != 1)


class StoreModel:
    """Last-write-wins model of a fresh single-gateway store.

    Mirrors the documented semantics, not the code: each ingest is
    minted the next sequence number, ``(time, seq)`` decides the winner
    per node, and every ingest is applied, advancing the cursor by one.
    """

    def __init__(self) -> None:
        self.seq = 0
        #: node id -> (time, seq, payload hex) of the current winner.
        self.latest: dict[int, tuple[float, int, str]] = {}
        #: Every applied ingest, oldest first: (cursor, node, payload hex).
        self.log: list[tuple[int, int, str]] = []

    @property
    def cursor(self) -> int:
        """The cursor the store must report after the ingests so far."""
        return self.seq

    def ingest(self, node: int, time: float, payload: bytes) -> None:
        """Record one ingest."""
        self.seq += 1
        entry = (time, self.seq, payload.hex())
        current = self.latest.get(node)
        if current is None or entry[:2] > current[:2]:
            self.latest[node] = entry
        self.log.append((self.seq, node, entry[2]))

    def check_entry(self, node: int, wire: dict) -> None:
        """Check one served entry against the model's winner for ``node``."""
        want = self.latest.get(node)
        check(want is not None, f"store serves node {node}, never ingested")
        got = (wire["time"], wire["seq"], wire["payload"])
        check(
            wire["node"] == node and got == want,
            f"store answer for node {node} is {got}, model says {want}",
        )

    def check_nodes(self, body: dict) -> None:
        """``GET /nodes`` must list exactly the model's winners."""
        nodes = body["nodes"]
        check(
            [w["node"] for w in nodes] == sorted(self.latest),
            "GET /nodes lists other nodes than were ingested",
        )
        for wire in nodes:
            self.check_entry(wire["node"], wire)
        check(body["cursor"] == self.cursor, "GET /nodes cursor disagrees with the model")

    def check_node(self, node: int, body: dict) -> None:
        """``GET /nodes/<id>`` must serve the model's winner."""
        self.check_entry(node, body["latest"])

    def check_updates(self, since: int, body: dict) -> int:
        """``GET /updates?cursor=since`` must replay exactly the ingests
        after ``since``; returns the new cursor."""
        want = self.log[since:]  # log[i] holds cursor i + 1
        got = [(since + 1 + i, w["node"], w["payload"]) for i, w in enumerate(body["updates"])]
        check(
            body["cursor"] == self.cursor and got == want,
            f"GET /updates from {since} advanced to {body['cursor']} "
            f"with {len(got)} updates; model says {self.cursor} with {len(want)}",
        )
        return body["cursor"]

    def check_readings(self, body: dict, limit: int) -> None:
        """``GET /readings?limit=`` must be the tail of the applied log."""
        got = [(w["node"], w["payload"]) for w in body["readings"]]
        want = [(n, p) for _, n, p in self.log[-limit:]]
        check(got == want, "GET /readings is not the tail of what was ingested")

    def check_status(self, body: dict) -> None:
        """``GET /status`` store counters must match the model."""
        store = body["store"]
        check(
            store["cursor"] == self.cursor and store["nodes"] == len(self.latest),
            f"GET /status reports cursor {store['cursor']} / {store['nodes']} "
            f"nodes; model says {self.cursor} / {len(self.latest)}",
        )
