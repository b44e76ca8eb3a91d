"""Shared fixtures: graph builders, a synchronous gateway environment and
simulations that capture what their delivery hooks see."""

from __future__ import annotations

import heapq
import json
import random
from contextlib import contextmanager
from unittest import mock

import pytest

from ipicn import routes
from ipicn.forwarding import IcnPacket, forward
from ipicn.rendezvous import Rendezvous
from ipicn.simnet import BaselineSimulation, IcnSimulation
from ipicn.topology import NetworkGraph, TopologyDoc, handle_match, load_topology_doc


def make_topology_doc(
    nodes, undirected_links, naps=(), border=None, seed=1
) -> TopologyDoc:
    doc = {
        "nodes": [{"id": n} for n in nodes],
        "links": [
            {
                "a": a,
                "b": b,
                "delay_us": extra.get("delay_us", 1000),
                "capacity_bps": extra.get("capacity_bps", 1_000_000_000),
            }
            for a, b, extra in (
                (l[0], l[1], l[2] if len(l) > 2 else {}) for l in undirected_links
            )
        ],
        "naps": [dict(n) for n in naps],
    }
    if border is not None:
        doc["border"] = dict(border)
    return load_topology_doc(json.dumps(doc), seed)


def random_connected_graph(rng: random.Random, n_nodes: int, n_extra: int):
    """Random spanning tree plus extra edges; returns undirected pair list."""
    nodes = list(range(1, n_nodes + 1))
    pairs = set()
    for i in range(1, n_nodes):
        parent = rng.choice(nodes[:i])
        pairs.add((min(parent, nodes[i]), max(parent, nodes[i])))
    attempts = 0
    while len(pairs) < n_nodes - 1 + n_extra and attempts < 20 * n_extra:
        a, b = rng.sample(nodes, 2)
        pairs.add((min(a, b), max(a, b)))
        attempts += 1
    return nodes, sorted(pairs)


def drop_row(row: str) -> None:
    """A trace sink that keeps nothing: a run with it writes every row and
    sends and bills each message as an untraced run does."""


@contextmanager
def walking():
    """Within it, `Route.carry` (and so `Plan.carry`) answers None, "the
    caller walks": every message walks hop by hop and bills each link when
    it is sent. The reference a run that carries must equal."""
    with mock.patch.object(routes.Route, "carry", lambda *args: None):
        yield


def flood(g: NetworkGraph, origin: int, pkt: IcnPacket):
    """Untimed propagation of one packet: arrival counts and traversals.

    Returns (arrivals per node, list of traversed (src, dst) pairs).
    """
    arrivals: dict[int, int] = {}
    traversals: list[tuple[int, int]] = []
    frontier = [(origin, pkt, None)]
    while frontier:
        node, copy, in_link = frontier.pop()
        for link in forward(g, node, copy, in_link):
            traversals.append((link.src, link.dst))
            arrivals[link.dst] = arrivals.get(link.dst, 0) + 1
            onward = IcnPacket(copy.fid, copy.name, copy.payload, copy.ttl - 1)
            frontier.append((link.dst, onward, link))
    return arrivals, traversals


class SyncEnv:
    """Instant control plane over a real rendezvous and topology manager.

    Control operations take effect immediately and FidDeliveries are pushed
    straight into gateways; data packets propagate untimed through the
    graph, offered at every visited node. Wall time only moves via advance().
    """

    def __init__(self, graph: NetworkGraph) -> None:
        self.graph = graph
        self.rv = Rendezvous()
        self.gateways: dict[int, object] = {}
        self.now = 0
        self._timers: list[tuple[int, int, object]] = []
        self._timer_seq = 0
        self.control_log: list[tuple[str, int, object]] = []
        self.emissions: list[tuple[int, IcnPacket]] = []
        self.ip_deliveries: list[tuple[int, object]] = []
        self.http_completions: list[tuple[int, object]] = []
        self.peer_emissions: list[tuple[int, object]] = []
        self.ip_drops: list[object] = []

    def add(self, gw) -> None:
        self.gateways[gw.client] = gw

    # -- clock -------------------------------------------------------------

    def now_us(self) -> int:
        return self.now

    def call_at(self, time_us: int, fn) -> None:
        heapq.heappush(self._timers, (max(time_us, self.now), self._timer_seq, fn))
        self._timer_seq += 1

    def advance(self, to_us: int) -> None:
        while self._timers and self._timers[0][0] <= to_us:
            t, _, fn = heapq.heappop(self._timers)
            self.now = t
            fn()
        self.now = to_us

    # -- control plane -------------------------------------------------------

    def _dispatch(self, events) -> None:
        for ev in events:
            fd = handle_match(self.graph, ev)
            gw = self.gateways.get(ev.publisher)
            if gw is not None:
                gw.on_fid(fd)

    def subscribe(self, client, name) -> None:
        self.control_log.append(("subscribe", client, name))
        self._dispatch(self.rv.subscribe(client, name))

    def unsubscribe(self, client, name) -> None:
        self.control_log.append(("unsubscribe", client, name))
        self._dispatch(self.rv.unsubscribe(client, name))

    def publish_availability(self, client, name) -> None:
        self.control_log.append(("publish", client, name))
        self._dispatch(self.rv.publish_availability(client, name))

    def unpublish(self, client, name) -> None:
        self.control_log.append(("unpublish", client, name))
        self._dispatch(self.rv.unpublish(client, name))

    # -- data plane ------------------------------------------------------------

    def transmit(self, client, pkt: IcnPacket) -> None:
        self.emissions.append((client, pkt))
        origin = self.gateways[client].node
        for other in sorted(self.gateways):
            gw = self.gateways[other]
            if other != client and gw.node == origin:
                gw.on_icn_data(pkt)
        arrivals, _ = flood(self.graph, origin, pkt)
        for node in sorted(arrivals):
            for cid in sorted(self.gateways):
                gw = self.gateways[cid]
                if gw.node == node:
                    for _ in range(arrivals[node]):
                        gw.on_icn_data(pkt)

    # -- notes ----------------------------------------------------------------

    def note_ip_delivered(self, client, pkt) -> None:
        self.ip_deliveries.append((client, pkt))

    def note_http_complete(self, client, response) -> None:
        self.http_completions.append((client, response))

    def note_peer_emitted(self, client, pkt) -> None:
        self.peer_emissions.append((client, pkt))

    def note_ip_dropped(self, pkt) -> None:
        self.ip_drops.append(pkt)


class CaptureDeliveries:
    """Mixin for a simulation class: keeps every packet it makes and every
    IP value its delivery hooks record, which the simulation itself drops.

    `sent` maps packet id to the IpPacket as sent; `ip_deliveries` holds
    (client, IpPacket) per first delivery of a packet, in call order (peer
    emissions count as IP deliveries); a duplicate, which the simulation
    only counts, is not kept.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.sent: dict[int, object] = {}
        self.ip_deliveries: list[tuple[int, object]] = []
        super().__init__(*args, **kwargs)

    def _make_ip_packet(self, *args):
        pkt = super()._make_ip_packet(*args)
        self.sent[pkt.id] = pkt
        return pkt

    def note_ip_delivered(self, client, ip) -> None:
        if ip.id in self.send_time:
            self.ip_deliveries.append((client, ip))
        super().note_ip_delivered(client, ip)

    def note_peer_emitted(self, client, ip) -> None:
        if ip.id in self.send_time:
            self.ip_deliveries.append((client, ip))
        super().note_peer_emitted(client, ip)


class CapturingIcnSimulation(CaptureDeliveries, IcnSimulation):
    """Also keeps each (client, HttpResponse) in `http_completions`; the
    baseline builds no HTTP bodies, so only ICN mode has this hook."""

    def __init__(self, *args, **kwargs) -> None:
        self.http_completions: list[tuple[int, object]] = []
        super().__init__(*args, **kwargs)

    def note_http_complete(self, client, response) -> None:
        self.http_completions.append((client, response))
        super().note_http_complete(client, response)


class CapturingBaselineSimulation(CaptureDeliveries, BaselineSimulation):
    pass


@pytest.fixture
def line3_doc() -> TopologyDoc:
    """1 - 2 - 3 line with a NAP on each end node and a border at node 1."""
    return make_topology_doc(
        nodes=[1, 2, 3],
        undirected_links=[(1, 2), (2, 3)],
        naps=[
            {"client": 1, "node": 3, "prefixes": ["10.0.1.0/24"]},
            {"client": 2, "node": 1, "prefixes": ["10.0.2.0/24"]},
        ],
        border={"client": 99, "node": 1},
        seed=11,
    )
