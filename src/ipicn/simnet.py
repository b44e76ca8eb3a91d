"""Deterministic discrete-event simulation of the IP-over-ICN system.

One simulation instance wires NAPs, the border gateway, the rendezvous and
the topology manager onto a loaded graph and drains a timed workload to
quiescence. Control messages travel hop-by-hop to and from the RV/TM node
(the lowest node id); data travels by forwarding-identifier mask matching.
The same scenario can run against a plain-IP unicast baseline that routes
every packet and every HTTP response copy along shortest paths with no
control plane at all.

Byte counters are per link traversal; a message whose source and
destination share a node never touches a link and costs nothing. Reports
serialize canonically (sorted keys, integer microseconds and bytes) so
byte-equality across runs is meaningful.
"""

from __future__ import annotations

import heapq
import ipaddress
import json
import math
import struct
from collections import Counter, deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .forwarding import IcnPacket, PacketKind, forward
from .gateways import (
    BorderGateway,
    IpPacket,
    Nap,
    encode_ip_packet,
    synth_bytes,
)
from .names import IcnName, render_name
from .rendezvous import ClientId, MatchEvent, Rendezvous
from .topology import (
    Link,
    NetworkGraph,
    TopologyDoc,
    dijkstra,
    handle_match,
    load_topology_doc,
    tree_for_match,
)

DEFAULT_MAX_TIME_US = 60_000_000
DEFAULT_EXT_SRC = ipaddress.IPv4Address("203.0.113.1")

_CTRL_META = struct.Struct(">IB")  # client id | operation flag
_CTRL_FID = struct.Struct(">I32sB")  # publisher | fid | local flag

WORKLOAD_OPS = ("attach", "send_ip", "http_serve", "http_get", "ext_in")


class ScenarioError(ValueError):
    """Malformed scenario document."""


class UnknownClientError(ScenarioError):
    """Scenario references a client with no gateway in the topology."""


@dataclass
class Scenario:
    """A timed workload plus run parameters."""

    workload: list[dict]
    mode: str = "icn"
    seed: int = 1
    topology: str | dict | None = None


def load_scenario(doc: dict | str) -> Scenario:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    mode = doc.get("mode", "icn")
    if mode not in ("icn", "ip", "compare"):
        raise ScenarioError(f"unknown mode: {mode!r}")
    workload = doc.get("workload", [])
    if not isinstance(workload, list):
        raise ScenarioError("workload must be a list")
    for action in workload:
        if not isinstance(action, dict):
            raise ScenarioError("workload entries must be objects")
        op = action.get("op")
        if op not in WORKLOAD_OPS:
            raise ScenarioError(f"unknown workload op: {op!r}")
        try:
            t_us = int(action.get("t_us", -1))
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"workload op {op!r} has a non-integer t_us") from None
        if t_us < 0:
            raise ScenarioError(f"workload op {op!r} needs a non-negative t_us")
    try:
        seed = int(doc.get("seed", 1))
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError("scenario seed is not an integer") from None
    return Scenario(
        workload=list(workload),
        mode=mode,
        seed=seed,
        topology=doc.get("topology"),
    )


@dataclass
class KpiReport:
    """Per-link byte counters, flow statistics and loss/anomaly counters."""

    per_link: dict[str, dict[str, int]]
    totals: dict[str, int | float]
    flows: dict[str, dict[str, int]]
    counters: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "flows": {k: self.flows[k] for k in sorted(self.flows)},
            "per_link": {k: self.per_link[k] for k in sorted(self.per_link)},
            "totals": dict(sorted(self.totals.items())),
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class ComparisonReport:
    """Side-by-side ICN vs plain-IP results for one scenario."""

    icn: KpiReport
    baseline: KpiReport
    links: dict[str, dict]
    bottleneck: dict
    overhead: dict

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "bottleneck": self.bottleneck,
            "icn": self.icn.to_dict(),
            "links": {k: self.links[k] for k in sorted(self.links)},
            "overhead": self.overhead,
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class _EventQueue:
    """(time, seq)-ordered queue; seq breaks ties by insertion order."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def push(self, time_us: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time_us, self._seq, fn))
        self._seq += 1

    def pop(self) -> tuple[int, Callable[[], None]]:
        time_us, _, fn = heapq.heappop(self._heap)
        return time_us, fn

    def __bool__(self) -> bool:
        return bool(self._heap)


def _serialization_us(size_bytes: int, capacity_bps: int) -> int:
    return -(-8 * size_bytes * 1_000_000 // capacity_bps)


def _link_key(link: Link) -> str:
    return f"{link.src}->{link.dst}"


def _flow_stats(arrivals: list[tuple[int, int]]) -> dict[str, int]:
    """delivered count, mean latency, and inter-arrival jitter for a flow.

    Jitter is the population standard deviation of consecutive arrival
    gaps, computed in integer math so reports never carry float noise.
    """
    times = [t for t, _ in arrivals]
    latencies = [lat for _, lat in arrivals]
    gaps = [b - a for a, b in zip(times, times[1:])]
    if gaps:
        n = len(gaps)
        variance_numerator = n * sum(g * g for g in gaps) - sum(gaps) ** 2
        jitter = math.isqrt(variance_numerator) // n
    else:
        jitter = 0
    return {
        "delivered": len(arrivals),
        "latency_us": sum(latencies) // len(arrivals) if arrivals else 0,
        "jitter_us": jitter,
    }


class _AccountingMixin:
    """Shared per-link byte counters, flow records and trace collection."""

    graph: NetworkGraph
    trace: list[str] | None

    def _init_accounting(self, collect_trace: bool) -> None:
        self.now = 0
        self.queue = _EventQueue()
        self.link_bytes: dict[str, list[int]] = {
            _link_key(l): [0, 0] for l in self.graph.links  # [control, data]
        }
        self.counters: Counter[str] = Counter()
        self.flow_arrivals: dict[str, list[tuple[int, int]]] = {}
        self.sent_ip: dict[int, IpPacket] = {}
        self.send_time: dict[int, int] = {}
        self.delivered_ip: list[tuple[int, ClientId, IpPacket]] = []
        self.delivered_http: list[tuple[int, ClientId, str, str, bytes]] = []
        self._http_issue: dict[tuple[ClientId, str, str], deque[int]] = {}
        self._next_packet_id = 1
        self.trace = [] if collect_trace else None

    def _trace_row(
        self, node: int, event: str, link: Link | None, size: int, name: object
    ) -> None:
        """Append one trace row; `name` is an `IcnName`, an address or "-".

        The link and name are formatted only when tracing is on.
        """
        if self.trace is not None:
            link_text = "-" if link is None else _link_key(link)
            name_text = render_name(name) if isinstance(name, IcnName) else name
            self.trace.append(f"{self.now},{node},{event},{link_text},{size},{name_text}")

    def _alloc_packet_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id += 1
        return pid

    def _count_link(self, link: Link, size: int, control: bool) -> None:
        self.link_bytes[_link_key(link)][0 if control else 1] += size

    def _record_ip_flow(self, ip: IpPacket, client: ClientId) -> None:
        flow = f"ip:{ip.src}->{ip.dst}"
        latency = self.now - self.send_time[ip.id]
        self.flow_arrivals.setdefault(flow, []).append((self.now, latency))
        self.delivered_ip.append((self.now, client, ip))

    def _record_http_flow(
        self, client: ClientId, fqdn: str, url: str, body: bytes
    ) -> None:
        issued = self._http_issue[(client, fqdn, url)].popleft()
        flow = f"http:{client}:{fqdn}{url}"
        self.flow_arrivals.setdefault(flow, []).append((self.now, self.now - issued))
        self.delivered_http.append((self.now, client, fqdn, url, body))

    def _note_http_issue(self, client: ClientId, fqdn: str, url: str) -> None:
        self._http_issue.setdefault((client, fqdn, url), deque()).append(self.now)

    def _drain(self, max_time_us: int) -> None:
        while self.queue:
            time_us, fn = self.queue.pop()
            if time_us > max_time_us:
                self.counters["time_limit_hits"] += 1
                break
            self.now = time_us
            fn()

    def _build_report(self, extra_counters: Counter[str]) -> KpiReport:
        control = sum(v[0] for v in self.link_bytes.values())
        data = sum(v[1] for v in self.link_bytes.values())
        total = control + data
        overhead = round(100 * control / total, 4) if total else 0
        counters = Counter(
            {
                "corrupt": 0,
                "drops": 0,
                "duplicates": 0,
                "fp_deliveries": 0,
                "off_tree_forwards": 0,
                "protocol_violations": 0,
                "ttl_drops": 0,
                "unroutable_http": 0,
            }
        )
        counters.update(self.counters)
        counters.update(extra_counters)
        return KpiReport(
            per_link={
                k: {"control_bytes": v[0], "data_bytes": v[1]}
                for k, v in self.link_bytes.items()
            },
            totals={
                "control_bytes": control,
                "data_bytes": data,
                "signalling_overhead_pct": overhead,
            },
            flows={
                flow: _flow_stats(arrivals)
                for flow, arrivals in self.flow_arrivals.items()
            },
            counters=dict(counters),
        )


def _validate_workload(scenario: Scenario, known_clients: set[ClientId]) -> None:
    for action in scenario.workload:
        client = action.get("client")
        if client is not None and int(client) not in known_clients:
            raise UnknownClientError(f"workload references unknown client {client}")
        if action["op"] in ("attach", "send_ip", "http_serve", "http_get") and (
            client is None
        ):
            raise ScenarioError(f"op {action['op']!r} needs a client")


class IcnSimulation(_AccountingMixin):
    """Full publish/subscribe run: gateways + RV + TM + mask forwarding."""

    def __init__(
        self,
        topo: TopologyDoc,
        scenario: Scenario,
        *,
        window_us: int | None = None,
        ideal_control: bool = False,
        collect_trace: bool = False,
    ) -> None:
        self.graph = topo.graph
        self.scenario = scenario
        self.ideal_control = ideal_control
        self._init_accounting(collect_trace)

        self.rv_node = min(self.graph.nodes)
        self.rv = Rendezvous()
        self._rv_pred = dijkstra(self.graph, self.rv_node)

        operator_prefixes = tuple(p for nap in topo.naps for p in nap.prefixes)
        self.gateways: dict[ClientId, Nap | BorderGateway] = {}
        for cfg in topo.naps:
            self.gateways[cfg.client] = Nap(
                self,
                cfg.client,
                cfg.node,
                cfg.prefixes,
                operator_prefixes,
                window_us=window_us if window_us is not None else 100_000,
            )
        self.border: BorderGateway | None = None
        if topo.border is not None:
            self.border = BorderGateway(
                self, topo.border.client, topo.border.node, operator_prefixes
            )
            self.gateways[topo.border.client] = self.border

        self._clients_at: dict[int, tuple[ClientId, ...]] = {}
        for client in sorted(self.gateways):
            node = self.gateways[client].node
            self._clients_at[node] = self._clients_at.get(node, ()) + (client,)

        self._addr_owner: dict[ipaddress.IPv4Address, ClientId] = {}
        self._fqdn_owner: dict[str, ClientId] = {}
        self._tree_edges: dict[
            tuple[ClientId, IcnName], frozenset[tuple[int, int]]
        ] = {}

        _validate_workload(scenario, set(self.gateways))

    # -- environment interface used by the gateways ------------------------

    def now_us(self) -> int:
        return self.now

    def call_at(self, time_us: int, fn: Callable[[], None]) -> None:
        self.queue.push(max(time_us, self.now), fn)

    def register_address(self, addr: ipaddress.IPv4Address, client: ClientId) -> None:
        if addr in self._addr_owner:
            raise ValueError(f"{addr} already assigned to client {self._addr_owner[addr]}")
        self._addr_owner[addr] = client

    def register_fqdn(self, fqdn: str, client: ClientId) -> None:
        self._fqdn_owner[fqdn] = client

    def fqdn_served(self, fqdn: str) -> bool:
        return fqdn in self._fqdn_owner

    def subscribe(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(PacketKind.CTRL_SR, client, name, 1,
                            lambda: self._apply(self.rv.subscribe(client, name)))

    def unsubscribe(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(PacketKind.CTRL_SR, client, name, 0,
                            lambda: self._apply(self.rv.unsubscribe(client, name)))

    def publish_availability(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(PacketKind.CTRL_PR, client, name, 1,
                            lambda: self._apply_one(self.rv.publish_availability(client, name)))

    def unpublish(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(PacketKind.CTRL_PR, client, name, 0,
                            lambda: self._apply_one(self.rv.unpublish(client, name)))

    def note_ip_delivered(self, client: ClientId, ip: IpPacket) -> None:
        self._trace_row(self.gateways[client].node, "deliver", None,
                        len(ip.payload), ip.dst)
        self._record_ip_flow(ip, client)

    def note_peer_emitted(self, client: ClientId, ip: IpPacket) -> None:
        self._trace_row(self.gateways[client].node, "peer-out", None,
                        len(ip.payload), ip.dst)
        self._record_ip_flow(ip, client)

    def note_http_complete(
        self, client: ClientId, fqdn: str, url: str, body: bytes
    ) -> None:
        self._record_http_flow(client, fqdn, url, body)

    def transmit(self, client: ClientId, pkt: IcnPacket) -> None:
        """A gateway emits a data packet at its attachment node."""
        node = self.gateways[client].node
        meta = self._tree_edges.get((client, pkt.name), frozenset())
        self._trace_row(node, "emit", None, pkt.wire_size, pkt.name)
        for other in self._clients_at.get(node, ()):
            if other != client:
                self.gateways[other].on_icn_data(pkt)
        self._forward_from(node, pkt, None, meta)

    # -- control plane ------------------------------------------------------

    def _control_to_rv(
        self,
        kind: PacketKind,
        client: ClientId,
        name: IcnName,
        flag: int,
        handler: Callable[[], None],
    ) -> None:
        pkt = IcnPacket(fid=0, kind=kind, name=name,
                        payload=_CTRL_META.pack(client, flag))
        path = self._path_to_rv(self.gateways[client].node)
        self._route_control(pkt, path, handler)

    def _apply(self, events: list[MatchEvent]) -> None:
        for ev in events:
            self._instruct_tm(ev)

    def _apply_one(self, ev: MatchEvent | None) -> None:
        if ev is not None:
            self._instruct_tm(ev)

    def _instruct_tm(self, ev: MatchEvent) -> None:
        # RV and TM share a node, so this message never crosses a link.
        pkt = IcnPacket(fid=0, kind=PacketKind.CTRL_RT, name=ev.name,
                        payload=_CTRL_META.pack(ev.publisher, len(ev.subscribers)))
        self._route_control(pkt, [], lambda: self._tm_handle(ev))

    def _tm_handle(self, ev: MatchEvent) -> None:
        fd = handle_match(self.graph, ev)
        key = (ev.publisher, ev.name)
        if fd.teardown:
            self._tree_edges.pop(key, None)
        else:
            tree = tree_for_match(self.graph, ev)
            self._tree_edges[key] = frozenset((e.src, e.dst) for e in tree.edges)
        gw = self.gateways[ev.publisher]
        pkt = IcnPacket(
            fid=0,
            kind=PacketKind.CTRL_TP,
            name=ev.name,
            payload=_CTRL_FID.pack(ev.publisher, fd.fid.to_bytes(32, "big"), fd.local),
        )
        self._route_control(pkt, self._path_from_rv(gw.node), lambda: gw.on_fid(fd))

    def _path_from_rv(self, node: int) -> list[Link]:
        links: list[Link] = []
        while node != self.rv_node:
            parent = self._rv_pred[node]
            links.append(self.graph.link(parent, node))
            node = parent
        links.reverse()
        return links

    def _path_to_rv(self, node: int) -> list[Link]:
        return [self.graph.link(l.dst, l.src) for l in reversed(self._path_from_rv(node))]

    def _route_control(
        self, pkt: IcnPacket, path: list[Link], handler: Callable[[], None]
    ) -> None:
        if self.ideal_control or not path:
            self.queue.push(self.now, handler)
            return
        size = pkt.wire_size

        def hop(index: int) -> None:
            if index == len(path):
                handler()
                return
            link = path[index]
            self._count_link(link, size, control=True)
            self._trace_row(link.src, "ctrl", link, size, pkt.name)
            arrival = self.now + link.delay_us + _serialization_us(size, link.capacity_bps)
            self.queue.push(arrival, lambda: hop(index + 1))

        hop(0)

    # -- data plane ----------------------------------------------------------

    def _forward_from(
        self,
        node: int,
        pkt: IcnPacket,
        in_link: Link | None,
        meta: frozenset[tuple[int, int]],
    ) -> None:
        if pkt.ttl <= 1:
            if forward(self.graph, node, replace(pkt, ttl=2), in_link):
                self.counters["ttl_drops"] += 1
                self._trace_row(node, "ttl-drop", None, pkt.wire_size, pkt.name)
            return
        size = pkt.wire_size
        for link in forward(self.graph, node, pkt, in_link):
            copy = replace(pkt, ttl=pkt.ttl - 1)
            self._count_link(link, size, control=False)
            if (link.src, link.dst) not in meta:
                self.counters["off_tree_forwards"] += 1
            self._trace_row(node, "data", link, size, pkt.name)
            arrival = self.now + link.delay_us + _serialization_us(size, link.capacity_bps)
            self.queue.push(arrival, lambda l=link, c=copy: self._arrive(l, c, meta))

    def _arrive(
        self, link: Link, pkt: IcnPacket, meta: frozenset[tuple[int, int]]
    ) -> None:
        node = link.dst
        for client in self._clients_at.get(node, ()):
            self.gateways[client].on_icn_data(pkt)
        self._forward_from(node, pkt, link, meta)

    # -- workload -------------------------------------------------------------

    def _inject(self, action: dict) -> None:
        op = action["op"]
        if op == "attach":
            nap = self._nap(action["client"])
            nap.attach_device(action["addr"])
        elif op == "send_ip":
            nap = self._nap(action["client"])
            pkt = self._make_ip_packet(
                action["src"], action["dst"], int(action.get("bytes", 0)),
                int(action.get("proto", 17)),
            )
            nap.send_ip(pkt)
        elif op == "http_serve":
            self._nap(action["client"]).http_serve(action["fqdn"])
        elif op == "http_get":
            client = int(action["client"])
            self._note_http_issue(client, action["fqdn"], action["url"])
            self._nap(client).http_get(
                action["fqdn"], action["url"], int(action.get("resp_bytes", 0))
            )
        elif op == "ext_in":
            if self.border is None:
                raise ScenarioError("ext_in requires a border gateway")
            pkt = self._make_ip_packet(
                action.get("src", str(DEFAULT_EXT_SRC)), action["dst"],
                int(action.get("bytes", 0)), int(action.get("proto", 17)),
            )
            self.border.ingress(pkt)

    def _nap(self, client) -> Nap:
        gw = self.gateways[int(client)]
        if not isinstance(gw, Nap):
            raise ScenarioError(f"client {client} is not a NAP")
        return gw

    def _make_ip_packet(self, src: str, dst: str, size: int, proto: int) -> IpPacket:
        pid = self._alloc_packet_id()
        pkt = IpPacket(
            src=ipaddress.IPv4Address(src),
            dst=ipaddress.IPv4Address(dst),
            proto=proto,
            id=pid,
            payload=synth_bytes(f"{src}>{dst}#{pid}", size),
        )
        self.sent_ip[pid] = pkt
        self.send_time[pid] = self.now
        return pkt

    def run(self, max_time_us: int = DEFAULT_MAX_TIME_US) -> KpiReport:
        if self.border is not None:
            self.queue.push(0, self.border.start)
        for action in self.scenario.workload:
            self.queue.push(int(action["t_us"]), lambda a=action: self._inject(a))
        self._drain(max_time_us)
        gw_counters: Counter[str] = Counter()
        for client in sorted(self.gateways):
            gw_counters.update(self.gateways[client].counters)
        return self._build_report(gw_counters)


class BaselineSimulation(_AccountingMixin):
    """Plain-IP unicast reference: shortest-path routing, no control plane."""

    def __init__(
        self,
        topo: TopologyDoc,
        scenario: Scenario,
        *,
        collect_trace: bool = False,
    ) -> None:
        self.graph = topo.graph
        self.scenario = scenario
        self._init_accounting(collect_trace)
        self.operator_prefixes = tuple(p for nap in topo.naps for p in nap.prefixes)
        self.nap_nodes = {cfg.client: cfg.node for cfg in topo.naps}
        self.nap_prefixes = {cfg.client: cfg.prefixes for cfg in topo.naps}
        self.border = topo.border
        self._addr_at: dict[ipaddress.IPv4Address, tuple[ClientId, int]] = {}
        self._fqdn_at: dict[str, tuple[ClientId, int]] = {}
        self.peer_log: list[tuple[int, IpPacket]] = []
        self.device_log: dict[ClientId, list[IpPacket]] = {}
        self.http_bodies: list[tuple[ClientId, str, str, bytes]] = []
        _validate_workload(
            scenario, set(self.nap_nodes) | ({self.border.client} if self.border else set())
        )

    def _path(self, src: int, dst: int) -> list[Link]:
        pred = dijkstra(self.graph, src)
        links: list[Link] = []
        node = dst
        while node != src:
            parent = pred[node]
            links.append(self.graph.link(parent, node))
            node = parent
        links.reverse()
        return links

    def _route(
        self, src: int, dst: int, size: int, on_arrive: Callable[[], None]
    ) -> None:
        """Send `size` wire bytes hop-by-hop from node src to node dst."""
        path = self._path(src, dst)

        def hop(index: int) -> None:
            if index == len(path):
                on_arrive()
                return
            link = path[index]
            self._count_link(link, size, control=False)
            self._trace_row(link.src, "data", link, size, "-")
            arrival = self.now + link.delay_us + _serialization_us(size, link.capacity_bps)
            self.queue.push(arrival, lambda: hop(index + 1))

        hop(0)

    def _nap_node(self, client) -> int:
        client = int(client)
        if client not in self.nap_nodes:
            raise ScenarioError(f"client {client} is not a NAP")
        return self.nap_nodes[client]

    def _inject(self, action: dict) -> None:
        op = action["op"]
        if op == "attach":
            client = int(action["client"])
            node = self._nap_node(client)
            addr = ipaddress.IPv4Address(action["addr"])
            if not any(addr in p for p in self.nap_prefixes[client]):
                raise ScenarioError(f"{addr} outside prefixes of client {client}")
            if addr in self._addr_at:
                raise ScenarioError(f"{addr} attached twice")
            self._addr_at[addr] = (client, node)
        elif op == "send_ip":
            client = int(action["client"])
            pkt = self._make_ip_packet(
                action["src"], action["dst"], int(action.get("bytes", 0)),
                int(action.get("proto", 17)),
            )
            self._route_ip(self._nap_node(client), pkt)
        elif op == "ext_in":
            if self.border is None:
                raise ScenarioError("ext_in requires a border gateway")
            pkt = self._make_ip_packet(
                action.get("src", str(DEFAULT_EXT_SRC)), action["dst"],
                int(action.get("bytes", 0)), int(action.get("proto", 17)),
            )
            if not any(pkt.dst in p for p in self.operator_prefixes):
                self.counters["drops"] += 1
                return
            self._route_ip(self.border.node, pkt)
        elif op == "http_serve":
            client = int(action["client"])
            self._fqdn_at[action["fqdn"]] = (client, self._nap_node(client))
        elif op == "http_get":
            self._http_get(action)

    def _make_ip_packet(self, src: str, dst: str, size: int, proto: int) -> IpPacket:
        pid = self._alloc_packet_id()
        pkt = IpPacket(
            src=ipaddress.IPv4Address(src),
            dst=ipaddress.IPv4Address(dst),
            proto=proto,
            id=pid,
            payload=synth_bytes(f"{src}>{dst}#{pid}", size),
        )
        self.sent_ip[pid] = pkt
        self.send_time[pid] = self.now
        return pkt

    def _route_ip(self, from_node: int, pkt: IpPacket) -> None:
        size = len(encode_ip_packet(pkt))
        internal = any(pkt.dst in p for p in self.operator_prefixes)
        if internal:
            target = self._addr_at.get(pkt.dst)
            if target is None:
                self.counters["drops"] += 1
                return
            client, node = target
            self._route(from_node, node, size,
                        lambda: self._deliver_ip(client, pkt))
        else:
            if self.border is None:
                self.counters["drops"] += 1
                return
            self._route(from_node, self.border.node, size,
                        lambda: self._deliver_peer(pkt))

    def _deliver_ip(self, client: ClientId, pkt: IpPacket) -> None:
        self.device_log.setdefault(client, []).append(pkt)
        self._record_ip_flow(pkt, client)

    def _deliver_peer(self, pkt: IpPacket) -> None:
        self.peer_log.append((self.now, pkt))
        self._record_ip_flow(pkt, self.border.client)

    def _http_get(self, action: dict) -> None:
        client = int(action["client"])
        fqdn, url = action["fqdn"], action["url"]
        resp_bytes = int(action.get("resp_bytes", 0))
        self._note_http_issue(client, fqdn, url)
        served = self._fqdn_at.get(fqdn)
        if served is None:
            self.counters["unroutable_http"] += 1
            return
        _, server_node = served
        client_node = self._nap_node(client)
        request = json.dumps(
            {"client": client, "fqdn": fqdn, "resp_bytes": resp_bytes, "url": url},
            sort_keys=True,
        ).encode()
        req_size = len(request) + 17  # same encapsulation overhead as send_ip

        def respond() -> None:
            body = synth_bytes(f"{fqdn}{url}", resp_bytes)
            chunks = [
                body[off : off + 65507] for off in range(0, len(body), 65507)
            ] or [b""]
            remaining = {"n": len(chunks)}

            def chunk_arrived() -> None:
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    self.http_bodies.append((client, fqdn, url, body))
                    self._record_http_flow(client, fqdn, url, body)

            for chunk in chunks:
                self._route(server_node, client_node, len(chunk) + 17, chunk_arrived)

        self._route(client_node, server_node, req_size, respond)

    def run(self, max_time_us: int = DEFAULT_MAX_TIME_US) -> KpiReport:
        for action in self.scenario.workload:
            self.queue.push(int(action["t_us"]), lambda a=action: self._inject(a))
        self._drain(max_time_us)
        return self._build_report(Counter())


def _resolve_topology(
    scenario: Scenario, topology: TopologyDoc | dict | str | None, seed: int
) -> TopologyDoc:
    source = topology if topology is not None else scenario.topology
    if source is None:
        raise ScenarioError("no topology given (argument or scenario field)")
    if isinstance(source, TopologyDoc):
        return source
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        source = Path(source).read_text()
    return load_topology_doc(source, seed)


def _effective_seed(scenario: Scenario, seed: int | None) -> int:
    return seed if seed is not None else scenario.seed


def run(
    scenario: Scenario,
    topology: TopologyDoc | dict | str | None = None,
    *,
    seed: int | None = None,
    window_us: int | None = None,
    ideal_control: bool = False,
    collect_trace: bool = False,
    max_time_us: int = DEFAULT_MAX_TIME_US,
) -> KpiReport:
    """Run the scenario in ICN mode and report KPIs."""
    eff_seed = _effective_seed(scenario, seed)
    topo = _resolve_topology(scenario, topology, eff_seed)
    sim = IcnSimulation(
        topo, scenario, window_us=window_us, ideal_control=ideal_control,
        collect_trace=collect_trace,
    )
    return sim.run(max_time_us)


def run_ip_baseline(
    scenario: Scenario,
    topology: TopologyDoc | dict | str | None = None,
    *,
    seed: int | None = None,
    collect_trace: bool = False,
    max_time_us: int = DEFAULT_MAX_TIME_US,
) -> KpiReport:
    """Run the scenario against the plain-IP unicast baseline."""
    eff_seed = _effective_seed(scenario, seed)
    topo = _resolve_topology(scenario, topology, eff_seed)
    sim = BaselineSimulation(topo, scenario, collect_trace=collect_trace)
    return sim.run(max_time_us)


def compare(
    scenario: Scenario,
    topology: TopologyDoc | dict | str | None = None,
    *,
    seed: int | None = None,
    window_us: int | None = None,
    ideal_control: bool = False,
    max_time_us: int = DEFAULT_MAX_TIME_US,
) -> ComparisonReport:
    """Run both modes and report per-link ratios and bottleneck savings."""
    icn = run(
        scenario, topology, seed=seed, window_us=window_us,
        ideal_control=ideal_control, max_time_us=max_time_us,
    )
    baseline = run_ip_baseline(scenario, topology, seed=seed, max_time_us=max_time_us)

    links: dict[str, dict] = {}
    for key in icn.per_link:
        icn_d = icn.per_link[key]["data_bytes"]
        base_d = baseline.per_link[key]["data_bytes"]
        if base_d == 0:
            ratio = 1.0 if icn_d == 0 else None
        else:
            ratio = round(icn_d / base_d, 6)
        links[key] = {
            "baseline_data_bytes": base_d,
            "data_ratio": ratio,
            "icn_data_bytes": icn_d,
        }

    bottleneck_key = max(
        sorted(links), key=lambda k: links[k]["baseline_data_bytes"]
    ) if links else None
    if bottleneck_key is None:
        bottleneck = {"link": None, "savings_factor": 1.0}
    else:
        base_d = links[bottleneck_key]["baseline_data_bytes"]
        icn_d = links[bottleneck_key]["icn_data_bytes"]
        if icn_d == 0:
            savings = 1.0 if base_d == 0 else None
        else:
            savings = round(base_d / icn_d, 6)
        bottleneck = {
            "baseline_data_bytes": base_d,
            "icn_data_bytes": icn_d,
            "link": bottleneck_key,
            "savings_factor": savings,
        }

    overhead = {
        "baseline_pct": baseline.totals["signalling_overhead_pct"],
        "delta_pct": round(
            icn.totals["signalling_overhead_pct"]
            - baseline.totals["signalling_overhead_pct"],
            4,
        ),
        "icn_pct": icn.totals["signalling_overhead_pct"],
    }
    return ComparisonReport(
        icn=icn, baseline=baseline, links=links, bottleneck=bottleneck,
        overhead=overhead,
    )
