"""Deterministic discrete-event simulation of the IP-over-ICN system.

One simulation instance wires NAPs, the border gateway, the rendezvous and
the topology manager onto a loaded graph and drains a timed workload to
quiescence. Control messages go to and from the RV/TM node (the lowest
node id); data travels by forwarding-identifier mask matching. The same
scenario can run against a plain-IP unicast baseline that routes every
packet and every HTTP response copy along shortest paths with no control
plane at all.

Links have no queues, so every hop of a message is fixed when it is sent,
and every message is sent over its whole path in one step; only the
arrivals where something acts are queued. Every path is a `routes.Route`:
a baseline route or a control path is a chain, a delivery plan a tree.
A route whose links share one capacity carries a message of any size in
one step and bills it once, to its own total; link counters take the
totals when a report is built. Mixed capacities, a delivery plan that is
not clean and a message that does not arrive everywhere by the run's time
limit walk hop by hop, by `Route.walk`, each hop that starts by the limit
billed then. A trace sink only observes: carried or walked, every hop is
traced when it is sent, stamped with its start, so rows come in send order.
- Baseline and ICN control messages walk by `_walk`. The baseline queues
  the arrival at the path's end. A control message queues its handler at
  the arrival from the start of its last hop: when it is sent for a
  one-hop path, else by one event queued there. So, up to two hops, the
  arrival ties with other events as if each hop took its own. RV and TM
  share a node, so the TM handles each match event of an RV operation in
  the event where the RV takes it: an event due at the same time that
  runs after it, an emission say, already sees the new tree. A teardown
  builds no tree: `handle_match` would answer the zero fid.
- An ICN copy replays its delivery plan, built once per (fid, emitting
  node, TTL, tree edges) from the forwarding answers and kept in one
  least-recently-emitted table, `_plans`: the links every copy the
  emission makes crosses, each with its parent crossing and its flags
  (off the tree, TTL spent there), and, if the plan is clean (no crossing
  flagged, every copy ending at a gateway node), the arrivals at gateway
  nodes. The replay queues one hand-off per arrival at a node where a
  gateway may take the copy's name (`may_take`), to those gateways only.
  Each gateway that may not is counted in `fp_deliveries` without a
  call or an event: when the copy is emitted for a carried copy, which
  arrives everywhere by the limit, and for a walked arrival only if it
  arrives by the limit. Only a clean plan is carried in one step, so the
  walk alone counts off-tree forwards and TTL drops, a drop only if it is
  reached by the limit, and times a copy's last arrival handed to no
  gateway.

A packet an op sends is made without its payload, which is built only if
read (see `_ip_payload`); a run reads only its size, in the encapsulation's
length and the trace, so it builds none.

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
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

from .forwarding import IcnPacket, forward, wire_size
from .gateways import (
    DEFAULT_WINDOW_US,
    IP_HEADER_SIZE,
    MAX_IP_PAYLOAD,
    MAX_RESPONSE_BYTES,
    AddressPlan,
    BorderGateway,
    HttpResponse,
    IpPacket,
    Nap,
    assign_address,
    body_segments,
    check_window,
    encode_ip_packet,  # unused here; perfbench's tracer expects this module to bind it
    http_request_size,
    synth_bytes,
)
from .names import IcnName, render_name
from .rendezvous import ClientId, MatchEvent, Rendezvous
from .routes import OFF_TREE, TTL_DROP, Plan, Route, serialization_us
from .topology import (
    FidDelivery,
    Link,
    TopologyDoc,
    brief,
    dijkstra,
    handle_match,
    load_json_object,
    load_topology_doc,
    path_links,
    tree_for_match,
)

DEFAULT_MAX_TIME_US = 60_000_000
DEFAULT_EXT_SRC = "203.0.113.1"

# control payloads are sized, never built: client id u32 | operation flag u8
# towards the RV; publisher u32 | fid 32 bytes | local flag u8 back from the TM
_REQUEST_PAYLOAD = 4 + 1
_FID_PAYLOAD = 4 + 32 + 1

_NO_EDGES: frozenset[Link] = frozenset()  # a copy emitted on no standing tree
_END_OF_OPS = {"t_us": math.inf}  # `_drain`'s sentinel after the last op
_LOOSE_FIDS = 64  # delivery plans kept beyond one per standing tree


def _ip_payload(pkt: IpPacket) -> bytes:
    """The filler payload of a packet an op sends. An address's text is
    the op's, as an IPv4 address parses from its one canonical form."""
    return synth_bytes(f"{pkt.src}>{pkt.dst}#{pkt.id}", pkt.size)


# (field, JSON type, bound, default) per field of each workload op: an
# integer with a bound must lie in 0..bound, a string with a bound must not
# be empty and must encode as UTF-8, and a field whose default is None is required
_CLIENT, _FQDN = ("client", int, None, None), ("fqdn", str, True, None)
_SRC, _DST = ("src", str, None, None), ("dst", str, None, None)
_SIZES = (("bytes", int, MAX_IP_PAYLOAD, 0), ("proto", int, 255, 17))
_OP_FIELDS = {
    "attach": (_CLIENT, ("addr", str, None, None)),
    "send_ip": (_CLIENT, _SRC, _DST, *_SIZES),
    "http_serve": (_CLIENT, _FQDN),
    "http_get": (_CLIENT, _FQDN, ("url", str, True, None),
                 ("resp_bytes", int, MAX_RESPONSE_BYTES, 0)),
    "ext_in": (("src", str, None, ""), _DST, *_SIZES),
}


def _utf8(text: str) -> bool:
    """Whether `text` is not empty and encodes as UTF-8, as no lone surrogate does."""
    try:
        return text.encode() != b""
    except UnicodeEncodeError:
        return False


class ScenarioError(ValueError):
    """Malformed scenario document."""


class UnknownClientError(ScenarioError):
    """Scenario references a client with no gateway in the topology."""


@dataclass(frozen=True)
class Scenario:
    """A timed workload plus run parameters; `seed` sets the link masks of
    a topology loaded from a dict or JSON text for it.

    Building one checks every op's fields, the mode and the seed, and keeps
    `workload` (a list or a tuple) as one tuple of the op dicts stably sorted
    by `t_us`, the run order of every simulation; those check what the ops name.
    """

    workload: tuple[dict, ...]
    mode: str = "icn"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("icn", "ip", "compare"):
            raise ScenarioError(f"unknown mode: {brief(self.mode)}")
        if not isinstance(self.workload, (list, tuple)):
            raise ScenarioError("workload must be a list")
        for action in self.workload:
            if not isinstance(action, dict):
                raise ScenarioError("workload entries must be objects")
            op = action.get("op")
            fields = _OP_FIELDS.get(op) if isinstance(op, str) else None
            if fields is None:
                raise ScenarioError(f"unknown workload op: {brief(op)}")
            t_us = action.get("t_us", -1)
            if type(t_us) is not int:  # a JSON integer: not 1.9, "100", true or 1e3
                raise ScenarioError(f"workload op {op!r} has a non-integer t_us")
            if t_us < 0:
                raise ScenarioError(f"workload op {op!r} needs a non-negative t_us")
            for key, kind, bound, default in fields:
                value = action.get(key, default)
                if type(value) is not kind or bound is not None and not (
                        value.isascii() and value or _utf8(value) if kind is str
                        else 0 <= value <= bound):
                    if key not in action:
                        raise ScenarioError(f"workload op {op!r} needs {key!r}")
                    raise ScenarioError(
                        f"workload op {op!r} has an invalid {key!r}: {brief(value)}")
        if type(self.seed) is not int:  # a JSON integer, as t_us: not 1.9, "7", true or 1e3
            raise ScenarioError("scenario seed is not an integer")
        if self.seed < 0:  # it would give the link masks of its absolute value
            raise ScenarioError(f"scenario seed must not be negative, got {brief(self.seed)}")
        object.__setattr__(self, "workload", tuple(sorted(self.workload, key=itemgetter("t_us"))))


def load_scenario(doc: dict | str) -> Scenario:
    doc = load_json_object(doc, "scenario", ScenarioError)
    return Scenario(
        workload=doc.get("workload", []), mode=doc.get("mode", "icn"), seed=doc.get("seed", 1))


@dataclass
class KpiReport:
    """Per-link byte counters, flow statistics and loss/anomaly counters."""

    per_link: dict[str, dict[str, int]]
    totals: dict[str, int | float]
    flows: dict[str, dict[str, int]]
    counters: dict[str, int]

    def to_canonical_json(self) -> str:
        return _canonical_json(self)


@dataclass
class ComparisonReport:
    """Side-by-side ICN vs plain-IP results for one scenario."""

    icn: KpiReport
    baseline: KpiReport
    links: dict[str, dict]
    bottleneck: dict
    overhead: dict

    def to_canonical_json(self) -> str:
        return _canonical_json(self)


def _canonical_json(report: KpiReport | ComparisonReport) -> str:
    """A report as compact JSON with every object's keys sorted; a nested
    report is written as its fields. A report is a tree, so no cycle check."""
    return json.dumps(report, default=vars, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


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


def _noop() -> None:
    pass


def _flow_stats(count: int, latency_sum: int, _last: int, gap_sum: int,
                gap_squares: int) -> dict[str, int]:
    """delivered count, mean latency, and inter-arrival jitter for a flow
    from its folded record (see `_AccountingMixin._fold`).

    Jitter is the population standard deviation of consecutive arrival
    gaps, computed in integer math so reports never carry float noise.
    """
    gaps = count - 1
    jitter = math.isqrt(gaps * gap_squares - gap_sum ** 2) // gaps if gaps else 0
    return {"delivered": count, "latency_us": latency_sum // count, "jitter_us": jitter}


class _AccountingMixin:
    """What both simulations share: the checked workload, the address plan,
    HTTP servers, per-link byte counters, per-flow records and the trace
    sink."""

    def __init__(
        self, topo: TopologyDoc, scenario: Scenario, trace: Callable[[str], None] | None
    ) -> None:
        self.graph = topo.graph
        self.scenario = scenario
        self._addresses = _check_workload(topo, scenario.workload)
        self.operator_plan = AddressPlan(p for nap in topo.naps for p in nap.prefixes)
        self.now = 0
        self.queue = _EventQueue()
        self.link_bytes: dict[tuple[int, int], list[int]] = {
            (l.src, l.dst): [0, 0] for l in self.graph.links  # [control, data]
        }
        self.counters: Counter[str] = Counter()
        # flow -> [count, latency sum, last arrival, gap sum, gap square sum]
        self._flows: dict[str, list[int]] = {}
        # packet id -> (send time, flow key) until the packet is delivered or dropped
        self.send_time: dict[int, tuple[int, str]] = {}
        self._ip_flows: dict[tuple[str, str], str] = {}
        self._http_servers: dict[str, ClientId] = {}  # fqdn -> client, by http_serve
        # (client, fqdn, url) -> issue times of its routable fetches in flight
        self._http_issue: dict[tuple[ClientId, str, str], deque[int]] = {}
        self._next_packet_id = 1
        self._trace = trace
        self._max_time_us = DEFAULT_MAX_TIME_US  # the limit of the current run
        self._ran = False  # a simulation runs its ops once: see `_start_run`

    def _trace_row(
        self, node: int, event: str, link: Link | None, size: int, name: object,
        time_us: int | None = None,
    ) -> None:
        """Pass one trace row, stamped `time_us` (default: now), to the sink;
        `name` is an `IcnName`, an address or "-". The row is formatted only
        when there is a sink."""
        if self._trace is not None:
            link_text = "-" if link is None else f"{link.src}->{link.dst}"
            name_text = render_name(name) if isinstance(name, IcnName) else name
            stamp = self.now if time_us is None else time_us
            self._trace(f"{stamp},{node},{event},{link_text},{size},{name_text}")

    def _walk(self, route: Route, sizes: Sequence[int], slot: int, name: object,
              end: int | None = None) -> int:
        """Send a packet of each of `sizes` wire bytes under `name` over
        `route` now by `route.walk`, tracing each hop now, stamped with its
        start; return when the last arrives. `end` is `route.carry`'s answer:
        a message it carried is only traced, and `end` returned. One it did
        not (mixed capacities, or past the run's time limit) is billed to
        byte slot `slot` (0 control, 1 data) on each hop that starts by the
        limit; cut there, it returns the arrival of its last hop, the first
        past the limit, so an event queued there ends the run."""
        now, last, link_bytes = self.now, self.now, self.link_bytes
        for size in sizes:
            for _, link, start, arrive in route.walk(now, size, self._max_time_us):
                if end is None:
                    link_bytes[link.src, link.dst][slot] += size
                self._trace_row(link.src, "data" if slot else "ctrl", link, size, name, start)
                if arrive > last:
                    last = arrive
        return last if end is None else end

    def _record_ip_flow(self, ip: IpPacket) -> bool:
        """Record `ip`'s delivery, or count a duplicate and return False: an IP
        id has one destination, and drop sites free only unemitted packets."""
        entry = self.send_time.pop(ip.id, None)
        if entry is None:
            self.counters["duplicates"] += 1
            return False
        sent, flow = entry
        self._fold(flow, self.now - sent)
        return True

    def note_ip_dropped(self, ip: IpPacket) -> None:
        """`ip` will never be delivered (the baseline's drop sites and the ICN
        gateways report it here): count the drop and forget when it was sent."""
        self.counters["drops"] += 1
        del self.send_time[ip.id]

    def _record_http_flow(self, client: ClientId, fqdn: str, url: str) -> None:
        key = (client, fqdn, url)
        pending = self._http_issue[key]
        issued = pending.popleft()
        if not pending:
            del self._http_issue[key]
        self._fold(f"http:{client}:{fqdn}{url}", self.now - issued)

    def _fold(self, flow: str, latency_us: int) -> None:
        """Add an arrival now, `latency_us` after its send, to `flow`'s record."""
        record = self._flows.get(flow)
        if record is None:
            self._flows[flow] = [1, latency_us, self.now, 0, 0]
            return
        gap = self.now - record[2]
        record[0] += 1
        record[1] += latency_us
        record[2] = self.now
        record[3] += gap
        record[4] += gap * gap

    def _issue_http(self, action: dict) -> ClientId | None:
        """The server of an `http_get`'s FQDN, noting the fetch's issue time;
        None, counted `unroutable_http`, if no `http_serve` of it ran yet."""
        server = self._http_servers.get(action["fqdn"])
        if server is None:
            self.counters["unroutable_http"] += 1
            return None
        key = (action["client"], action["fqdn"], action["url"])
        issued = self._http_issue.get(key)
        if issued is None:
            issued = self._http_issue[key] = deque()
        issued.append(self.now)
        return server

    def _make_ip_packet(self, action: dict) -> IpPacket:
        """The packet a `send_ip` or `ext_in` op sends; its payload is made
        only if read (see `_ip_payload`)."""
        pid = self._next_packet_id
        self._next_packet_id += 1
        src, dst = action.get("src", DEFAULT_EXT_SRC), action["dst"]
        src_addr, dst_addr = self._addresses[src], self._addresses[dst]
        flow = self._ip_flows.get((src, dst))
        if flow is None:
            flow = self._ip_flows[(src, dst)] = f"ip:{src_addr}->{dst_addr}"
        self.send_time[pid] = (self.now, flow)
        return IpPacket.of_size(src_addr, dst_addr, action.get("proto", 17), pid,
                                action.get("bytes", 0), _ip_payload)

    def _start_run(self) -> None:
        """Begin the one run a simulation makes: a second would inject every op again."""
        if self._ran:
            raise RuntimeError("a simulation runs once: build a new one to run again")
        self._ran = True

    def _drain(self, max_time_us: int) -> None:
        """Run the scenario's ops, read in place from its run-order tuple, and
        the queued events in time order, until both run out or the next is
        due after `max_time_us`. At equal times an op runs after the events
        queued before the run and before those the run queues, as it did
        when every op was queued up front."""
        self._max_time_us = max_time_us
        queue, heap = self.queue, self.queue._heap
        before_run = queue._seq
        for action in chain(self.scenario.workload, (_END_OF_OPS,)):
            t_us = action["t_us"]
            # heap entries are (time, seq, fn): this holds for an entry due
            # before the op, or due with it and queued before the run
            while heap and heap[0] < (t_us, before_run):
                time_us, fn = queue.pop()
                if time_us > max_time_us:
                    self.counters["time_limit_hits"] += 1
                    return
                self.now = time_us
                fn()
            if action is _END_OF_OPS:
                return
            if t_us > max_time_us:
                self.counters["time_limit_hits"] += 1
                return
            self.now = t_us
            self._inject(action)

    def _build_report(self, extra_counters: Counter[str]) -> KpiReport:
        for slot, routes in self._billers:  # each route's and plan's bytes onto its links
            for route in routes.values():
                route.fold(self.link_bytes, slot)
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
                # reserved and always 0: no packet other than data exists, but
                # every pinned report and benchmark digest hashes this key
                "protocol_violations": 0,
                "ttl_drops": 0,
                "unroutable_http": 0,
            }
        )
        counters.update(self.counters)
        counters.update(extra_counters)
        return KpiReport(
            per_link={
                f"{src}->{dst}": {"control_bytes": v[0], "data_bytes": v[1]}
                for (src, dst), v in self.link_bytes.items()
            },
            totals={
                "control_bytes": control,
                "data_bytes": data,
                "signalling_overhead_pct": overhead,
            },
            flows={flow: _flow_stats(*record) for flow, record in self._flows.items()},
            counters=dict(counters),
        )


def _check_workload(topo: TopologyDoc,
                    ops: tuple[dict, ...]) -> dict[str, ipaddress.IPv4Address]:
    """Check what each op of a scenario's run order refers to, so that no run
    meets a bad reference. Return each address string the ops name, parsed
    once."""
    naps = {cfg.client: cfg for cfg in topo.naps}
    # keyed by int or by text: IPv4Address hashing is slow
    attached: set[int] = set()
    owner: dict[str, ClientId] = {}
    server: dict[str, ClientId] = {}
    addresses: dict[str, ipaddress.IPv4Address] = {}

    def parse(text: str) -> ipaddress.IPv4Address:
        if text not in addresses:
            try:
                addresses[text] = ipaddress.IPv4Address(text)
            except ValueError:
                raise ScenarioError(f"invalid IPv4 address {brief(text)}") from None
        return addresses[text]

    for action in ops:
        op = action["op"]
        if op == "ext_in":
            if topo.border is None:
                raise ScenarioError("ext_in requires a border gateway")
            parse(action.get("src", DEFAULT_EXT_SRC))
            parse(action["dst"])
            continue
        client = action["client"]
        nap = naps.get(client)
        if nap is None:
            if topo.border is None or client != topo.border.client:
                raise UnknownClientError(f"workload references unknown client {brief(client)}")
            raise ScenarioError(f"client {client} is not a NAP")
        if op == "attach":
            attached.add(int(assign_address(parse(action["addr"]), nap.prefixes, attached)))
            owner[action["addr"]] = client
        elif op == "send_ip":
            src = action["src"]
            parse(action["dst"])
            if owner.get(src) != client:
                raise ScenarioError(f"send_ip source {brief(src)} not attached at client {client}")
        elif op == "http_serve":
            fqdn = action["fqdn"]
            if server.setdefault(fqdn, client) != client:
                raise ScenarioError(f"{brief(fqdn)} is already served by client {server[fqdn]}")
    return addresses


class IcnSimulation(_AccountingMixin):
    """Full publish/subscribe run: gateways + RV + TM + mask forwarding."""

    def __init__(
        self,
        topo: TopologyDoc,
        scenario: Scenario,
        *,
        window_us: int = DEFAULT_WINDOW_US,
        ideal_control: bool = False,
        trace: Callable[[str], None] | None = None,
    ) -> None:
        check_window(window_us)
        super().__init__(topo, scenario, trace)
        self.ideal_control = ideal_control

        self.rv_node = min(self.graph.nodes)
        self.rv = Rendezvous()

        plan = self.operator_plan  # shared by all gateways
        self.gateways: dict[ClientId, Nap | BorderGateway] = {
            cfg.client: Nap(self, cfg.client, cfg.node, cfg.prefixes, plan, window_us=window_us)
            for cfg in topo.naps
        }
        self.border: BorderGateway | None = None
        if topo.border is not None:
            self.border = BorderGateway(self, topo.border.client, topo.border.node, plan)
            self.gateways[topo.border.client] = self.border

        self._gateways_at: dict[int, tuple[Nap | BorderGateway, ...]] = {}
        for client in sorted(self.gateways):
            gw = self.gateways[client]
            self._gateways_at[gw.node] = self._gateways_at.get(gw.node, ()) + (gw,)

        # each gateway node's control paths from and to the RV; the graph is fixed
        pred = dijkstra(self.graph, self.rv_node)
        self._from_rv = {node: Route(path_links(self.graph, pred, self.rv_node, node))
                         for node in self._gateways_at}
        self._to_rv = {node: Route([self.graph.link(l.dst, l.src) for l in reversed(path)])
                       for node, path in self._from_rv.items()}

        self._tree_edges: dict[tuple[ClientId, IcnName], frozenset[Link]] = {}
        # delivery plans by (fid, emitting node, TTL, tree edges), least
        # recently emitted first. A new plan drops the oldest beyond one per
        # standing tree plus _LOOSE_FIDS, so standing trees emitting in turn
        # never drop each other's, while copies emitted after their tree
        # went, and a tree rebuilt later over the same edges, so with the
        # same fid, still find theirs
        self._plans: dict[tuple[int, int, int, frozenset[Link]], Plan] = {}
        self._billers = ((0, self._to_rv), (0, self._from_rv), (1, self._plans))

    # -- environment interface used by the gateways ------------------------

    def now_us(self) -> int:
        return self.now

    def call_at(self, time_us: int, fn: Callable[[], None]) -> None:
        self.queue.push(max(time_us, self.now), fn)

    def subscribe(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(self.rv.subscribe, client, name)

    def unsubscribe(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(self.rv.unsubscribe, client, name)

    def publish_availability(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(self.rv.publish_availability, client, name)

    def unpublish(self, client: ClientId, name: IcnName) -> None:
        self._control_to_rv(self.rv.unpublish, client, name)

    def note_ip_delivered(self, client: ClientId, ip: IpPacket) -> None:
        if self._record_ip_flow(ip) and self._trace is not None:
            self._trace_row(self.gateways[client].node, "deliver", None, ip.size, ip.dst)

    def note_peer_emitted(self, client: ClientId, ip: IpPacket) -> None:
        if self._record_ip_flow(ip) and self._trace is not None:
            self._trace_row(self.gateways[client].node, "peer-out", None, ip.size, ip.dst)

    def note_http_complete(self, client: ClientId, response: HttpResponse) -> None:
        self._record_http_flow(client, response.fqdn, response.url)

    def transmit(self, client: ClientId, pkt: IcnPacket) -> None:
        """A gateway emits a data packet at its attachment node: hand it to
        the node's other gateways that may take it, counting the others in
        `fp_deliveries`, then send its copies on by the fid's delivery
        plan, both as the plan's hand-offs for the packet's name say (see
        `_handoffs`)."""
        gw = self.gateways[client]
        size = pkt.wire_size
        if self._trace is not None:
            self._trace_row(gw.node, "emit", None, size, pkt.name)
        meta = self._tree_edges.get((client, pkt.name), _NO_EDGES)
        key, plans = (pkt.fid, gw.node, pkt.ttl, meta), self._plans
        plan = plans.pop(key, None)
        if plan is None:
            while len(plans) >= len(self._tree_edges) + _LOOSE_FIDS:
                plans.pop(next(iter(plans))).fold(self.link_bytes, 1)
            plan = self._plan(gw.node, pkt, meta)
        plans[key] = plan
        here, unasked, skipped, handoffs = (plan.takers.get(pkt.name)
                                            or self._handoffs(plan, gw.node, pkt.name))
        unasked -= gw not in here  # the publisher is no bystander of its own copy
        if unasked:
            self.counters["fp_deliveries"] += unasked
        self._hand_off(here, pkt, gw)
        self._replay(gw.node, plan, pkt, size, skipped, handoffs)

    # -- control plane ------------------------------------------------------

    def _control_to_rv(self, operation: Callable[[ClientId, IcnName], list[MatchEvent]],
                       client: ClientId, name: IcnName) -> None:
        """Carry `client`'s request for `name` to the RV, which takes
        `operation` when it arrives. The TM shares the RV's node, so it
        handles each match event returned in that same event."""

        def arrive() -> None:
            for ev in operation(client, name):
                self._tm_handle(ev)

        path = self._to_rv[self.gateways[client].node]
        self._route_control(path, name, _REQUEST_PAYLOAD, arrive)

    def _tm_handle(self, ev: MatchEvent) -> None:
        key = (ev.publisher, ev.name)
        if ev.subscribers:  # a non-zero fid or a local subscriber: a tree stands
            tree = tree_for_match(self.graph, ev)
            fd = handle_match(self.graph, ev, tree)
            self._tree_edges[key] = tree.edges
        else:  # a teardown of a tree that stood: handle_match's answer, built directly
            fd = FidDelivery(ev.publisher, ev.name, 0)
            self._tree_edges.pop(key, None)
        gw = self.gateways[ev.publisher]
        self._route_control(self._from_rv[gw.node], ev.name, _FID_PAYLOAD,
                            lambda: gw.on_fid(fd))

    def _route_control(
        self, path: Route, name: IcnName, payload_len: int,
        handler: Callable[[], None],
    ) -> None:
        """Carry a control message under `name` over `path`, then call
        `handler`: in one step if `path.carry` can, else by `_walk`, which
        also traces a carried message's hops. The handler is queued at the
        arrival from the start of the last hop (by an event queued there,
        unless that is now), so the arrival takes its tie-break number at
        the moment it would if each hop took its own event; on paths of up
        to two hops, in the same order. An end past the run's time limit is
        queued as it is: there the run ends, and the handler never runs."""
        push = self.queue.push
        if self.ideal_control or not path:
            push(self.now, handler)
            return
        size = wire_size(name, payload_len)
        end = path.carry(self.now, size, size, self._max_time_us)
        if end is None or self._trace is not None:
            end = self._walk(path, (size,), 0, name, end)
        if len(path) == 1 or end > self._max_time_us:
            push(end, handler)
        else:
            last = path[-1]
            push(end - last.delay_us - serialization_us(size, last.capacity_bps),
                 lambda: push(end, handler))

    # -- data plane ----------------------------------------------------------

    @staticmethod
    def _takers(gateways: tuple[Nap | BorderGateway, ...],
                name: IcnName) -> tuple[tuple[Nap | BorderGateway, ...], int]:
        """Those of `gateways` that may take a copy under `name`, and how
        many others there are: those are handed no copy, and each is a
        refusal the caller counts in `fp_deliveries`."""
        takers = tuple([gw for gw in gateways if gw.may_take(name)])
        return takers, len(gateways) - len(takers)

    def _hand_off(self, takers: tuple[Nap | BorderGateway, ...], pkt: IcnPacket,
                  publisher: Nap | BorderGateway | None = None) -> None:
        """Hand a data copy to each of `takers` but its `publisher`, counting
        each refusal in `fp_deliveries`."""
        for gw in takers:
            if gw is not publisher and not gw.on_icn_data(pkt):
                self.counters["fp_deliveries"] += 1

    def _handoffs(self, plan: Plan, node: int, name: IcnName) -> tuple:
        """The hand-offs of a copy under `name` emitted at `node` by `plan`:
        the takers at `node` and how many gateways there may not take it
        (see `_takers`), and, if the plan is clean, how many gateways its
        arrivals skip and the delay sum, hops and takers of each arrival at
        a node where some gateway may take it, in walk order (else 0 and
        None). Kept in the plan per name (`plan.takers`), so each later
        emission makes one lookup."""
        gateways_at = self._gateways_at
        here, unasked = gateways_at[node], 0  # the publisher alone is handed nothing
        if len(here) > 1:
            here, unasked = self._takers(here, name)
        skipped, handoffs = 0, None
        if plan.handoffs is not None:
            kept, fields = [], iter(plan.handoffs)
            for delay_us, hops, far_node in zip(fields, fields, fields):
                takers, others = gateways_at[far_node], 0
                if len(takers) > 1:
                    takers, others = self._takers(takers, name)
                elif not takers[0].may_take(name):
                    takers, others = (), 1
                skipped += others
                if takers:
                    kept += delay_us, hops, takers
            handoffs = tuple(kept)
        entry = plan.takers[name] = (here, unasked, skipped, handoffs)
        return entry

    def _plan(self, node: int, pkt: IcnPacket, meta: frozenset[Link]) -> Plan:
        """The delivery plan of `pkt` emitted at `node` on the tree with edges
        `meta` (see `Plan.build`), asking forward() at each crossing's end.
        The matching links depend only on the node, the fid and the arrival
        link, never on the TTL, and every copy is the emitted packet: so
        only one emitted with TTL 1 needs a copy, of TTL 2, to pass
        forward()'s check."""
        probe = pkt if pkt.ttl > 1 else IcnPacket(pkt.fid, pkt.name, pkt.payload, 2)
        return Plan.build(node, pkt.ttl,
                          lambda node, in_link: forward(self.graph, node, probe, in_link),
                          meta, self._gateways_at)

    def _replay(self, node: int, plan: Plan, pkt: IcnPacket, size: int, skipped: int,
                handoffs: tuple | None) -> None:
        """Send `pkt`, `size` wire bytes, emitted now at `node`, by `plan`,
        queueing each arrival at a node where a gateway may take it as a
        hand-off to those that may (see `_takers`): in one step if the plan
        is clean (see `Plan`) and `plan.carry` can, each arrival then being
        the delay sum plus hops times one hop's serialization, as
        `handoffs` lists them (see `_handoffs`), the `skipped` gateways
        counted in `fp_deliveries` at once, as each copy arrives by the
        limit, and its crossings traced by `_walk`; else by
        `plan.walk`, each crossing that starts by the run's time limit
        billed, counted if off the tree and traced now, stamped with its
        start, and a TTL drop and the gateways an arrival skips counted only
        if its copy arrives by the limit. If the walk's last arrival is
        handed to no gateway, it is queued too, so the run's clock reaches
        it and a run cut before it counts `time_limit_hits`. A carried plan
        needs none: it arrives everywhere by the limit."""
        if not plan:  # no crossing: a copy spent here, where links matched, is a drop
            if plan.ttl_drops:
                self.counters["ttl_drops"] += 1
                self._trace_row(node, "ttl-drop", None, size, pkt.name)
            return
        now, limit, push = self.now, self._max_time_us, self.queue.push
        end = plan.carry(now, size, size, limit) if handoffs is not None else None
        if end is not None:
            hand_off = self._hand_off
            if skipped:
                self.counters["fp_deliveries"] += skipped
            hop_us = (end - now - plan.delay_us) // plan.hops  # one hop's serialization
            fields = iter(handoffs)
            for delay_us, hops, takers in zip(fields, fields, fields):
                push(now + delay_us + hops * hop_us, partial(hand_off, takers, pkt))
            if self._trace is not None:
                self._walk(plan, (size,), 1, pkt.name, end)
            return
        handed = last = now  # the latest arrival handed to a gateway, and elsewhere
        counters, link_bytes, flags = self.counters, self.link_bytes, plan.flags
        for index, link, start, arrive in plan.walk(now, size, limit):
            link_bytes[link.src, link.dst][1] += size
            flag = flags[index]
            if flag & OFF_TREE:
                counters["off_tree_forwards"] += 1
            self._trace_row(link.src, "data", link, size, pkt.name, start)
            takers, skipped = self._takers(self._gateways_at.get(link.dst, ()), pkt.name)
            if skipped and arrive <= limit:
                counters["fp_deliveries"] += skipped
            if takers:
                push(arrive, partial(self._hand_off, takers, pkt))
                if arrive > handed:
                    handed = arrive
            elif arrive > last:
                last = arrive
            if flag & TTL_DROP and arrive <= limit:
                counters["ttl_drops"] += 1
                self._trace_row(link.dst, "ttl-drop", None, size, pkt.name, arrive)
        if last > handed:
            push(last, _noop)

    # -- workload -------------------------------------------------------------

    def _inject(self, action: dict) -> None:
        op = action["op"]
        if op == "ext_in":
            self.border.ingress(self._make_ip_packet(action))
            return
        nap = self.gateways[action["client"]]
        if op == "attach":
            nap.attach_device(self._addresses[action["addr"]])
        elif op == "send_ip":
            nap.send_ip(self._make_ip_packet(action))
        elif op == "http_serve":
            self._http_servers[action["fqdn"]] = action["client"]
            nap.http_serve(action["fqdn"])
        elif op == "http_get":
            if self._issue_http(action) is not None:
                nap.http_get(action["fqdn"], action["url"], action.get("resp_bytes", 0))

    def run(self, max_time_us: int = DEFAULT_MAX_TIME_US) -> KpiReport:
        self._start_run()
        if self.border is not None:
            self.queue.push(0, self.border.start)
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
        trace: Callable[[str], None] | None = None,
    ) -> None:
        super().__init__(topo, scenario, trace)
        self.border = topo.border
        self._addr_at: dict[int, ClientId] = {}  # device address, by int -> its NAP
        self._routes: dict[tuple[int, int], Route] = {}  # the graph never changes
        self._billers = ((1, self._routes),)

    def _send(self, src: int, dst: int, sizes: list[int], on_arrive: Callable[[], None]) -> None:
        """Send one packet of each of `sizes` wire bytes from node src to node
        dst now by `Route.carry` or `_walk` and call `on_arrive`, once, when
        the last of them arrives: at once when src is dst, as no link is crossed."""
        if src == dst:
            on_arrive()
            return
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = Route(path_links(
                self.graph, dijkstra(self.graph, src), src, dst))
        end = route.carry(self.now, max(sizes), sum(sizes), self._max_time_us)
        if end is None or self._trace is not None:
            end = self._walk(route, sizes, 1, "-", end)
        self.queue.push(end, on_arrive)

    def _inject(self, action: dict) -> None:
        op = action["op"]
        if op == "attach":
            self._addr_at[int(self._addresses[action["addr"]])] = action["client"]
        elif op == "send_ip":
            self._route_ip(self.graph.attachments[action["client"]], self._make_ip_packet(action))
        elif op == "ext_in":
            pkt = self._make_ip_packet(action)
            if pkt.dst not in self.operator_plan:
                self.note_ip_dropped(pkt)
                return
            self._route_ip(self.border.node, pkt)
        elif op == "http_serve":
            self._http_servers[action["fqdn"]] = action["client"]
        elif op == "http_get":
            self._http_get(action)

    def _route_ip(self, from_node: int, pkt: IpPacket) -> None:
        size = IP_HEADER_SIZE + pkt.size  # the encapsulated packet's length, unbuilt
        if pkt.dst in self.operator_plan:
            client = self._addr_at.get(int(pkt.dst))
            if client is None:
                self.note_ip_dropped(pkt)
                return
            self._send(from_node, self.graph.attachments[client], [size],
                       lambda: self.note_ip_delivered(client, pkt))
        else:
            if self.border is None:
                self.note_ip_dropped(pkt)
                return
            self._send(from_node, self.border.node, [size],
                       lambda: self.note_peer_emitted(self.border.client, pkt))

    # the ICN gateways report arrivals through hooks of the same names
    def note_ip_delivered(self, client: ClientId, ip: IpPacket) -> None:
        self._record_ip_flow(ip)

    note_peer_emitted = note_ip_delivered

    def _http_get(self, action: dict) -> None:
        server = self._issue_http(action)
        if server is None:
            return
        client = action["client"]
        fqdn, url = action["fqdn"], action["url"]
        resp_bytes = action.get("resp_bytes", 0)
        server_node, client_node = self.graph.attachments[server], self.graph.attachments[client]
        # the request a NAP publishes, in the same encapsulation as send_ip
        req_size = http_request_size(client, fqdn, url, resp_bytes) + IP_HEADER_SIZE

        def respond() -> None:
            # each segment in its own IP packet
            self._send(server_node, client_node,
                       [length + IP_HEADER_SIZE for _, length in body_segments(resp_bytes)],
                       lambda: self._record_http_flow(client, fqdn, url))

        self._send(client_node, server_node, [req_size], respond)

    def run(self, max_time_us: int = DEFAULT_MAX_TIME_US) -> KpiReport:
        self._start_run()
        self._drain(max_time_us)
        return self._build_report(Counter())


def _load_topology(scenario: Scenario, topology: TopologyDoc | dict | str) -> TopologyDoc:
    """A `TopologyDoc` as is; a dict or JSON text loaded with the scenario's seed."""
    if isinstance(topology, TopologyDoc):
        return topology
    return load_topology_doc(topology, scenario.seed)


def run(
    scenario: Scenario,
    topology: TopologyDoc | dict | str,
    *,
    window_us: int = DEFAULT_WINDOW_US,
    ideal_control: bool = False,
) -> KpiReport:
    """Run the scenario in ICN mode and report KPIs."""
    topo = _load_topology(scenario, topology)
    sim = IcnSimulation(topo, scenario, window_us=window_us, ideal_control=ideal_control)
    return sim.run()


def run_ip_baseline(scenario: Scenario, topology: TopologyDoc | dict | str) -> KpiReport:
    """Run the scenario against the plain-IP unicast baseline."""
    return BaselineSimulation(_load_topology(scenario, topology), scenario).run()


def _ratio(num: int, den: int) -> float | None:
    """num / den to 6 places; 1.0 when both are 0, None when only den is."""
    if den == 0:
        return 1.0 if num == 0 else None
    return round(num / den, 6)


def compare(
    scenario: Scenario,
    topology: TopologyDoc | dict | str,
    *,
    window_us: int = DEFAULT_WINDOW_US,
    ideal_control: bool = False,
) -> ComparisonReport:
    """Run both modes on one loaded topology and report per-link ratios and
    bottleneck savings."""
    topo = _load_topology(scenario, topology)
    icn = run(scenario, topo, window_us=window_us, ideal_control=ideal_control)
    baseline = run_ip_baseline(scenario, topo)

    links: dict[str, dict] = {}
    for key in icn.per_link:
        icn_d = icn.per_link[key]["data_bytes"]
        base_d = baseline.per_link[key]["data_bytes"]
        links[key] = {
            "baseline_data_bytes": base_d,
            "data_ratio": _ratio(icn_d, base_d),
            "icn_data_bytes": icn_d,
        }

    bottleneck = {"link": None, "savings_factor": 1.0}
    if links:  # the link the baseline loads most; on a tie, the first in key order
        key = max(sorted(links), key=lambda k: links[k]["baseline_data_bytes"])
        base_d, icn_d = links[key]["baseline_data_bytes"], links[key]["icn_data_bytes"]
        bottleneck = {
            "baseline_data_bytes": base_d,
            "icn_data_bytes": icn_d,
            "link": key,
            "savings_factor": _ratio(base_d, icn_d),
        }

    icn_pct = icn.totals["signalling_overhead_pct"]
    base_pct = baseline.totals["signalling_overhead_pct"]
    overhead = {"baseline_pct": base_pct, "delta_pct": round(icn_pct - base_pct, 4),
                "icn_pct": icn_pct}
    return ComparisonReport(
        icn=icn, baseline=baseline, links=links, bottleneck=bottleneck,
        overhead=overhead,
    )
