"""Topology management: the network graph, delivery trees, forwarding ids.

The graph is loaded once from a JSON document and is immutable afterwards.
For every publication match the manager computes a publisher-rooted
shortest-path tree over link delay (deterministic tie-breaking by lowest
predecessor id), ORs the tree's link masks into a forwarding identifier and
hands that back to the publisher. Shortest-path predecessors are computed
once per root and kept on the graph.
"""

from __future__ import annotations

import heapq
import ipaddress
import json
import random
from dataclasses import dataclass, field

from .forwarding import gen_lid
from .names import IcnName
from .rendezvous import ClientId, MatchEvent

DEFAULT_DELAY_US = 1000
DEFAULT_CAPACITY_BPS = 1_000_000_000


class TopologyError(ValueError):
    """Invalid topology document or graph invariant violation."""


@dataclass(frozen=True)
class Link:
    """One directed link with its delay, capacity and forwarding mask."""

    src: int
    dst: int
    delay_us: int
    capacity_bps: int
    lid: int


@dataclass(frozen=True)
class NapConfig:
    client: ClientId
    node: int
    prefixes: tuple[ipaddress.IPv4Network, ...]


@dataclass(frozen=True)
class BorderConfig:
    client: ClientId
    node: int


@dataclass
class NetworkGraph:
    """Directed graph with per-client attachment points."""

    nodes: frozenset[int]
    links: tuple[Link, ...]
    attachments: dict[ClientId, int]
    _adjacency: dict[int, tuple[Link, ...]] = field(init=False, repr=False)
    _by_pair: dict[tuple[int, int], Link] = field(init=False, repr=False)
    # root -> predecessor map, filled by `dijkstra`
    _pred_by_root: dict[int, dict[int, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        adjacency: dict[int, list[Link]] = {n: [] for n in self.nodes}
        by_pair: dict[tuple[int, int], Link] = {}
        for link in self.links:
            adjacency[link.src].append(link)
            by_pair[(link.src, link.dst)] = link
        self._adjacency = {n: tuple(ls) for n, ls in adjacency.items()}
        self._by_pair = by_pair
        self._pred_by_root = {}

    def out_links(self, node: int) -> tuple[Link, ...]:
        return self._adjacency[node]

    def link(self, src: int, dst: int) -> Link:
        return self._by_pair[(src, dst)]

    def attach_node(self, client: ClientId) -> int:
        try:
            return self.attachments[client]
        except KeyError:
            raise TopologyError(f"client {client} has no attachment") from None

    def validate(self) -> None:
        """Check reverse-link pairing, mask distinctness and connectivity."""
        lids = [l.lid for l in self.links]
        if len(set(lids)) != len(lids):
            raise TopologyError("link masks are not pairwise distinct")
        for link in self.links:
            if (link.dst, link.src) not in self._by_pair:
                raise TopologyError(f"missing reverse of {link.src}->{link.dst}")
        if self.nodes:
            seen = {min(self.nodes)}
            frontier = [min(self.nodes)]
            while frontier:
                for link in self.out_links(frontier.pop()):
                    if link.dst not in seen:
                        seen.add(link.dst)
                        frontier.append(link.dst)
            if seen != self.nodes:
                missing = sorted(self.nodes - seen)
                raise TopologyError(f"graph is disconnected; unreachable: {missing}")


@dataclass
class TopologyDoc:
    """Parsed topology document: graph plus gateway placement."""

    graph: NetworkGraph
    naps: tuple[NapConfig, ...]
    border: BorderConfig | None


@dataclass(frozen=True)
class DeliveryTree:
    """Publisher-rooted tree spanning the subscriber attachment nodes."""

    root: int
    leaves: frozenset[int]
    edges: frozenset[Link]


@dataclass(frozen=True)
class FidDelivery:
    """Forwarding identifier handed to a publisher after a match.

    A zero fid with `local` unset means the subscriber set is empty:
    tear the cached entry down. `local` flags subscribers attached to the
    publisher's own node, reachable without crossing any link.
    """

    publisher: ClientId
    name: IcnName
    fid: int
    local: bool = False

    @property
    def teardown(self) -> bool:
        return self.fid == 0 and not self.local


def _entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise TopologyError(f"topology {key!r} must be a list of objects")
    return entries


# What reading an entry's integer fields raises when one is missing or malformed.
_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _field_error(what: str, entry: dict, exc: Exception) -> TopologyError:
    if isinstance(exc, KeyError):
        return TopologyError(f"{what} entry needs {exc}: {entry!r}")
    return TopologyError(f"{what} entry has a non-integer field: {entry!r}")


def load_topology_doc(doc: dict | str, seed: int) -> TopologyDoc:
    """Build the graph from a document (dict or JSON text), assigning link
    masks deterministically from `seed` in document order."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"topology is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a JSON object")

    nodes: list[int] = []
    for entry in _entries(doc, "nodes"):
        try:
            node_id = int(entry["id"])
        except _FIELD_ERRORS as exc:
            raise _field_error("node", entry, exc) from None
        if node_id in nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        nodes.append(node_id)
    if not nodes:
        raise TopologyError("topology has no nodes")
    node_set = frozenset(nodes)

    rng = random.Random(seed)
    used_lids: set[int] = set()

    def next_lid() -> int:
        lid = gen_lid(rng)
        while lid in used_lids:
            lid = gen_lid(rng)
        used_lids.add(lid)
        return lid

    links: list[Link] = []
    seen_pairs: set[tuple[int, int]] = set()
    for entry in _entries(doc, "links"):
        try:
            a, b = int(entry["a"]), int(entry["b"])
            delay = int(entry.get("delay_us", DEFAULT_DELAY_US))
            cap = int(entry.get("capacity_bps", DEFAULT_CAPACITY_BPS))
        except _FIELD_ERRORS as exc:
            raise _field_error("link", entry, exc) from None
        if a == b:
            raise TopologyError(f"self-loop link at node {a}")
        if a not in node_set or b not in node_set:
            raise TopologyError(f"link references unknown node: {a}-{b}")
        if (a, b) in seen_pairs or (b, a) in seen_pairs:
            raise TopologyError(f"duplicate link entry {a}-{b}")
        seen_pairs.add((a, b))
        if delay < 0 or cap <= 0:
            raise TopologyError(f"bad delay/capacity on link {a}-{b}")
        links.append(Link(a, b, delay, cap, next_lid()))
        links.append(Link(b, a, delay, cap, next_lid()))

    naps = []
    attachments: dict[ClientId, int] = {}
    for entry in _entries(doc, "naps"):
        try:
            client, node = int(entry["client"]), int(entry["node"])
        except _FIELD_ERRORS as exc:
            raise _field_error("nap", entry, exc) from None
        if node not in node_set:
            raise TopologyError(f"nap client {client} attached to unknown node {node}")
        if client in attachments:
            raise TopologyError(f"duplicate client id {client}")
        try:
            prefixes = tuple(
                ipaddress.IPv4Network(p) for p in entry.get("prefixes", [])
            )
        except (TypeError, ValueError) as exc:
            raise TopologyError(f"bad prefix on nap {client}: {exc}") from exc
        attachments[client] = node
        naps.append(NapConfig(client, node, prefixes))

    border = None
    entry = doc.get("border")
    if entry is not None:
        if not isinstance(entry, dict):
            raise TopologyError("topology 'border' must be an object")
        try:
            client, node = int(entry["client"]), int(entry["node"])
        except _FIELD_ERRORS as exc:
            raise _field_error("border", entry, exc) from None
        if node not in node_set:
            raise TopologyError(f"border attached to unknown node {node}")
        if client in attachments:
            raise TopologyError(f"duplicate client id {client}")
        attachments[client] = node
        border = BorderConfig(client, node)

    graph = NetworkGraph(node_set, tuple(links), attachments)
    graph.validate()
    return TopologyDoc(graph=graph, naps=tuple(naps), border=border)


def load_graph(doc: dict | str, seed: int) -> NetworkGraph:
    return load_topology_doc(doc, seed).graph


def dijkstra(g: NetworkGraph, root: int) -> dict[int, int]:
    """Deterministic least-delay predecessors of every node reached from `root`.

    The predecessor of a node is the lowest-id neighbour that attains its
    shortest distance, among neighbours settled before it, so equal-cost
    ties always break the same way and zero-delay links cannot form a
    cycle. Each root's map is computed once and stored on the graph, which
    must not change after load; the map is shared, so callers must not
    mutate it.
    """
    pred = g._pred_by_root.get(root)
    if pred is not None:
        return pred
    pred = {}
    dist: dict[int, int] = {root: 0}
    settled: set[int] = set()
    heap: list[tuple[int, int]] = [(0, root)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for link in g.out_links(node):
            dst = link.dst
            if dst in settled:
                continue
            nd = d + link.delay_us
            old = dist.get(dst)
            if old is None or nd < old:
                dist[dst] = nd
                pred[dst] = node
                heapq.heappush(heap, (nd, dst))
            elif nd == old and node < pred[dst]:
                pred[dst] = node
    g._pred_by_root[root] = pred
    return pred


def shortest_path_tree(
    g: NetworkGraph, root: int, leaves: set[int] | frozenset[int]
) -> DeliveryTree:
    """Union of least-delay root-to-leaf paths."""
    if root not in g.nodes:
        raise TopologyError(f"root {root} not in graph")
    unknown = set(leaves) - set(g.nodes)
    if unknown:
        raise TopologyError(f"leaves not in graph: {sorted(unknown)}")
    pred = dijkstra(g, root)
    unreachable = [leaf for leaf in leaves if leaf != root and leaf not in pred]
    if unreachable:
        raise TopologyError(f"unreachable leaves: {sorted(unreachable)}")
    edges: set[Link] = set()
    for leaf in leaves:
        node = leaf
        while node != root:
            parent = pred[node]
            edges.add(g.link(parent, node))
            node = parent
    return DeliveryTree(root=root, leaves=frozenset(leaves), edges=frozenset(edges))


def fid_for_tree(g: NetworkGraph, tree: DeliveryTree) -> int:
    """OR of the tree's link masks; the empty tree yields the zero mask."""
    fid = 0
    for edge in tree.edges:
        if g.link(edge.src, edge.dst) != edge:
            raise TopologyError(f"tree edge {edge.src}->{edge.dst} not in graph")
        fid |= edge.lid
    return fid


def handle_match(g: NetworkGraph, ev: MatchEvent) -> FidDelivery:
    """Turn a match event into the forwarding identifier for its publisher."""
    root = g.attach_node(ev.publisher)
    sub_nodes = {g.attach_node(s) for s in ev.subscribers}
    leaves = sub_nodes - {root}
    tree = shortest_path_tree(g, root, leaves)
    return FidDelivery(
        publisher=ev.publisher,
        name=ev.name,
        fid=fid_for_tree(g, tree),
        local=root in sub_nodes,
    )


def tree_for_match(g: NetworkGraph, ev: MatchEvent) -> DeliveryTree:
    """The delivery tree handle_match encodes (exposed for accounting)."""
    root = g.attach_node(ev.publisher)
    leaves = {g.attach_node(s) for s in ev.subscribers} - {root}
    return shortest_path_tree(g, root, leaves)
