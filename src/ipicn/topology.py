"""Topology management: the network graph, delivery trees, forwarding ids.

The graph is loaded once from a JSON document and is immutable afterwards.
For every publication match the manager computes a publisher-rooted
shortest-path tree over link delay (deterministic tie-breaking by lowest
predecessor id), ORs the tree's link masks into a forwarding identifier and
hands that back to the publisher. Shortest-path predecessors are computed
once per root and kept on the graph, one flat array of node numbers each.

Dijkstra runs over an integer index of the graph, built by its first run
and kept on the graph: the node ids sorted ascending, numbered 0..n-1, the
id -> number map, and per number a tuple of (neighbour number, delay)
pairs. Numbering in id order lets a heap key pack (distance, number) into
one int that pops in (distance, id) order, and lets the tie rule compare
numbers for ids. The first run builds it, not the load, so a graph that is
never searched does not pay for it.
"""

from __future__ import annotations

import heapq
import ipaddress
import json
import random
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .forwarding import gen_lid
from .names import IcnName
from .rendezvous import ClientId, MatchEvent

DEFAULT_DELAY_US = 1000
DEFAULT_CAPACITY_BPS = 1_000_000_000
MAX_CLIENT_ID = 2**32 - 1  # control messages carry a client id in 32 bits


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
    # root -> predecessor numbers, filled by `dijkstra`
    _pred_by_root: dict[int, array] = field(
        init=False, repr=False, compare=False
    )
    # `dijkstra`'s integer index, built by its first run
    _search_index: _SearchIndex | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacency: dict[int, list[Link]] = {n: [] for n in self.nodes}
        by_pair: dict[tuple[int, int], Link] = {}
        for link in self.links:
            adjacency[link.src].append(link)
            by_pair[(link.src, link.dst)] = link
        self._adjacency = {n: tuple(ls) for n, ls in adjacency.items()}
        self._by_pair = by_pair
        self._pred_by_root = {}
        self._search_index = None

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
_FIELD_ERRORS = (KeyError, TypeError)


def _json_int(value: object) -> int:
    """`value` if it is a JSON integer: not 1.9, "7", true or 1e3."""
    if type(value) is not int:
        raise TypeError(value)
    return value


def brief(value: object) -> str:
    """`value`'s repr for an error line, cut to 80 characters and "...", so
    an input value of any size leaves the line short."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def load_json_object(doc: dict | str, what: str, error: type[ValueError]) -> dict:
    """`doc`, parsed if it is JSON text, if it is an object; else `error` naming `what`."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        # ValueError: a JSONDecodeError, or an integer literal longer than
        # the interpreter's int-string limit (sys.get_int_max_str_digits)
        except (ValueError, RecursionError) as exc:
            raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} document must be a JSON object")
    return doc


def _field_error(what: str, entry: dict, exc: Exception) -> TopologyError:
    if isinstance(exc, KeyError):
        return TopologyError(f"{what} entry needs {exc}: {brief(entry)}")
    return TopologyError(f"{what} entry has a non-integer field: {brief(entry)}")


def load_topology_doc(doc: dict | str, seed: int) -> TopologyDoc:
    """Build the graph from a document (dict or JSON text), assigning link
    masks deterministically from `seed` in document order. A negative seed
    is refused: `random.Random` seeds with its absolute value, so it would
    alias a positive one."""
    if seed < 0:
        raise TopologyError(f"link-mask seed must not be negative, got {brief(seed)}")
    doc = load_json_object(doc, "topology", TopologyError)

    nodes: set[int] = set()  # link masks follow link order, so node order is not kept
    for entry in _entries(doc, "nodes"):
        try:
            node_id = _json_int(entry["id"])
        except _FIELD_ERRORS as exc:
            raise _field_error("node", entry, exc) from None
        if node_id in nodes:
            raise TopologyError(f"duplicate node id {brief(node_id)}")
        nodes.add(node_id)
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
            a, b = _json_int(entry["a"]), _json_int(entry["b"])
            delay = _json_int(entry.get("delay_us", DEFAULT_DELAY_US))
            cap = _json_int(entry.get("capacity_bps", DEFAULT_CAPACITY_BPS))
        except _FIELD_ERRORS as exc:
            raise _field_error("link", entry, exc) from None
        if a == b:
            raise TopologyError(f"self-loop link at node {brief(a)}")
        if a not in node_set or b not in node_set:
            raise TopologyError(f"link references unknown node: {brief(a)}-{brief(b)}")
        if (a, b) in seen_pairs or (b, a) in seen_pairs:
            raise TopologyError(f"duplicate link entry {brief(a)}-{brief(b)}")
        seen_pairs.add((a, b))
        if delay < 0 or cap <= 0:
            raise TopologyError(f"bad delay/capacity on link {brief(a)}-{brief(b)}")
        links.append(Link(a, b, delay, cap, next_lid()))
        links.append(Link(b, a, delay, cap, next_lid()))

    attachments: dict[ClientId, int] = {}

    def gateway(what: str, entry: dict) -> tuple[ClientId, int]:
        """The entry's client id and node, checked and recorded."""
        try:
            client, node = _json_int(entry["client"]), _json_int(entry["node"])
        except _FIELD_ERRORS as exc:
            raise _field_error(what, entry, exc) from None
        if not 0 <= client <= MAX_CLIENT_ID:
            raise TopologyError(f"{what} client id {brief(client)} outside 0..{MAX_CLIENT_ID}")
        if node not in node_set:
            raise TopologyError(f"{what} client {client} attached to unknown node {brief(node)}")
        if client in attachments:
            raise TopologyError(f"duplicate client id {client}")
        attachments[client] = node
        return client, node

    naps = []
    for entry in _entries(doc, "naps"):
        client, node = gateway("nap", entry)
        texts = entry.get("prefixes", [])
        # IPv4Network would also take a JSON number or boolean as an address
        if not isinstance(texts, list) or not all(isinstance(p, str) for p in texts):
            raise TopologyError(f"nap {client} 'prefixes' must be a list of strings")
        try:
            prefixes = tuple(ipaddress.IPv4Network(p) for p in texts)
        except ValueError as exc:  # its text quotes the prefix
            raise TopologyError(f"bad prefix on nap {client}: {brief(str(exc))}") from exc
        naps.append(NapConfig(client, node, prefixes))

    border = None
    entry = doc.get("border")
    if entry is not None:
        if not isinstance(entry, dict):
            raise TopologyError("topology 'border' must be an object")
        border = BorderConfig(*gateway("border", entry))

    graph = NetworkGraph(node_set, tuple(links), attachments)
    graph.validate()
    return TopologyDoc(graph=graph, naps=tuple(naps), border=border)


class _SearchIndex(NamedTuple):
    """`dijkstra`'s view of a graph: node ids sorted ascending, so a node's
    number is its place in `ids`, the id -> number map, and per number its
    out-links as (neighbour number, delay_us) pairs."""

    ids: tuple[int, ...]
    number: dict[int, int]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    bits: int  # a heap key is (distance << bits) | number
    unreached: int  # above every distance: the sum of all delays, plus one


def _search_index_of(g: NetworkGraph) -> _SearchIndex:
    index = g._search_index
    if index is None:
        ids = tuple(sorted(g.nodes))
        number = {node: i for i, node in enumerate(ids)}
        adjacency = tuple(
            tuple((number[link.dst], link.delay_us) for link in g.out_links(node))
            for node in ids
        )
        unreached = sum(link.delay_us for link in g.links) + 1
        index = g._search_index = _SearchIndex(
            ids, number, adjacency, (len(ids) - 1).bit_length(), unreached)
    return index


def dijkstra(g: NetworkGraph, root: int) -> array:
    """Deterministic least-delay predecessors of every node reached from `root`:
    an `array('i')` that holds, at each node's number, its predecessor's
    number, or -1 at `root` and at a node not reached. Numbers index the
    graph's `_SearchIndex` (`ids` maps them back to node ids), and
    `path_links` walks the array.

    The predecessor of a node is the lowest-id neighbour that attains its
    shortest distance, among neighbours settled before it, so equal-cost
    ties always break the same way and zero-delay links cannot form a
    cycle. Each root's array is computed once and stored on the graph,
    which must not change after load; the array is shared, so callers must
    not mutate it.

    The search runs over lists indexed by node number. Numbers follow ids,
    so the packed heap keys pop in (distance, id) order and `u < pred[v]`
    compares ids.
    """
    pred = g._pred_by_root.get(root)
    if pred is not None:
        return pred
    _, number, adjacency, bits, unreached = _search_index_of(g)
    r = number[root]
    mask = (1 << bits) - 1
    dist = [unreached] * len(adjacency)
    dist[r] = 0
    settled = bytearray(len(adjacency))
    pred = array("i", [-1]) * len(adjacency)
    heap = [r]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        key = pop(heap)
        u = key & mask
        if settled[u]:
            continue
        settled[u] = 1
        d = key >> bits
        for v, delay in adjacency[u]:
            # a settled v has dist[v] <= d <= nd: only the tie branch sees it
            nd = d + delay
            old = dist[v]
            if nd < old:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd << bits) | v)
            elif nd == old and u < pred[v] and not settled[v]:
                pred[v] = u
    g._pred_by_root[root] = pred
    return pred


def path_links(g: NetworkGraph, pred: array, root: int, node: int) -> list[Link]:
    """Links from `root` to `node` along `root`'s predecessor array, as
    `dijkstra` returns it; a node it does not reach raises `TopologyError`.
    Each hop reads one predecessor number, its id and the link."""
    ids, number = g._search_index.ids, g._search_index.number
    by_pair = g._by_pair
    links: list[Link] = []
    v = number[node]
    while node != root:
        v = pred[v]
        if v < 0:
            raise TopologyError(f"node {node} is not reachable from {root}")
        parent = ids[v]
        links.append(by_pair[parent, node])
        node = parent
    links.reverse()
    return links


def shortest_path_tree(
    g: NetworkGraph, root: int, leaves: set[int] | frozenset[int]
) -> DeliveryTree:
    """Union of least-delay root-to-leaf paths."""
    if root not in g.nodes:
        raise TopologyError(f"root {root} not in graph")
    if not g.nodes.issuperset(leaves):
        unknown = sorted(leaf for leaf in leaves if leaf not in g.nodes)
        raise TopologyError(f"leaves not in graph: {unknown}")
    pred = dijkstra(g, root)
    number = g._search_index.number
    unreachable = [leaf for leaf in leaves if leaf != root and pred[number[leaf]] < 0]
    if unreachable:
        raise TopologyError(f"unreachable leaves: {sorted(unreachable)}")
    edges = {link for leaf in leaves for link in path_links(g, pred, root, leaf)}
    return DeliveryTree(root=root, leaves=frozenset(leaves), edges=frozenset(edges))


def fid_for_tree(g: NetworkGraph, tree: DeliveryTree) -> int:
    """OR of the tree's link masks; the empty tree yields the zero mask."""
    fid = 0
    for edge in tree.edges:
        if g.link(edge.src, edge.dst) != edge:
            raise TopologyError(f"tree edge {edge.src}->{edge.dst} not in graph")
        fid |= edge.lid
    return fid


def handle_match(g: NetworkGraph, ev: MatchEvent,
                 tree: DeliveryTree | None = None) -> FidDelivery:
    """Turn a match event into its publisher's forwarding id (over `tree` if given)."""
    if tree is None:
        tree = tree_for_match(g, ev)
    return FidDelivery(
        publisher=ev.publisher,
        name=ev.name,
        fid=fid_for_tree(g, tree),
        local=any(g.attach_node(s) == tree.root for s in ev.subscribers),
    )


def tree_for_match(g: NetworkGraph, ev: MatchEvent) -> DeliveryTree:
    """The delivery tree handle_match encodes."""
    root = g.attach_node(ev.publisher)
    leaves = {g.attach_node(s) for s in ev.subscribers} - {root}
    return shortest_path_tree(g, root, leaves)
