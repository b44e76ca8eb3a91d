"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import random
import time
import typing
from collections import Counter

from conftest import CapturingIcnSimulation, make_topology_doc, random_connected_graph
from ipicn import simnet
from ipicn.forwarding import FID_BITS, IcnPacket
from ipicn.gateways import BorderGateway, HttpResponse, IpPacket, Nap
from ipicn.names import IcnName
from ipicn.rendezvous import Rendezvous
from ipicn.simnet import IcnSimulation, Scenario
from ipicn.topology import fid_for_tree, shortest_path_tree
from test_rendezvous import oracle_match_set, random_item_name, random_sub_name
from test_topology import scipy_distances


def _ok(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion} {label}: PASS")


# -- 1: multicast utilization ------------------------------------------------


def test_c1_multicast_utilization():
    """10 clients behind one bottleneck fetch the same 1 MB URL in one
    window; ICN bottleneck data bytes / baseline <= 0.12."""
    started = time.monotonic()
    n_clients, resp = 10, 1_048_576
    nodes = list(range(n_clients + 2))  # 0 server, 1 hub, 2.. clients
    links = [(0, 1)] + [(1, i) for i in range(2, n_clients + 2)]
    naps = [{"client": 100, "node": 0, "prefixes": ["10.0.0.0/24"]}] + [
        {"client": i, "node": i + 1, "prefixes": [f"10.0.{i}.0/24"]}
        for i in range(1, n_clients + 1)
    ]
    doc = make_topology_doc(nodes, links, naps=naps, seed=3)
    wl = [{"t_us": 0, "op": "http_serve", "client": 100, "fqdn": "cdn.example"}]
    for i in range(1, n_clients + 1):
        wl.append({"t_us": 10 * i, "op": "http_get", "client": i,
                   "fqdn": "cdn.example", "url": "/v/1", "resp_bytes": resp})
    cmp = simnet.compare(Scenario(workload=wl), doc)

    # the response flow crosses the bottleneck server -> hub (0->1)
    resp_ratio = (
        cmp.icn.per_link["0->1"]["data_bytes"]
        / cmp.baseline.per_link["0->1"]["data_bytes"]
    )
    assert resp_ratio <= 0.12, resp_ratio
    both_icn = sum(cmp.icn.per_link[d]["data_bytes"] for d in ("0->1", "1->0"))
    both_base = sum(cmp.baseline.per_link[d]["data_bytes"] for d in ("0->1", "1->0"))
    assert both_icn / both_base <= 0.12

    http_flows = [f for k, f in cmp.icn.flows.items() if k.startswith("http:")]
    assert len(http_flows) == n_clients
    assert all(f["delivered"] == 1 for f in http_flows)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    _ok(1, f"multicast utilization (ratio {both_icn / both_base:.4f})")


# -- 2: end-to-end IP identity -------------------------------------------------


def _random_operator_topology(seed: int):
    rng = random.Random(seed)
    nodes, pairs = random_connected_graph(rng, 20, 15)
    gateway_nodes = rng.sample(nodes, 7)
    naps = [
        {"client": i + 1, "node": gateway_nodes[i],
         "prefixes": [f"10.0.{i + 1}.0/24"]}
        for i in range(6)
    ]
    border = {"client": 99, "node": gateway_nodes[6]}
    doc = make_topology_doc(nodes, pairs, naps=naps, border=border, seed=seed)
    addrs = {
        f"10.0.{i + 1}.{h}": i + 1 for i in range(6) for h in (5, 6, 7)
    }
    return doc, addrs


def test_c2_end_to_end_ip_identity():
    """1000 random packets, all delivered exactly once, bit-identical."""
    doc, addrs = _random_operator_topology(seed=1021)
    rng = random.Random(2022)
    internal = sorted(addrs)
    external = ["8.8.8.8", "1.1.1.1", "93.184.216.34", "198.18.0.1"]

    wl = [
        {"t_us": 0, "op": "attach", "client": client, "addr": addr}
        for addr, client in sorted(addrs.items())
    ]
    for k in range(1000):
        t = 200_000 + 200 * k
        roll = rng.random()
        if roll < 0.4:
            src = rng.choice(internal)
            dst = rng.choice([a for a in internal if a != src])
            wl.append({"t_us": t, "op": "send_ip", "client": addrs[src],
                       "src": src, "dst": dst, "bytes": rng.randint(0, 1200)})
        elif roll < 0.7:
            src = rng.choice(internal)
            wl.append({"t_us": t, "op": "send_ip", "client": addrs[src],
                       "src": src, "dst": rng.choice(external),
                       "bytes": rng.randint(0, 1200)})
        else:
            wl.append({"t_us": t, "op": "ext_in", "src": rng.choice(external),
                       "dst": rng.choice(internal),
                       "bytes": rng.randint(0, 1200)})

    sim = CapturingIcnSimulation(doc, Scenario(workload=wl))
    report = sim.run()

    delivered_by_id: dict[int, list[IpPacket]] = {}
    for _, pkt in sim.ip_deliveries:
        delivered_by_id.setdefault(pkt.id, []).append(pkt)
    assert len(sim.sent) == 1000
    missing = [pid for pid in sim.sent if pid not in delivered_by_id]
    assert missing == [], f"{len(missing)} packets never delivered"
    for pid, sent in sim.sent.items():
        copies = delivered_by_id[pid]
        assert len(copies) == 1, f"packet {pid} delivered {len(copies)} times"
        assert copies[0].payload == sent.payload
        assert copies[0] == sent
    # the report counts one delivery per hook call, in the packet's flow
    assert {flow: stats["delivered"] for flow, stats in report.flows.items()} == Counter(
        f"ip:{pkt.src}->{pkt.dst}" for _, pkt in sim.ip_deliveries
    )

    assert report.counters["drops"] == 0
    assert report.counters["corrupt"] == 0
    assert report.counters["protocol_violations"] == 0
    _ok(2, "end-to-end IP identity (1000 packets, 0 errors)")


# -- 3: rendezvous oracle equivalence ----------------------------------------


def test_c3_rendezvous_oracle_equivalence():
    """1000 random states: match_set equals the brute-force pairwise scan."""
    rng = random.Random(3031)
    for _ in range(1000):
        rv = Rendezvous()
        subs, pubs = [], []
        for _ in range(rng.randint(0, 100)):
            client, sub = rng.randint(1, 30), random_sub_name(rng, 6)
            rv.subscribe(client, sub)
            subs.append((client, sub))
        for _ in range(rng.randint(0, 100)):
            client, item = rng.randint(1, 30), random_item_name(rng, 6)
            rv.publish_availability(client, item)
            pubs.append((client, item))
        for _, item in pubs:
            assert rv.match_set(item) == oracle_match_set(subs, item)
        probe = random_item_name(rng, 6)
        assert rv.match_set(probe) == oracle_match_set(subs, probe)
    _ok(3, "rendezvous oracle equivalence (1000 states)")


# -- 4: tree correctness --------------------------------------------------------


def test_c4_tree_correctness():
    """200 random graphs: tree distances equal an independent shortest-path
    computation; all tree invariants hold; repetition is deterministic."""
    rng = random.Random(4041)
    for trial in range(200):
        n = rng.randint(4, 50)
        nodes, pairs = random_connected_graph(rng, n, rng.randint(0, n))
        links = [(a, b, {"delay_us": rng.randint(1, 3000)}) for a, b in pairs]
        g = make_topology_doc(nodes, links, seed=trial).graph
        root = rng.choice(nodes)
        leaves = set(rng.sample(nodes, min(n, rng.randint(1, 8))))

        tree = shortest_path_tree(g, root, leaves)
        assert tree == shortest_path_tree(g, root, leaves)  # deterministic

        oracle = scipy_distances(g, root)
        parent = {}
        for e in tree.edges:
            assert e.dst not in parent, "two parents for one node"
            assert e.dst != root, "edge into the root"
            parent[e.dst] = e
        for leaf in leaves:
            walked, node, hops = 0, leaf, 0
            while node != root:
                edge = parent[node]
                walked += edge.delay_us
                node = edge.src
                hops += 1
                assert hops <= len(tree.edges), "cycle in tree"
            assert walked == int(oracle[leaf])
        assert len(tree.edges) <= len(nodes) - 1
    _ok(4, "tree correctness (200 graphs vs independent oracle)")


# -- 5: Bloom forwarding ---------------------------------------------------------


def _propagate_counting(g, root, tree, fid):
    """Walk a packet through the graph; count non-tree link evaluations."""
    tree_pairs = {(e.src, e.dst) for e in tree.edges}
    pkt = IcnPacket(fid=fid, name=IcnName((1,)))
    arrivals: dict[int, int] = {}
    trials = hits = 0
    frontier = [(root, pkt.ttl, None)]
    while frontier:
        node, ttl, in_link = frontier.pop()
        if ttl <= 1:
            continue
        for link in g.out_links(node):
            if in_link is not None and link.dst == in_link.src:
                continue
            matched = fid & link.lid == link.lid
            if (link.src, link.dst) not in tree_pairs:
                trials += 1
                hits += matched
            if matched:
                arrivals[link.dst] = arrivals.get(link.dst, 0) + 1
                frontier.append((link.dst, ttl - 1, link))
    return arrivals, trials, hits


def test_c5_bloom_forwarding():
    """100 random 50-node/150-edge graphs: no false negatives; off-tree
    forwarding rate <= 1e-3 and within 10x of rho^5."""
    rng = random.Random(5051)
    total_trials = total_hits = 0
    expected_weighted = 0.0
    trees_used = 0
    for topo_idx in range(100):
        nodes, pairs = random_connected_graph(rng, 50, 150 - 49)
        doc = make_topology_doc(nodes, pairs, seed=9000 + topo_idx)
        g = doc.graph
        for _ in range(30):
            root = rng.choice(nodes)
            # leaves a few hops out make trees of 5..8 edges, large enough
            # for the false-positive rate to be measurable
            dist, _ = _bfs_levels(g, root)
            close = [n for n in nodes if n != root and 2 <= dist.get(n, 99) <= 4]
            if len(close) < 3:
                continue
            leaves = set(rng.sample(close, 3))
            tree = shortest_path_tree(g, root, leaves)
            if not 5 <= len(tree.edges) <= 8:
                continue
            trees_used += 1
            fid = fid_for_tree(g, tree)
            arrivals, trials, hits = _propagate_counting(g, root, tree, fid)
            for leaf in leaves:
                assert arrivals.get(leaf, 0) >= 1, "false negative"
            rho = fid.bit_count() / FID_BITS
            total_trials += trials
            total_hits += hits
            expected_weighted += trials * rho**5

    assert trees_used >= 1000, f"only {trees_used} usable trees"
    rate = total_hits / total_trials
    expected = expected_weighted / total_trials
    assert rate <= 1e-3, f"off-tree rate {rate}"
    assert expected / 10 <= rate <= expected * 10, (rate, expected)
    _ok(5, f"bloom forwarding (rate {rate:.2e}, expected {expected:.2e})")


def _bfs_levels(g, root):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for link in g.out_links(node):
                if link.dst not in dist:
                    dist[link.dst] = dist[node] + 1
                    nxt.append(link.dst)
        frontier = nxt
    return dist, None


# -- 6: determinism ---------------------------------------------------------------


def test_c6_determinism():
    """Identical scenario and seed produce byte-identical canonical reports."""
    doc_a, addrs = _random_operator_topology(seed=6061)
    doc_b, _ = _random_operator_topology(seed=6061)
    internal = sorted(addrs)
    wl = [
        {"t_us": 0, "op": "attach", "client": client, "addr": addr}
        for addr, client in sorted(addrs.items())
    ]
    rng = random.Random(66)
    for k in range(100):
        src = rng.choice(internal)
        dst = rng.choice([a for a in internal if a != src])
        wl.append({"t_us": 100_000 + 500 * k, "op": "send_ip",
                   "client": addrs[src], "src": src, "dst": dst,
                   "bytes": rng.randint(0, 900)})
    wl.append({"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "a.example"})
    wl.append({"t_us": 200_000, "op": "http_get", "client": 2,
               "fqdn": "a.example", "url": "/u", "resp_bytes": 120_000})

    sc = Scenario(workload=wl)
    first = IcnSimulation(doc_a, sc).run().to_canonical_json()
    second = IcnSimulation(doc_b, sc).run().to_canonical_json()
    assert first == second
    json.loads(first)  # canonical form is valid JSON
    _ok(6, "determinism (byte-identical reports)")


# -- 7: signalling overhead hand trace ----------------------------------------------


def test_c7_signalling_overhead_hand_trace():
    """2-node, 1-packet run equals a from-scratch wire-format computation.

    NAP on node 2, border gateway and the RV/TM on node 1. Hand trace of an
    internal device sending one 100-byte packet to an external address:

      border subscription  node1 -> node1   0 link bytes (co-located)
      attach subscription  node2 -> node1   on the wire
      availability publication node2 -> node1   on the wire
      RV-to-TM instruction node1 -> node1   0 link bytes (co-located)
      fid delivery         node1 -> node2   on the wire
      data                 node2 -> node1   on the wire

    3 control messages and 1 data message cross the link. Sizes follow the
    layout: fid 32 | ttl 1 | kind 1 | depth 1 | item flag 1 | 8 per name
    element | length 2 | payload. An address name has 6 elements. The
    minimal possible packet (depth-1 scope name, no payload) is 46 bytes.
    """
    header = 32 + 1 + 1 + 1 + 1 + 2
    assert header + 8 == 46  # minimal packet anchor
    name_elems = 6
    sr = header + 8 * name_elems + (4 + 1)        # client id + op flag
    pr = header + 8 * name_elems + (4 + 1)
    tp = header + 8 * name_elems + (4 + 32 + 1)   # client + fid + local flag
    data = header + 8 * name_elems + (4 + 4 + 1 + 8) + 100  # encap + payload

    doc = make_topology_doc(
        nodes=[1, 2],
        undirected_links=[(1, 2)],
        naps=[{"client": 1, "node": 2, "prefixes": ["10.0.1.0/24"]}],
        border={"client": 99, "node": 1},
        seed=7,
    )
    sc = Scenario(workload=[
        {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
        {"t_us": 1000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
         "dst": "8.8.8.8", "bytes": 100},
    ])
    report = simnet.run(sc, doc)

    assert report.per_link["2->1"]["control_bytes"] == sr + pr
    assert report.per_link["1->2"]["control_bytes"] == tp
    assert report.per_link["2->1"]["data_bytes"] == data
    assert report.per_link["1->2"]["data_bytes"] == 0
    assert report.totals["control_bytes"] == sr + pr + tp  # 3 control messages
    assert report.totals["data_bytes"] == data             # 1 data message
    expected_pct = round(100 * (sr + pr + tp) / (sr + pr + tp + data), 4)
    assert report.totals["signalling_overhead_pct"] == expected_pct
    _ok(7, f"signalling overhead hand trace ({expected_pct}% control)")


# -- 8: legacy device constraint --------------------------------------------------


ICN_TYPE_NAMES = {"IcnName", "IcnPacket", "FidDelivery", "MatchEvent",
                  "ForwardingId", "LinkId", "DeliveryTree"}


def _type_names(hint) -> set[str]:
    names = set()
    stack = [hint]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        name = getattr(current, "__name__", None)
        if name:
            names.add(name)
        stack.extend(typing.get_args(current))
    return names


def test_c8_legacy_device_constraint():
    """Device-facing APIs carry only IP/HTTP values, never ICN types."""
    device_facing = [
        Nap.attach_device,
        Nap.send_ip,
        Nap.http_get,
        Nap.http_serve,
        BorderGateway.ingress,
        # the hooks that hand each delivery to the simulation
        IcnSimulation.note_ip_delivered,
        IcnSimulation.note_peer_emitted,
        IcnSimulation.note_http_complete,
    ]
    for fn in device_facing:
        hints = typing.get_type_hints(fn)
        for param, hint in hints.items():
            leaked = _type_names(hint) & ICN_TYPE_NAMES
            assert not leaked, f"{fn.__qualname__}.{param} leaks {leaked}"

    for value_type in (IpPacket, HttpResponse):
        hints = typing.get_type_hints(value_type)
        for fieldname, hint in hints.items():
            leaked = _type_names(hint) & ICN_TYPE_NAMES
            assert not leaked, f"{value_type.__name__}.{fieldname} leaks {leaked}"

    # runtime check: every value handed to the delivery hooks in a full run
    # is an IP/HTTP value
    doc = make_topology_doc(
        nodes=[1, 2],
        undirected_links=[(1, 2)],
        naps=[
            {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
            {"client": 2, "node": 2, "prefixes": ["10.0.2.0/24"]},
        ],
        seed=2,
    )
    sc = Scenario(workload=[
        {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
        {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
        {"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "cdn.example"},
        {"t_us": 1000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
         "dst": "10.0.2.9", "bytes": 64},
        {"t_us": 2000, "op": "http_get", "client": 1, "fqdn": "cdn.example",
         "url": "/x", "resp_bytes": 1000},
    ])
    sim = CapturingIcnSimulation(doc, sc)
    sim.run()
    assert [c for c, _ in sim.ip_deliveries] == [2]
    assert [c for c, _ in sim.http_completions] == [1]
    assert all(type(p) is IpPacket for _, p in sim.ip_deliveries)
    assert all(type(r) is HttpResponse for _, r in sim.http_completions)
    _ok(8, "legacy device constraint (no ICN types at the device boundary)")
