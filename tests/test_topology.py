"""Graph loading, delivery trees (vs a scipy oracle) and fid assembly."""

import heapq
import json
import random

import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from conftest import make_topology_doc, random_connected_graph
from ipicn.names import IcnName
from ipicn.rendezvous import MatchEvent
from ipicn.topology import (
    TopologyError,
    dijkstra,
    fid_for_tree,
    handle_match,
    load_topology_doc,
    shortest_path_tree,
    tree_for_match,
)


def item_name():
    return IcnName((1,), item=2)


def scipy_distances(g, root):
    """Independent shortest-path distances over link delay."""
    nodes = sorted(g.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    rows, cols, vals = [], [], []
    for link in g.links:
        rows.append(index[link.src])
        cols.append(index[link.dst])
        vals.append(link.delay_us)
    matrix = csr_matrix(
        (vals, (rows, cols)), shape=(len(nodes), len(nodes))
    )
    dist = scipy_dijkstra(matrix, directed=True, indices=index[root])
    return {n: dist[index[n]] for n in nodes}


def reference_predecessors(g, root):
    """Two-pass rule: plain Dijkstra distances, then for each reached node
    the lowest-id in-neighbour that attains its distance."""
    dist = {root: 0}
    heap = [(0, root)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for link in g.out_links(node):
            nd = d + link.delay_us
            if link.dst not in dist or nd < dist[link.dst]:
                dist[link.dst] = nd
                heapq.heappush(heap, (nd, link.dst))
    pred = {}
    for node in dist:
        if node == root:
            continue
        pred[node] = min(
            out.dst
            for out in g.out_links(node)
            if out.dst in dist
            and dist[out.dst] + g.link(out.dst, node).delay_us == dist[node]
        )
    return pred


class TestLoading:
    def test_same_document_and_seed_gives_equal_graphs(self):
        doc = {
            "nodes": [{"id": 1}, {"id": 2}, {"id": 3}],
            "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}],
        }
        g1 = load_topology_doc(json.dumps(doc), seed=42).graph
        g2 = load_topology_doc(json.dumps(doc), seed=42).graph
        assert g1.links == g2.links
        assert g1.nodes == g2.nodes

    def test_two_node_document_yields_two_distinct_directed_links(self):
        doc = {"nodes": [{"id": 1}, {"id": 2}], "links": [{"a": 1, "b": 2}]}
        g = load_topology_doc(doc, 7).graph
        assert len(g.links) == 2
        a, b = g.links
        assert (a.src, a.dst) == (1, 2) and (b.src, b.dst) == (2, 1)
        assert a.lid != b.lid

    def test_disconnected_rejected(self):
        doc = {
            "nodes": [{"id": 1}, {"id": 2}, {"id": 3}],
            "links": [{"a": 1, "b": 2}],
        }
        with pytest.raises(TopologyError, match="disconnected"):
            load_topology_doc(doc, 1).graph

    def test_duplicate_node_rejected(self):
        with pytest.raises(TopologyError, match="duplicate node"):
            load_topology_doc({"nodes": [{"id": 1}, {"id": 1}], "links": []}, 1).graph

    def test_duplicate_among_many_nodes_names_the_id(self):
        ids = list(range(2000)) + [1234]
        doc = {"nodes": [{"id": i} for i in ids], "links": []}
        with pytest.raises(TopologyError, match=r"^duplicate node id 1234$"):
            load_topology_doc(doc, 1)

    def test_attachment_to_unknown_node_rejected(self):
        doc = {
            "nodes": [{"id": 1}],
            "links": [],
            "naps": [{"client": 1, "node": 9, "prefixes": []}],
        }
        with pytest.raises(TopologyError, match="unknown node"):
            load_topology_doc(doc, 1)

    def test_bad_prefix_rejected(self):
        doc = {
            "nodes": [{"id": 1}],
            "links": [],
            "naps": [{"client": 1, "node": 1, "prefixes": ["10.0.1.5/24"]}],
        }
        with pytest.raises(TopologyError, match="prefix"):
            load_topology_doc(doc, 1)

    @pytest.mark.parametrize("prefixes", [
        [True], [167772160], {"10.0.0.0/8": 1}, "10.0.0.0/8", [None], [["10.0.0.0/8"]],
    ], ids=["bool", "int", "object", "string", "null", "nested"])
    def test_prefixes_other_than_a_list_of_strings_rejected(self, prefixes):
        """IPv4Network takes an int or bool as an address, so [true] would
        load as 0.0.0.1/32 and [167772160] as 10.0.0.0/32; iterating an
        object would load its keys."""
        doc = {
            "nodes": [{"id": 1}],
            "links": [],
            "naps": [{"client": 1, "node": 1, "prefixes": prefixes}],
        }
        with pytest.raises(TopologyError,
                           match=r"^nap 1 'prefixes' must be a list of strings$"):
            load_topology_doc(doc, 1)

    def test_duplicate_link_rejected(self):
        doc = {
            "nodes": [{"id": 1}, {"id": 2}],
            "links": [{"a": 1, "b": 2}, {"a": 2, "b": 1}],
        }
        with pytest.raises(TopologyError, match="duplicate link"):
            load_topology_doc(doc, 1).graph


class TestShortestPathTree:
    def test_root_is_only_leaf(self):
        g = make_topology_doc([1, 2], [(1, 2)]).graph
        tree = shortest_path_tree(g, 1, {1})
        assert tree.edges == frozenset()

    def test_line_has_unique_path(self):
        g = make_topology_doc([1, 2, 3], [(1, 2), (2, 3)]).graph
        tree = shortest_path_tree(g, 1, {3})
        assert {(e.src, e.dst) for e in tree.edges} == {(1, 2), (2, 3)}

    def test_diamond_tie_breaks_to_lowest_node(self):
        # both 1-2-4 and 1-3-4 cost the same; the rule picks predecessor 2
        g = make_topology_doc([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)]).graph
        tree = shortest_path_tree(g, 1, {4})
        assert {(e.src, e.dst) for e in tree.edges} == {(1, 2), (2, 4)}

    def test_unknown_leaf_rejected(self):
        g = make_topology_doc([1, 2], [(1, 2)]).graph
        with pytest.raises(TopologyError):
            shortest_path_tree(g, 1, {5})

    def test_distances_match_scipy_oracle(self):
        rng = random.Random(51)
        for trial in range(40):
            n = rng.randint(4, 30)
            nodes, pairs = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            links = [
                (a, b, {"delay_us": rng.randint(1, 5000)}) for a, b in pairs
            ]
            g = make_topology_doc(nodes, links, seed=trial).graph
            root = rng.choice(nodes)
            leaves = set(rng.sample(nodes, min(len(nodes), rng.randint(1, 6))))
            tree = shortest_path_tree(g, root, leaves)
            expected = scipy_distances(g, root)
            edge_map = {e.dst: e for e in tree.edges}
            for leaf in leaves:
                walked, node = 0, leaf
                while node != root:
                    edge = edge_map[node]
                    walked += edge.delay_us
                    node = edge.src
                assert walked == int(expected[leaf])

    def test_tree_invariants_hold(self):
        rng = random.Random(53)
        for trial in range(40):
            nodes, pairs = random_connected_graph(rng, rng.randint(4, 25), 10)
            g = make_topology_doc(nodes, pairs, seed=100 + trial).graph
            root = rng.choice(nodes)
            leaves = set(rng.sample(nodes, min(len(nodes), 4)))
            tree = shortest_path_tree(g, root, leaves)
            # single parent, no edge into the root
            children: dict[int, int] = {}
            for e in tree.edges:
                assert e.dst != root
                assert e.dst not in children
                children[e.dst] = e.src
            # acyclic and rooted: every edge walks back to the root
            for start in children:
                node, hops = start, 0
                while node != root:
                    node = children[node]
                    hops += 1
                    assert hops <= len(tree.edges)
            # leaf coverage and edge-count bound
            for leaf in tree.leaves:
                assert leaf == root or leaf in children
            assert len(tree.edges) <= len(nodes) - 1

    def test_predecessors_match_two_pass_reference_under_ties(self):
        rng = random.Random(61)
        for trial in range(30):
            n = rng.randint(4, 25)
            nodes, pairs = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            links = [(a, b, {"delay_us": rng.choice((1, 2, 3))}) for a, b in pairs]
            g = make_topology_doc(nodes, links, seed=trial).graph
            for root in nodes:
                assert dijkstra(g, root) == reference_predecessors(g, root)

    def test_predecessor_map_is_computed_once_per_root(self):
        g = make_topology_doc([1, 2, 3], [(1, 2), (2, 3)]).graph
        assert dijkstra(g, 1) is dijkstra(g, 1)
        assert dijkstra(g, 3) == {2: 3, 1: 2}

    def test_zero_delay_link_does_not_make_a_predecessor_cycle(self):
        # 5 and 6 are both 2 away from 1 and 0 apart: each attains the
        # other's distance, so predecessors must come from settled nodes.
        unit = {"delay_us": 1}
        g = make_topology_doc(
            [1, 5, 6, 7, 8],
            [(1, 7, unit), (1, 8, unit), (7, 5, unit), (8, 6, unit),
             (5, 6, {"delay_us": 0})],
        ).graph
        pred = dijkstra(g, 1)
        for start in pred:
            node, hops = start, 0
            while node != 1:
                node = pred[node]
                hops += 1
                assert hops < len(g.nodes)
        tree = shortest_path_tree(g, 1, {5, 6})
        assert {(e.src, e.dst) for e in tree.edges} == {(1, 7), (7, 5), (5, 6)}

    def test_deterministic_repetition(self):
        rng = random.Random(57)
        nodes, pairs = random_connected_graph(rng, 20, 15)
        g = make_topology_doc(nodes, pairs, seed=5).graph
        t1 = shortest_path_tree(g, nodes[0], set(nodes[5:9]))
        t2 = shortest_path_tree(g, nodes[0], set(nodes[5:9]))
        assert t1 == t2
        assert fid_for_tree(g, t1) == fid_for_tree(g, t2)


class TestFidForTree:
    def test_empty_tree_zero_mask(self):
        g = make_topology_doc([1, 2], [(1, 2)]).graph
        assert fid_for_tree(g, shortest_path_tree(g, 1, {1})) == 0

    def test_single_edge_is_its_lid(self):
        g = make_topology_doc([1, 2], [(1, 2)]).graph
        tree = shortest_path_tree(g, 1, {2})
        assert fid_for_tree(g, tree) == g.link(1, 2).lid

    def test_every_edge_contained_in_fid(self):
        rng = random.Random(59)
        for trial in range(30):
            nodes, pairs = random_connected_graph(rng, 15, 10)
            g = make_topology_doc(nodes, pairs, seed=trial).graph
            tree = shortest_path_tree(
                g, nodes[0], set(rng.sample(nodes, 4))
            )
            fid = fid_for_tree(g, tree)
            for e in tree.edges:
                assert fid & e.lid == e.lid

    def test_adding_edges_never_clears_bits(self):
        g = make_topology_doc([1, 2, 3], [(1, 2), (2, 3)]).graph
        small = shortest_path_tree(g, 1, {2})
        grown = shortest_path_tree(g, 1, {2, 3})
        assert fid_for_tree(g, small) & fid_for_tree(g, grown) == fid_for_tree(g, small)


class TestHandleMatch:
    def test_co_located_subscriber_gives_zero_fid_and_local_flag(self):
        doc = make_topology_doc(
            [1, 2],
            [(1, 2)],
            naps=[
                {"client": 1, "node": 2, "prefixes": []},
                {"client": 2, "node": 2, "prefixes": []},
            ],
        )
        fd = handle_match(doc.graph, MatchEvent(item_name(), 1, frozenset({2})))
        assert fd.fid == 0 and fd.local and not fd.teardown

    def test_remote_subscriber_fid_is_path_or(self):
        doc = make_topology_doc(
            [1, 2, 3],
            [(1, 2), (2, 3)],
            naps=[
                {"client": 1, "node": 1, "prefixes": []},
                {"client": 2, "node": 3, "prefixes": []},
            ],
        )
        g = doc.graph
        fd = handle_match(g, MatchEvent(item_name(), 1, frozenset({2})))
        assert fd.fid == g.link(1, 2).lid | g.link(2, 3).lid
        assert not fd.local

    def test_empty_subscribers_is_teardown(self):
        doc = make_topology_doc(
            [1, 2], [(1, 2)], naps=[{"client": 1, "node": 1, "prefixes": []}]
        )
        fd = handle_match(doc.graph, MatchEvent(item_name(), 1, frozenset()))
        assert fd.fid == 0 and fd.teardown

    def test_unattached_client_rejected(self):
        doc = make_topology_doc(
            [1, 2], [(1, 2)], naps=[{"client": 1, "node": 1, "prefixes": []}]
        )
        with pytest.raises(TopologyError):
            handle_match(doc.graph, MatchEvent(item_name(), 1, frozenset({8})))

    def test_given_tree_gives_the_same_delivery_as_building_it(self):
        rng = random.Random(67)
        teardowns = locals_ = 0
        for trial in range(40):
            nodes, pairs = random_connected_graph(rng, rng.randint(2, 20), 8)
            clients = range(1, rng.randint(2, 8) + 1)
            naps = [{"client": c, "node": rng.choice(nodes), "prefixes": []}
                    for c in clients]
            g = make_topology_doc(nodes, pairs, naps=naps, seed=trial).graph
            for _ in range(10):
                subscribers = frozenset(rng.sample(clients, rng.randint(0, len(clients))))
                ev = MatchEvent(item_name(), rng.choice(clients), subscribers)
                fd = handle_match(g, ev)
                assert handle_match(g, ev, tree_for_match(g, ev)) == fd
                teardowns += fd.teardown
                locals_ += fd.local
        assert teardowns and locals_  # both special cases are exercised
