"""Stateless mask forwarding, its guarantees and its one weakness.

Forwarding needs no per-node state: a node sends a copy on every outgoing
link whose mask is contained in the packet's identifier. Tree links always
match (no false negatives), but an unrelated link can match by accident.
This script measures that false-positive rate on random graphs and
compares it with the analytic estimate rho^5, where rho is the fraction
of identifier bits set.
"""

import json
import random

from ipicn import IcnPacket, fid_for_tree, forward, shortest_path_tree
from ipicn.names import IcnName
from ipicn.topology import load_topology_doc


def random_doc(rng, n_nodes, n_links, seed):
    pairs = set()
    nodes = list(range(1, n_nodes + 1))
    for i in range(1, n_nodes):
        parent = rng.choice(nodes[:i])
        pairs.add((min(parent, nodes[i]), max(parent, nodes[i])))
    while len(pairs) < n_links:
        a, b = rng.sample(nodes, 2)
        pairs.add((min(a, b), max(a, b)))
    doc = {
        "nodes": [{"id": n} for n in nodes],
        "links": [{"a": a, "b": b} for a, b in sorted(pairs)],
    }
    return load_topology_doc(json.dumps(doc), seed=seed)


def walk(g, root, fid, tree_pairs):
    pkt = IcnPacket(fid=fid, name=IcnName((1,)))
    trials = hits = 0
    reached = set()
    frontier = [(root, pkt, None)]
    while frontier:
        node, copy, in_link = frontier.pop()
        for link in forward(g, node, copy, in_link):
            if (link.src, link.dst) not in tree_pairs:
                hits += 1
            reached.add(link.dst)
            onward = IcnPacket(copy.fid, copy.name, copy.payload, copy.ttl - 1)
            frontier.append((link.dst, onward, link))
        if copy.ttl > 1:
            for link in g.out_links(node):
                if in_link is not None and link.dst == in_link.src:
                    continue
                if (link.src, link.dst) not in tree_pairs:
                    trials += 1
    return reached, trials, hits


def hops_from(g, root):
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
    return dist


def main() -> None:
    rng = random.Random(1234)
    total_trials = total_hits = 0
    expected = 0.0
    complete = 0
    trees = 0
    for round_idx in range(60):
        doc = random_doc(rng, 50, 150, seed=round_idx)
        g = doc.graph
        for _ in range(40):
            root = rng.choice(sorted(g.nodes))
            dist = hops_from(g, root)
            near = [n for n in sorted(g.nodes) if 2 <= dist[n] <= 4]
            if len(near) < 3:
                continue
            leaves = set(rng.sample(near, 3))
            tree = shortest_path_tree(g, root, leaves)
            if not 5 <= len(tree.edges) <= 8:
                continue
            trees += 1
            fid = fid_for_tree(g, tree)
            reached, trials, hits = walk(
                g, root, fid, {(e.src, e.dst) for e in tree.edges}
            )
            if leaves <= reached:
                complete += 1
            rho = fid.bit_count() / 256
            total_trials += trials
            total_hits += hits
            expected += trials * rho**5

    print(f"trees measured:        {trees}")
    print(f"all leaves reached:    {complete}/{trees} (false negatives impossible)")
    print(f"off-tree evaluations:  {total_trials}")
    print(f"accidental matches:    {total_hits}")
    print(f"empirical fp rate:     {total_hits / total_trials:.2e}")
    print(f"analytic rho^5 rate:   {expected / total_trials:.2e}")
    print()
    print("false positives waste a little bandwidth; receivers drop by name,")
    print("packet ids dedup loops, and the TTL bounds any runaway copy.")


if __name__ == "__main__":
    main()
