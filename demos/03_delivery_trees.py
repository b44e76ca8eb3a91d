"""Delivery trees and forwarding identifiers.

The topology manager answers each match with a shortest-path tree rooted
at the publisher and spanning every subscriber's attachment node. The
tree is then collapsed into a single 256-bit forwarding identifier: the
OR of the 5-bit-popcount masks owned by its links. Nodes forward by mask
inclusion, so the tree travels inside the packet.
"""

import json

from ipicn import MatchEvent, fid_for_tree, load_topology_doc, shortest_path_tree
from ipicn.names import IcnName
from ipicn.topology import handle_match

TOPOLOGY = {
    # a diamond with a tail:   1 - 2 - 4 - 5
    #                            \ 3 /
    "nodes": [{"id": n} for n in (1, 2, 3, 4, 5)],
    "links": [
        {"a": 1, "b": 2},
        {"a": 1, "b": 3},
        {"a": 2, "b": 4},
        {"a": 3, "b": 4},
        {"a": 4, "b": 5},
    ],
    "naps": [
        {"client": 10, "node": 1, "prefixes": ["10.0.1.0/24"]},
        {"client": 20, "node": 4, "prefixes": ["10.0.2.0/24"]},
        {"client": 30, "node": 5, "prefixes": ["10.0.3.0/24"]},
    ],
}


def main() -> None:
    doc = load_topology_doc(json.dumps(TOPOLOGY), seed=42)
    g = doc.graph

    print("== link masks (first 64 bits shown) ==")
    for link in g.links[:4]:
        print(f"{link.src}->{link.dst}: ...{link.lid & (2**64 - 1):016x}"
              f"   ({link.lid.bit_count()} bits set)")

    print()
    print("== tree from node 1 to nodes 4 and 5 ==")
    tree = shortest_path_tree(g, 1, {4, 5})
    print("edges:", sorted((e.src, e.dst) for e in tree.edges))
    print("equal-cost paths 1-2-4 and 1-3-4 tie-break to the lower node id")

    fid = fid_for_tree(g, tree)
    print()
    print("== the tree as one forwarding identifier ==")
    print(f"fid popcount: {fid.bit_count()} bits "
          f"(up to 5 per link, overlaps possible)")
    for e in sorted(tree.edges, key=lambda e: (e.src, e.dst)):
        print(f"  contains {e.src}->{e.dst}: {fid & e.lid == e.lid}")

    print()
    print("== the manager end to end: match event in, fid out ==")
    item = IcnName((0xA,), item=0xB)
    fd = handle_match(g, MatchEvent(item, publisher=10, subscribers=frozenset({20, 30})))
    print(f"publisher {fd.publisher} gets fid with {fd.fid.bit_count()} bits set,"
          f" local={fd.local}")
    fd_local = handle_match(g, MatchEvent(item, publisher=20, subscribers=frozenset({20})))
    print(f"co-located subscriber: fid=0, local={fd_local.local} (no link crossed)")
    fd_none = handle_match(g, MatchEvent(item, publisher=10, subscribers=frozenset()))
    print(f"empty subscriber set: fid=0, teardown={fd_none.teardown}")


if __name__ == "__main__":
    main()
