"""Deterministic workload generator: (workload, seed) -> topology and scenario text.

Every workload is a pure function of its name and seed, so the same seed
gives byte-identical documents. The seed reaches the simulator only as the
scenario's `seed` field, which the CLI uses as the link-mask seed. Counts,
sizes and timings are fixed per workload; the seed only reshapes the graph,
the placement of gateways and who talks to whom, so the host cost of one
workload stays about the same from seed to seed.
"""

from __future__ import annotations

import ipaddress
import json
import random
from collections import Counter
from dataclasses import dataclass

NAP_CLIENT_BASE = 1
BORDER_CLIENT = 1000
EXT_DST_NET = "198.51.100."
EXT_SRC_NET = "203.0.113."


@dataclass(frozen=True)
class Inputs:
    """The two documents a CLI user would pass, as JSON text."""

    workload: str
    seed: int
    topology_text: str
    scenario_text: str


def _random_graph(rng: random.Random, n_nodes: int, n_links: int) -> list[dict]:
    """Connected graph on nodes 1..n: a random recursive tree plus random
    chords, with link delays of 0.5-3 ms."""
    pairs: set[tuple[int, int]] = set()
    for node in range(2, n_nodes + 1):
        pairs.add((rng.randint(1, node - 1), node))
    while len(pairs) < n_links:
        a, b = sorted(rng.sample(range(1, n_nodes + 1), 2))
        pairs.add((a, b))
    return [
        {"a": a, "b": b, "delay_us": rng.randint(500, 3000)}
        for a, b in sorted(pairs)
    ]


def _nap_prefix(index: int) -> str:
    return f"10.{index // 250}.{index % 250}.0/24"


def _device(index: int, slot: int) -> str:
    net = ipaddress.IPv4Network(_nap_prefix(index))
    return str(net.network_address + 10 + slot)


def _topology(
    rng: random.Random, n_nodes: int, n_links: int, n_naps: int, border: bool
) -> tuple[dict, list[int]]:
    """Graph plus NAPs (and a border) on distinct random nodes; returns the
    document and the NAP client ids in index order."""
    links = _random_graph(rng, n_nodes, n_links)
    places = rng.sample(range(1, n_nodes + 1), n_naps + (1 if border else 0))
    clients = [NAP_CLIENT_BASE + i for i in range(n_naps)]
    doc = {
        "nodes": [{"id": n} for n in range(1, n_nodes + 1)],
        "links": links,
        "naps": [
            {"client": clients[i], "node": places[i], "prefixes": [_nap_prefix(i)]}
            for i in range(n_naps)
        ],
    }
    if border:
        doc["border"] = {"client": BORDER_CLIENT, "node": places[-1]}
    return doc, clients


def _attach_all(clients: list[int], devices_per_nap: int) -> list[dict]:
    return [
        {"t_us": 0, "op": "attach", "client": c, "addr": _device(i, slot)}
        for i, c in enumerate(clients)
        for slot in range(devices_per_nap)
    ]


def unicast_mesh(rng: random.Random) -> tuple[dict, list[dict]]:
    """Data plane: long-lived unicast flows over warm forwarding ids."""
    n_naps, devices, n_flows, packets, n_ext_in = 60, 4, 60, 100, 6
    sizes = (0, 64, 576, 1400, 9000)
    topo, clients = _topology(rng, 200, 450, n_naps, border=True)
    ops = _attach_all(clients, devices)
    external = set(rng.sample(range(n_flows), n_flows // 10))
    start_us, gap_us = 100_000, 1000
    for flow in range(n_flows):
        src = _device(flow, rng.randrange(devices))
        if flow in external:
            dst = f"{EXT_DST_NET}{flow + 1}"
        else:
            peer = rng.choice([i for i in range(n_naps) if i != flow])
            dst = _device(peer, rng.randrange(devices))
        size = sizes[flow % len(sizes)]
        offset = rng.randrange(gap_us)
        ops += [
            {"t_us": start_us + offset + k * gap_us, "op": "send_ip",
             "client": clients[flow], "src": src, "dst": dst, "bytes": size}
            for k in range(packets)
        ]
    for flow in range(n_ext_in):
        dst = _device(rng.randrange(n_naps), rng.randrange(devices))
        offset = rng.randrange(gap_us)
        ops += [
            {"t_us": start_us + offset + k * gap_us, "op": "ext_in",
             "src": f"{EXT_SRC_NET}{flow + 1}", "dst": dst,
             "bytes": sizes[flow % len(sizes)]}
            for k in range(packets)
        ]
    return topo, ops


def http_churn(rng: random.Random) -> tuple[dict, list[dict]]:
    """Control plane: one short exchange per fetch over many standing trees."""
    n_naps, devices, n_trees, n_gets, n_urls, n_servers = 80, 2, 200, 150, 240, 8
    topo, clients = _topology(rng, 200, 450, n_naps, border=False)
    ops = _attach_all(clients, devices)
    # one packet per distinct (source NAP, destination device) pair leaves
    # a standing delivery tree that every later unsubscribe has to scan
    trees: set[tuple[int, str]] = set()
    while len(trees) < n_trees:
        src, peer = rng.sample(range(n_naps), 2)
        trees.add((src, _device(peer, rng.randrange(devices))))
    for k, (src, dst) in enumerate(sorted(trees)):
        ops.append({"t_us": 50_000 + 100 * k, "op": "send_ip", "client": clients[src],
                    "src": _device(src, 0), "dst": dst, "bytes": 64})
    servers = rng.sample(range(n_naps), n_servers)
    for s, nap in enumerate(servers):
        ops.append({"t_us": 0, "op": "http_serve", "client": clients[nap],
                    "fqdn": f"s{s}.example"})
    # every URL comes round again only after 240 fetches, far outside the
    # coalescing window, so each fetch is an exchange of its own
    order = list(range(n_urls))
    rng.shuffle(order)
    start_us, gap_us = 200_000, 2000
    for k in range(n_gets):
        url = order[k % n_urls]
        ops.append({"t_us": start_us + k * gap_us, "op": "http_get",
                    "client": clients[rng.randrange(n_naps)],
                    "fqdn": f"s{url % n_servers}.example", "url": f"/obj/{url}",
                    "resp_bytes": 125 * url})
    return topo, ops


def flash_crowd(rng: random.Random) -> tuple[dict, list[dict]]:
    """Multicast: every client asks for every URL inside one window."""
    n_nodes, n_links, n_access, per_access, n_urls, body = 60, 135, 6, 4, 30, 400_000
    # The 24 clients sit four to an access node, so each response tree has
    # six leaves. Trees reaching 24 separate nodes fill half the 256-bit
    # fid; false-positive copies that re-enter such a tree multiply until
    # the TTL runs out, and run time then swings by orders of magnitude
    # from seed to seed.
    server_node, *access = rng.sample(range(1, n_nodes + 1), 1 + n_access)
    nodes = [server_node] + [access[i // per_access] for i in range(n_access * per_access)]
    clients = [NAP_CLIENT_BASE + i for i in range(len(nodes))]
    topo = {
        "nodes": [{"id": n} for n in range(1, n_nodes + 1)],
        "links": _random_graph(rng, n_nodes, n_links),
        "naps": [{"client": c, "node": n, "prefixes": [_nap_prefix(i)]}
                 for i, (c, n) in enumerate(zip(clients, nodes))],
    }
    server, requesters = clients[0], clients[1:]
    ops = _attach_all(clients, 1)
    ops.append({"t_us": 0, "op": "http_serve", "client": server, "fqdn": "cdn.example"})
    start_us, url_gap_us, req_gap_us = 100_000, 150_000, 2000
    for u in range(n_urls):
        rng.shuffle(requesters)
        ops += [
            {"t_us": start_us + u * url_gap_us + k * req_gap_us, "op": "http_get",
             "client": c, "fqdn": "cdn.example", "url": f"/v/{u}",
             "resp_bytes": body}
            for k, c in enumerate(requesters)
        ]
    return topo, ops


WORKLOADS = {
    "unicast_mesh": unicast_mesh,
    "http_churn": http_churn,
    "flash_crowd": flash_crowd,
}


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def generate(workload: str, seed: int) -> Inputs:
    """The topology and scenario documents for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    topo, ops = WORKLOADS[workload](rng)
    ops.sort(key=lambda op: op["t_us"])
    scenario = {"mode": "compare", "seed": seed, "workload": ops}
    return Inputs(workload, seed, _dump(topo), _dump(scenario))


TIMED_OPS = ("send_ip", "ext_in", "http_get")


def expected_deliveries(inputs: Inputs) -> Counter[str]:
    """Report flow key -> deliveries a correct run makes, read from the
    documents alone: every routable IP packet once, every fetch once."""
    topo = json.loads(inputs.topology_text)
    ops = json.loads(inputs.scenario_text)["workload"]
    prefixes = [ipaddress.IPv4Network(p) for nap in topo["naps"] for p in nap["prefixes"]]
    attached = {ipaddress.IPv4Address(op["addr"]) for op in ops if op["op"] == "attach"}
    has_border = topo.get("border") is not None
    expected: Counter[str] = Counter()
    for op in ops:
        if op["op"] == "http_get":
            expected[f"http:{op['client']}:{op['fqdn']}{op['url']}"] += 1
        elif op["op"] in ("send_ip", "ext_in"):
            dst = ipaddress.IPv4Address(op["dst"])
            internal = any(dst in p for p in prefixes)
            routable = dst in attached if internal else (has_border and op["op"] == "send_ip")
            if routable:
                src = op.get("src", "203.0.113.1")
                expected[f"ip:{src}->{dst}"] += 1
    return expected


def attempted_ops(inputs: Inputs) -> int:
    ops = json.loads(inputs.scenario_text)["workload"]
    return sum(op["op"] in TIMED_OPS for op in ops)
