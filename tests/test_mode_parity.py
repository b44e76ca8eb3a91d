"""ICN and the plain-IP baseline deliver the same unicast IP packets.

On small random topologies, with every device attached at t=0, each
`send_ip` is delivered by both modes or by neither: to an attached device,
to the border for an address outside the operator's prefixes, and to no one
for an unattached address inside a prefix (ICN keeps it queued, the
baseline drops it) or for an outside address with no border. At most 40
sends keep every pending queue under `PENDING_CAPACITY`, beyond which ICN
drops by design and the baseline does not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CapturingBaselineSimulation, CapturingIcnSimulation, make_topology_doc
from ipicn.gateways import PENDING_CAPACITY
from ipicn.simnet import Scenario

MAX_SENDS = 40
BORDER = 99


@st.composite
def cases(draw):
    """(topology doc, scenario): a connected graph of 2-9 nodes with link
    delays of 0-3000 us, 1-4 NAPs, an optional border, attaches at t=0 and
    up to MAX_SENDS sends."""
    n = draw(st.integers(2, 9))
    nodes = list(range(1, n + 1))
    # a random spanning tree, then a few extra links
    pairs = {(draw(st.integers(1, node - 1)), node) for node in nodes[1:]}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                              max_size=n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    links = [(a, b, {"delay_us": draw(st.integers(0, 3000))}) for a, b in sorted(pairs)]
    naps = [{"client": c, "node": draw(st.sampled_from(nodes)), "prefixes": [f"10.0.{c}.0/24"]}
            for c in range(1, draw(st.integers(1, 4)) + 1)]
    border = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    doc = make_topology_doc(
        nodes, links, naps=naps,
        border=None if border is None else {"client": BORDER, "node": border},
        seed=draw(st.integers(1, 1000)),
    )

    devices = [(nap["client"], f"10.0.{nap['client']}.{host}")
               for nap in naps for host in range(1, draw(st.integers(1, 3)) + 1)]
    destinations = (
        [addr for _, addr in devices]  # attached
        + [f"10.0.{nap['client']}.200" for nap in naps]  # in a prefix, unattached
        + ["10.0.9.1", "10.1.0.1"]  # outside every prefix
        + ["8.8.8.8", "198.51.100.7"]  # external
    )
    wl = [{"t_us": 0, "op": "attach", "client": client, "addr": addr}
          for client, addr in devices]
    for t_us, (client, src), dst, size in draw(st.lists(st.tuples(
            st.integers(0, 20_000), st.sampled_from(devices),
            st.sampled_from(destinations), st.integers(0, 1500)), max_size=MAX_SENDS)):
        wl.append({"t_us": t_us, "op": "send_ip", "client": client, "src": src,
                   "dst": dst, "bytes": size})
    return doc, Scenario(workload=wl)


def delivered_ids(cls, doc, scenario) -> list[int]:
    sim = cls(doc, scenario)
    report = sim.run()
    assert report.counters.get("time_limit_hits", 0) == 0
    return sorted(ip.id for _, ip in sim.ip_deliveries)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_icn_and_baseline_deliver_the_same_packet_ids(case):
    assert MAX_SENDS < PENDING_CAPACITY
    doc, scenario = case
    icn = delivered_ids(CapturingIcnSimulation, doc, scenario)
    assert len(set(icn)) == len(icn)  # each packet at most once
    assert icn == delivered_ids(CapturingBaselineSimulation, doc, scenario)
