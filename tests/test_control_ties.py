"""An ICN control message is sent over its whole path in one step, yet its
arrival ties with other events as it did when each hop took its own event.

`IcnSimulation._route_control` bills and traces every hop of a control
message when it is sent and queues its arrival from the start of its last
hop, so the arrival takes its tie-break sequence number at the same
simulated moment as in the hop-by-hop engine. Queuing the arrival at the
send time instead (one event per message) gives it an earlier sequence
number, so two operations due at the rendezvous at the same time can swap.

- The harness's mini scenario (a copy of `perfbench/tests/test_harness.py`'s
  MINI) has such a tie at t=416010: client 1's `unsubscribe` and client 3's
  `unpublish` arrive together, and the RV must take them in that order.
- Over random runs, the engine equals `HopByHop`, a reference that sends
  each control hop in its own event, in its report, sorted trace and the
  order of the RV's operations, for the full run and one cut at a limit.
  Random delays rarely tie, so a zero-delay line that does is an explicit
  example. On paths of three hops or more the two orders can still differ:
  `test_three_hop_tie_is_taken_in_the_hop_by_hop_order` pins one such case
  as a known failure.
- RV and TM share a node, so the TM handles each match event an RV
  operation returns in the RV's own event: nothing queued runs in between.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_topology_doc
from test_run_invariants import runs
from ipicn.forwarding import wire_size
from ipicn.simnet import IcnSimulation, Scenario, _serialization_us
from ipicn.topology import load_topology_doc

MINI_TOPOLOGY = {
    "nodes": [{"id": n} for n in range(1, 7)],
    "links": [{"a": a, "b": b, "delay_us": d} for a, b, d in
              [(1, 2, 800), (2, 3, 1200), (3, 4, 700), (4, 5, 900), (5, 6, 1500),
               (1, 4, 2500), (2, 6, 3000)]],
    "naps": [{"client": c, "node": n, "prefixes": [f"10.0.{c}.0/24"]}
             for c, n in [(1, 2), (2, 4), (3, 6)]],
    "border": {"client": 1000, "node": 5},
}
MINI_WORKLOAD = (
    [{"t_us": 0, "op": "attach", "client": c, "addr": f"10.0.{c}.10"} for c in (1, 2, 3)]
    + [{"t_us": 0, "op": "http_serve", "client": 3, "fqdn": "mini.example"}]
    + [{"t_us": 50_000 + 1000 * k, "op": "send_ip", "client": 1, "src": "10.0.1.10",
        "dst": "10.0.2.10", "bytes": 64 * k} for k in range(5)]
    + [{"t_us": 51_000 + 1000 * k, "op": "send_ip", "client": 2, "src": "10.0.2.10",
        "dst": "198.51.100.7", "bytes": 100} for k in range(3)]
    + [{"t_us": 52_000 + 1000 * k, "op": "ext_in", "src": "203.0.113.9",
        "dst": "10.0.3.10", "bytes": 200} for k in range(3)]
    + [{"t_us": 60_000 + 1000 * k, "op": "http_get", "client": c, "fqdn": "mini.example",
        "url": "/a", "resp_bytes": 150_000} for k, c in enumerate((1, 2))]
    + [{"t_us": 300_000, "op": "http_get", "client": 1, "fqdn": "mini.example",
        "url": "/b", "resp_bytes": 0}]
)
MINI_SEED = 5

RV_OPS = ("subscribe", "unsubscribe", "publish_availability", "unpublish")


def logging_rv(cls):
    """`cls` keeping (time, operation, client) for each operation its RV
    takes, in the order it takes them, in `rv_log`."""

    class Logging(cls):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.rv_log: list[tuple[int, str, int]] = []
            rv, sim = self.rv, self

            def logged(op):
                take = getattr(rv, op)

                def run(client, name):
                    sim.rv_log.append((sim.now, op, client))
                    return take(client, name)
                return run

            for op in RV_OPS:
                setattr(rv, op, logged(op))

    return Logging


class HopByHop(IcnSimulation):
    """The reference: a control message crosses one link per event, billed
    and traced when the hop starts, and the handler runs in the event of
    its arrival at the path's end."""

    def _route_control(self, path, name, payload_len, handler) -> None:
        if self.ideal_control or not path:
            self.queue.push(self.now, handler)
            return
        size, links = wire_size(name, payload_len), iter(path)

        def hop() -> None:
            link = next(links, None)
            if link is None:
                handler()
                return
            self.link_bytes[link.src, link.dst][0] += size
            self._trace_row(link.src, "ctrl", link, size, name)
            self.queue.push(self.now + link.delay_us + _serialization_us(size, link.capacity_bps),
                            hop)

        hop()


def test_mini_scenario_rv_takes_each_operation_in_the_hop_by_hop_order():
    scenario = Scenario(workload=MINI_WORKLOAD, seed=MINI_SEED)
    topo = load_topology_doc(json.dumps(MINI_TOPOLOGY), MINI_SEED)
    sim = logging_rv(IcnSimulation)(topo, scenario)
    sim.run()
    assert sim.rv_log == [
        (801, "subscribe", 1), (2501, "subscribe", 2), (3402, "subscribe", 1000),
        (3802, "subscribe", 3), (3802, "subscribe", 3),
        (50801, "publish_availability", 1), (53501, "publish_availability", 2),
        (55402, "publish_availability", 1000),
        (60801, "subscribe", 1), (60801, "publish_availability", 1), (62403, "unpublish", 1),
        (63501, "subscribe", 2), (63501, "publish_availability", 2), (68503, "unpublish", 2),
        (168406, "publish_availability", 3), (176010, "unpublish", 3),
        (176534, "unsubscribe", 1), (178159, "unsubscribe", 2),
        (300801, "subscribe", 1), (300801, "publish_availability", 1),
        (302403, "unpublish", 1), (408406, "publish_availability", 3),
        # the tie: client 1's unsubscribe started its last hop first
        (416010, "unsubscribe", 1), (416010, "unpublish", 3),
    ]
    reference = logging_rv(HopByHop)(topo, scenario)
    reference.run()
    assert sim.rv_log == reference.rv_log


def line_tie():
    """Line 1-2-3 with zero-delay links, the RV at node 1. Client 2's
    subscribe leaves node 3 at t=0 and starts its last hop at t=1; the
    t=1 op makes client 3 publish from node 2 over one hop. Both reach the
    RV at t=2, and the subscribe, queued from the start of its last hop
    after the op ran, comes second."""
    doc = make_topology_doc([1, 2, 3], [(1, 2, {"delay_us": 0}), (2, 3, {"delay_us": 0})],
                            naps=[{"client": c, "node": n, "prefixes": [f"10.0.{c}.0/24"]}
                                  for c, n in [(1, 1), (2, 3), (3, 2)]])
    wl = [{"t_us": 0, "op": "attach", "client": c, "addr": f"10.0.{c}.1"} for c in (1, 2, 3)]
    wl.append({"t_us": 1, "op": "send_ip", "client": 3, "src": "10.0.3.1",
               "dst": "10.0.1.1", "bytes": 0})
    return doc, Scenario(workload=wl)


@settings(max_examples=200, deadline=None)
@given(case=runs(), cut=st.integers(0, 1000))
@example(case=line_tie(), cut=500)
def test_control_in_one_step_equals_the_hop_by_hop_engine(case, cut):
    """Also cut at `cut` thousandths of the full run's last event time."""
    doc, scenario = case

    def traced(cls, *limit):
        rows: list[str] = []
        sim = logging_rv(cls)(doc, scenario, trace=rows.append)
        report = sim.run(*limit)
        return report.to_canonical_json(), sorted(rows), sim.rv_log, sim.now

    full = traced(IcnSimulation)
    assert full == traced(HopByHop)
    limit = full[3] * cut // 1000
    assert traced(IcnSimulation, limit)[:3] == traced(HopByHop, limit)[:3]


def three_hop_tie():
    """Client 1's path to the RV at node 1 is 3->5->2->1 over zero-delay
    links (the direct link 1-3 takes 1 us), client 2's is 5->2->1. Both
    subscribe at t=0, and client 2 subscribes again when it serves at t=1:
    client 1's subscribe and client 2's second one reach the RV together at
    t=3."""
    links = [(a, b, {"delay_us": 0}) for a, b in [(1, 2), (1, 4), (1, 6), (2, 5), (3, 5)]]
    doc = make_topology_doc(range(1, 7), [*links, (1, 3, {"delay_us": 1})],
                            naps=[{"client": c, "node": n, "prefixes": [f"10.0.{c}.0/24"]}
                                  for c, n in [(1, 3), (2, 5)]])
    wl = [{"t_us": 0, "op": "attach", "client": c, "addr": f"10.0.{c}.1"} for c in (1, 2)]
    wl.append({"t_us": 1, "op": "http_serve", "client": 2, "fqdn": "a.example"})
    return doc, Scenario(workload=wl)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the two-event control rule queues the event at a "
    "message's last hop start when the message is sent, so on a path of "
    "three hops it can pass an event due at the same moment"))
def test_three_hop_tie_is_taken_in_the_hop_by_hop_order():
    logs = []
    for cls in (IcnSimulation, HopByHop):
        sim = logging_rv(cls)(*three_hop_tie())
        sim.run()
        logs.append(sim.rv_log)
    assert logs[0] == logs[1]


class RvThenTm(IcnSimulation):
    """Logs, in the order they happen, each RV operation with the match
    events it returned, each match event the TM handles, each workload op
    and each queued event the run takes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[tuple] = []
        rv, pop = self.rv, self.queue.pop

        def logged(take):
            def run(client, name):
                events = take(client, name)
                self.log.append(("rv", *events))
                return events
            return run

        def popped():
            self.log.append(("event",))
            return pop()

        for op in RV_OPS:
            setattr(rv, op, logged(getattr(rv, op)))
        self.queue.pop = popped

    def _inject(self, action) -> None:
        self.log.append(("op",))
        super()._inject(action)

    def _tm_handle(self, ev) -> None:
        self.log.append(("tm", ev))
        super()._tm_handle(ev)


def mini():
    return (load_topology_doc(json.dumps(MINI_TOPOLOGY), MINI_SEED),
            Scenario(workload=MINI_WORKLOAD, seed=MINI_SEED))


@settings(max_examples=100, deadline=None)
@given(case=runs(tie_prone=True), ideal_control=st.booleans())
@example(case=mini(), ideal_control=False)
@example(case=mini(), ideal_control=True)
def test_the_tm_handles_each_match_event_in_the_rvs_event(case, ideal_control):
    """Each RV operation is followed at once by the TM handling every match
    event it returned, in the order returned, and the TM handles no other."""
    sim = RvThenTm(*case, ideal_control=ideal_control)
    sim.run()
    log, handled = sim.log, 0
    for i, entry in enumerate(log):
        if entry[0] == "rv":
            events = entry[1:]
            assert log[i + 1:i + 1 + len(events)] == [("tm", ev) for ev in events]
            handled += len(events)
    assert handled == sum(entry[0] == "tm" for entry in log)
