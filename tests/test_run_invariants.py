"""Properties of whole runs, in both modes, over small random networks.

- Flow statistics: the report's `flows` equal the two-pass formula over
  every arrival that reached the simulation's per-flow fold.
- Per-link conservation: each link's `ctrl` and `data` trace rows add up
  to its report `control_bytes` and `data_bytes`; and in ICN mode each
  emission's bytes land once on each edge of its delivery tree, plus the
  crossings counted in `off_tree_forwards` (over `test_mode_parity`'s IP and
  border workloads).
- The plan memo is only a cache: keeping one plan beyond the standing
  trees instead of `_LOOSE_FIDS`, or none at all, gives the same report
  and trace.
- A teardown is answered without a tree, and that is only a shortcut:
  the fid message equals `handle_match` over `tree_for_match`'s tree,
  the publisher's node already has its Dijkstra run, and the tree's
  edges go (also over the three benchmark workloads at seed 1).
- Billing once is only a cache: an untraced run, whose timed routes and
  plans bill a message once, reports and queues exactly what a run whose
  trace sink drops every row does, walking every message hop by hop.
- Time-limit prefix: a run cut at `max_time_us = T` bills each link
  exactly the `ctrl`/`data` bytes of the full run's trace rows stamped at
  or before T (a hop is billed only if it starts by the limit), folds
  exactly the full run's arrivals up to T, and counts one
  `time_limit_hits` exactly when the full run went past T.

Workloads mix `send_ip`, `ext_in` (when there is a border), `http_serve`
and `http_get`, so IP, border and HTTP flows all take part. Each property
also draws tie-prone runs, whose link delays of 0, 1 or 1000 us and ops in
the first 20 us make many events due at the same time, so an order that
depends on how ties break shows.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_cases
from conftest import drop_row, make_topology_doc
from test_mode_parity import cases
from ipicn import simnet
from ipicn.gateways import SEGMENT_CHUNK
from ipicn.simnet import BaselineSimulation, IcnSimulation, Scenario
from ipicn.topology import handle_match, load_topology_doc, tree_for_match

BORDER = 99
FQDNS = ("a.example", "b.example")


@st.composite
def runs(draw, tie_prone=False):
    """(topology doc, scenario): a connected graph of 2-7 nodes, 1-3 NAPs
    with 1-2 devices each, an optional border, and up to 30 ops. Link delays
    are 0-3000 us and ops come at 0-20,000 us (`http_serve` by 5000), or,
    `tie_prone`, delays are 0, 1 or 1000 us and ops come at 0-20 us
    (`http_serve` by 5)."""
    delay_us = st.sampled_from((0, 1, 1000)) if tie_prone else st.integers(0, 3000)
    n = draw(st.integers(2, 7))
    nodes = list(range(1, n + 1))
    pairs = {(draw(st.integers(1, node - 1)), node) for node in nodes[1:]}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                              max_size=n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    links = [(a, b, {"delay_us": draw(delay_us)}) for a, b in sorted(pairs)]
    clients = list(range(1, draw(st.integers(1, 3)) + 1))
    naps = [{"client": c, "node": draw(st.sampled_from(nodes)), "prefixes": [f"10.0.{c}.0/24"]}
            for c in clients]
    border = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    doc = make_topology_doc(
        nodes, links, naps=naps,
        border=None if border is None else {"client": BORDER, "node": border},
        seed=draw(st.integers(1, 1000)),
    )

    devices = [(c, f"10.0.{c}.{host}") for c in clients
               for host in range(1, draw(st.integers(1, 2)) + 1)]
    internal = [addr for _, addr in devices] + ["10.0.1.200"]
    wl = [{"t_us": 0, "op": "attach", "client": c, "addr": addr} for c, addr in devices]
    serve_us = st.integers(0, 5 if tie_prone else 5000)
    wl += [{"t_us": draw(serve_us), "op": "http_serve", "client": c, "fqdn": fqdn}
           for fqdn, c in zip(FQDNS, draw(st.lists(st.sampled_from(clients), max_size=2)))]
    t_us = st.integers(0, 20 if tie_prone else 20_000)
    send_ip = st.builds(
        lambda t, device, dst, size: {"t_us": t, "op": "send_ip", "client": device[0],
                                      "src": device[1], "dst": dst, "bytes": size},
        t_us, st.sampled_from(devices), st.sampled_from(internal + ["8.8.8.8"]),
        st.integers(0, 1500))
    http_get = st.builds(
        lambda t, c, fqdn, url, size: {"t_us": t, "op": "http_get", "client": c,
                                       "fqdn": fqdn, "url": url, "resp_bytes": size},
        t_us, st.sampled_from(clients), st.sampled_from(FQDNS),
        st.sampled_from(("/x", "/y")), st.integers(0, 150_000))
    ops = [send_ip, http_get]
    if border is not None:
        ops.append(st.builds(
            lambda t, dst, size: {"t_us": t, "op": "ext_in", "src": "198.51.100.7",
                                  "dst": dst, "bytes": size},
            t_us, st.sampled_from(internal), st.integers(0, 1500)))
    wl += draw(st.lists(st.one_of(ops), max_size=30))
    return doc, Scenario(workload=wl)


def recording(cls):
    """`cls` keeping each (flow, time, latency) its per-flow fold receives."""

    class Recording(cls):
        def __init__(self, *args, **kwargs) -> None:
            self.folded: list[tuple[str, int, int]] = []
            super().__init__(*args, **kwargs)

        def _fold(self, flow: str, latency_us: int) -> None:
            self.folded.append((flow, self.now, latency_us))
            super()._fold(flow, latency_us)

    return Recording


def two_pass_flow_stats(records: list[tuple[int, int]]) -> dict[str, int]:
    """The reference: the flow statistics computed from every (time,
    latency) arrival of a flow in arrival order, as the simulation did when
    it kept each arrival until the run ended."""
    times = [t for t, _ in records]
    gaps = [b - a for a, b in zip(times, times[1:])]
    if gaps:
        n = len(gaps)
        variance_numerator = n * sum(g * g for g in gaps) - sum(gaps) ** 2
        jitter = math.isqrt(variance_numerator) // n
    else:
        jitter = 0
    return {
        "delivered": len(records),
        "latency_us": sum(lat for _, lat in records) // len(records) if records else 0,
        "jitter_us": jitter,
    }


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(runs(), runs(tie_prone=True)))
def test_flows_equal_the_two_pass_formula_over_every_arrival(case):
    doc, scenario = case
    for cls in (IcnSimulation, BaselineSimulation):
        sim = recording(cls)(doc, scenario)
        report = sim.run()
        by_flow: dict[str, list[tuple[int, int]]] = {}
        for flow, time_us, latency_us in sim.folded:
            by_flow.setdefault(flow, []).append((time_us, latency_us))
        assert report.flows == {
            flow: two_pass_flow_stats(records) for flow, records in by_flow.items()
        }, cls.__name__


def billed_by_rows(rows: list[str], links, limit: float = math.inf) -> dict:
    """Per link in `links`, the bytes of the `ctrl` and `data` trace rows
    stamped at or before `limit`, keyed as in a report's `per_link`."""
    billed = {key: {"control_bytes": 0, "data_bytes": 0} for key in links}
    for row in rows:
        time_us, _, event, link, size, _ = row.split(",")
        if event in ("ctrl", "data") and int(time_us) <= limit:
            billed[link]["control_bytes" if event == "ctrl" else "data_bytes"] += int(size)
    return billed


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(runs(), runs(tie_prone=True)))
def test_trace_rows_add_up_to_each_links_bytes(case):
    doc, scenario = case
    for cls in (IcnSimulation, BaselineSimulation):
        rows: list[str] = []
        report = cls(doc, scenario, trace=rows.append).run()
        assert billed_by_rows(rows, report.per_link) == report.per_link, cls.__name__


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(runs(), runs(tie_prone=True)), data=st.data())
def test_a_time_limited_run_is_a_prefix_of_the_full_run(case, data):
    doc, scenario = case
    for cls in (IcnSimulation, BaselineSimulation):
        rows: list[str] = []
        full = recording(cls)(doc, scenario, trace=rows.append)
        full_report = full.run()
        limit = data.draw(st.integers(0, full.now * 11 // 10), label=f"{cls.__name__} T")
        cut = recording(cls)(doc, scenario)
        report = cut.run(limit)
        assert report.per_link == billed_by_rows(rows, full_report.per_link, limit), cls.__name__
        assert cut.folded == [r for r in full.folded if r[1] <= limit], cls.__name__
        hits = report.counters.get("time_limit_hits", 0)
        assert hits == (1 if full.now > limit else 0), cls.__name__


def repeated_sizes(mixed=False):
    """Line 1 - 2 - 3 - 4 with a NAP at each end: one flow of equal packets,
    and a fetch of three full segments and a short one. Every route and
    plan carries a size again and again, so each is timed and then bills
    most copies once, untraced. `mixed`: the middle link carries 8 Mbit/s,
    so no route is timed and each message walks hop by hop."""
    middle = {"capacity_bps": 8_000_000} if mixed else {}
    doc = make_topology_doc([1, 2, 3, 4], [(1, 2), (2, 3, middle), (3, 4)], seed=3,
                            naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                                  {"client": 2, "node": 4, "prefixes": ["10.0.2.0/24"]}])
    wl = [{"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.1"},
          {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.1"},
          {"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "a.example"},
          {"t_us": 30_000, "op": "http_get", "client": 1, "fqdn": "a.example", "url": "/x",
           "resp_bytes": 3 * SEGMENT_CHUNK + 7}]
    wl += [{"t_us": 1000 * k, "op": "send_ip", "client": 1, "src": "10.0.1.1",
            "dst": "10.0.2.1", "bytes": 300} for k in range(1, 20)]
    return doc, Scenario(workload=wl)


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(runs(), runs(tie_prone=True)), cut=st.integers(0, 25_000))
@example(case=repeated_sizes(), cut=12_345)
@example(case=repeated_sizes(), cut=40_000)
@example(case=repeated_sizes(mixed=True), cut=40_000)
def test_billing_a_timed_message_once_is_only_a_cache(case, cut):
    """Untraced, a route or plan that has timed a message bills it once, to
    its own total, and the link counters take it when the report is built.
    Every report of a run, and the events it queued, equal those of the run
    whose sink drops every row: a full run, and runs cut at 50 ms and at
    `cut` us. A second run() after a cut one raises: a simulation runs its
    ops once."""
    doc, scenario = case
    for cls in (IcnSimulation, BaselineSimulation):

        def reports(limit, **kwargs):
            sim = cls(doc, scenario, **kwargs)
            text = (sim.run() if limit is None else sim.run(limit)).to_canonical_json()
            return text, sim.queue._seq

        for limit in (None, 50_000, cut):
            assert reports(limit) == reports(limit, trace=drop_row), (cls.__name__, limit)
        sim = cls(doc, scenario)
        sim.run(cut)
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run()


class RecordingEmissions(IcnSimulation):
    """Keeps each emission's wire size and the edges of the tree it was
    emitted on."""

    def __init__(self, *args, **kwargs) -> None:
        self.emissions: list[tuple[int, frozenset]] = []
        super().__init__(*args, **kwargs)

    def transmit(self, client, pkt) -> None:
        self.emissions.append((pkt.wire_size,
                               self._tree_edges.get((client, pkt.name), frozenset())))
        super().transmit(client, pkt)


def star_fetch():
    """24 leaves around hub node 1, a NAP on each; half fetch one URL from
    the first. With link-mask seed 14 the response fid matches one hub link
    off the tree: a loop-free off-tree forward, which random cases rarely
    make."""
    leaves = range(2, 26)
    doc = make_topology_doc([1, *leaves], [(1, leaf) for leaf in leaves], seed=14,
                            naps=[{"client": leaf - 1, "node": leaf,
                                   "prefixes": [f"10.0.{leaf - 1}.0/24"]} for leaf in leaves])
    wl = [{"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "a.example"}]
    wl += [{"t_us": 10, "op": "http_get", "client": c, "fqdn": "a.example", "url": "/x",
            "resp_bytes": 100} for c in range(2, 14)]
    return doc, Scenario(workload=wl)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(cases(), runs(tie_prone=True)))
@example(case=star_fetch())
def test_each_emission_lands_on_exactly_its_tree_edges(case):
    doc, scenario = case
    sim = RecordingEmissions(doc, scenario)
    report = sim.run()
    on_tree = {key: 0 for key in report.per_link}
    for size, edges in sim.emissions:
        for link in edges:
            on_tree[f"{link.src}->{link.dst}"] += size
    billed = {key: v["data_bytes"] for key, v in report.per_link.items()}
    if report.counters["off_tree_forwards"] == report.counters["ttl_drops"] == 0:
        assert billed == on_tree
    else:  # off-tree copies add crossings and take none away
        assert all(billed[key] >= on_tree[key] for key in billed)


class Forgetful(IcnSimulation):
    """Drops every delivery plan before each emission, so each copy's plan
    and forward() answers are built anew."""

    def transmit(self, client, pkt) -> None:
        self._plans.clear()
        super().transmit(client, pkt)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(cases(), runs(tie_prone=True)))
@example(case=star_fetch())
def test_the_fid_memo_is_only_a_cache(case):
    """With one loose plan the memo drops and rebuilds more (the star
    fetch drops some; small random cases rarely hold that many fids), and
    with none kept at all it rebuilds every time: the report and the
    unsorted trace stay those of the default."""
    doc, scenario = case

    def traced(cls):
        rows: list[str] = []
        report = cls(doc, scenario, trace=rows.append).run()
        return report.to_canonical_json(), rows

    default = traced(IcnSimulation)
    assert traced(Forgetful) == default
    with mock.patch.object(simnet, "_LOOSE_FIDS", 1):
        assert traced(IcnSimulation) == default


class RecordingTeardowns(IcnSimulation):
    """Checks each match event with no subscribers, which the TM answers
    without building a tree: the fid message it sends is what
    `handle_match` answers over `tree_for_match`'s tree, the publisher's
    node had its Dijkstra run before (so the shortcut skips none), and the
    tree's edges are gone after. Counts the teardowns it checked."""

    def __init__(self, *args, **kwargs) -> None:
        self.teardowns = 0
        self._sent = None
        super().__init__(*args, **kwargs)

    def _route_control(self, path, name, payload_len, handler) -> None:
        self._sent = handler
        super()._route_control(path, name, payload_len, handler)

    def _tm_handle(self, ev) -> None:
        if ev.subscribers:
            super()._tm_handle(ev)
            return
        graph, gw = self.graph, self.gateways[ev.publisher]
        assert graph.attach_node(ev.publisher) in graph._pred_by_root
        runs = len(graph._pred_by_root)
        super()._tm_handle(ev)
        assert len(graph._pred_by_root) == runs
        assert (ev.publisher, ev.name) not in self._tree_edges
        # call the handler of the fid message just sent with the gateway's
        # on_fid caught; the queued call still delivers it when it arrives
        caught = []
        gw.on_fid = caught.append
        self._sent()
        del gw.on_fid
        assert caught == [handle_match(graph, ev, tree_for_match(graph, ev))]
        assert len(graph._pred_by_root) == runs
        self.teardowns += 1


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(runs(), runs(tie_prone=True)), ideal_control=st.booleans())
@example(case=star_fetch(), ideal_control=False)
def test_a_teardown_is_answered_as_its_tree_would_be(case, ideal_control):
    doc, scenario = case
    sim = RecordingTeardowns(doc, scenario, ideal_control=ideal_control)
    report = sim.run()
    assert report.to_canonical_json() == IcnSimulation(
        doc, scenario, ideal_control=ideal_control).run().to_canonical_json()


@pytest.mark.parametrize("workload", golden_cases.WORKLOADS)
def test_a_benchmark_teardown_is_answered_as_its_tree_would_be(workload):
    topology_text, scenario = golden_cases.inputs(workload, 1)
    sim = RecordingTeardowns(load_topology_doc(topology_text, scenario.seed), scenario)
    sim.run()
    # unicast_mesh fetches nothing and withdraws nothing, so tears no tree down
    assert (sim.teardowns > 0) is (workload != "unicast_mesh")
