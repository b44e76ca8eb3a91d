"""Simulation harness: accounting, determinism, baseline parity."""

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import golden_cases
from conftest import (
    CapturingBaselineSimulation,
    CapturingIcnSimulation,
    drop_row,
    make_topology_doc,
    random_connected_graph,
    walking,
)
from ipicn import gateways, simnet
from ipicn.forwarding import IcnPacket
from ipicn.names import Locality, name_for_http, name_for_ip, render_name
from ipicn.simnet import (
    BaselineSimulation,
    IcnSimulation,
    Scenario,
    ScenarioError,
    UnknownClientError,
    load_scenario,
)
from ipicn.topology import load_topology_doc

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def two_node_doc():
    return make_topology_doc(
        nodes=[1, 2],
        undirected_links=[(1, 2)],
        naps=[{"client": 1, "node": 2, "prefixes": ["10.0.1.0/24"]}],
        border={"client": 99, "node": 1},
        seed=7,
    )


def line_doc(n_links, naps, border=None, seed=7):
    nodes = list(range(1, n_links + 2))
    return make_topology_doc(
        nodes=nodes,
        undirected_links=[(i, i + 1) for i in nodes[:-1]],
        naps=naps,
        border=border,
        seed=seed,
    )


class TestScenarioLoading:
    def test_minimal_document(self):
        sc = load_scenario('{"mode":"icn","seed":3,"workload":[]}')
        assert sc.mode == "icn" and sc.seed == 3 and sc.workload == ()

    def test_bad_json_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario("{nope")

    def test_unknown_op_rejected(self):
        with pytest.raises(ScenarioError, match="unknown workload op"):
            load_scenario('{"workload":[{"t_us":0,"op":"frobnicate"}]}')

    def test_missing_time_rejected(self):
        with pytest.raises(ScenarioError, match="t_us"):
            load_scenario('{"workload":[{"op":"attach","client":1,"addr":"10.0.1.5"}]}')

    def test_missing_op_field_rejected(self):
        with pytest.raises(ScenarioError, match="needs 'dst'"):
            load_scenario('{"workload":[{"t_us":0,"op":"send_ip","client":1,'
                          '"src":"10.0.1.5"}]}')

    def test_op_field_types_and_ranges(self):
        op = '{"t_us":0,"op":"send_ip","client":1,"src":"a","dst":"b",%s}'
        load_scenario('{"workload":[%s]}' % (op % '"bytes":65507,"proto":255'))
        for bad in ('"bytes":65508', '"bytes":true', '"proto":-1', '"proto":1.0',
                    '"dst":7'):
            with pytest.raises(ScenarioError, match="invalid"):
                load_scenario('{"workload":[%s]}' % (op % bad))

    def test_negative_seed_rejected(self):
        assert load_scenario('{"seed":0,"workload":[]}').seed == 0
        with pytest.raises(ScenarioError, match="seed must not be negative, got -5"):
            load_scenario('{"seed":-5,"workload":[]}')

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            load_scenario('{"mode":"magic","workload":[]}')

    def test_workload_is_one_tuple_in_stable_t_us_order(self):
        ops = [{"t_us": t, "op": "http_serve", "client": 1, "fqdn": f"s{k}.example"}
               for k, t in enumerate((5, 0, 5, 3, 0))]
        sc = Scenario(workload=ops)
        assert type(sc.workload) is tuple
        assert sc.workload == tuple(sorted(ops, key=lambda op: op["t_us"]))
        assert all(kept is op for kept, op in zip(sc.workload, [ops[i] for i in (1, 4, 3, 0, 2)]))

    def test_a_built_scenario_takes_no_unchecked_op(self):
        """Neither an op appended to the workload nor a new workload skips
        the checks: a Scenario is frozen and its workload a tuple."""
        sc = load_scenario('{"workload":[{"t_us":0,"op":"attach","client":1,"addr":"10.0.1.5"}]}')
        with pytest.raises(AttributeError):
            sc.workload.append({"op": "bogus", "t_us": 0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.workload = [{"op": "bogus", "t_us": 0}]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.seed = -5
        assert len(sc.workload) == 1 and sc.seed == 1

    def test_a_copy_is_checked_again(self):
        sc = Scenario(workload=[{"t_us": 9, "op": "http_serve", "client": 1, "fqdn": "b"},
                                {"t_us": 2, "op": "http_serve", "client": 1, "fqdn": "a"}])
        again = dataclasses.replace(sc, seed=2)
        assert again.seed == 2 and again.workload == sc.workload
        assert Scenario(workload=sc.workload) == sc
        with pytest.raises(ScenarioError, match="seed must not be negative"):
            dataclasses.replace(sc, seed=-1)
        with pytest.raises(ScenarioError, match="unknown workload op"):
            Scenario(workload=(*sc.workload, {"op": "bogus", "t_us": 0}))
        with pytest.raises(ScenarioError, match="non-integer t_us"):
            Scenario(workload=[*sc.workload, {"t_us": "5", "op": "http_serve",
                                              "client": 1, "fqdn": "c"}])

    def test_unknown_client_detected_at_wiring(self):
        sc = Scenario(workload=[{"t_us": 0, "op": "attach", "client": 42,
                                 "addr": "10.0.1.5"}])
        with pytest.raises(UnknownClientError):
            IcnSimulation(two_node_doc(), sc)


class TestEntryPoints:
    """A `TopologyDoc` is used as is; a dict or JSON text is loaded once,
    with the scenario's seed."""

    @staticmethod
    def inputs():
        # a 20-node mesh whose one HTTP response tree sets enough fid bits
        # that seed 4's link masks forward off the tree and seed 1's do not
        nodes, pairs = random_connected_graph(random.Random(5), 20, 50)
        doc = {
            "nodes": [{"id": n} for n in nodes],
            "links": [{"a": a, "b": b} for a, b in pairs],
            "naps": [{"client": i, "node": i, "prefixes": [f"10.0.{i}.0/24"]}
                     for i in nodes],
        }
        wl = [{"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "cdn.example"}]
        wl += [{"t_us": 10 * i, "op": "http_get", "client": i, "fqdn": "cdn.example",
                "url": "/v/1", "resp_bytes": 1000} for i in nodes[1:]]
        return json.dumps(doc), Scenario(workload=wl, seed=4)

    @pytest.mark.parametrize("entry", [simnet.run, simnet.run_ip_baseline, simnet.compare])
    def test_json_text_is_loaded_with_the_scenario_seed(self, entry):
        text, sc = self.inputs()
        expected = entry(sc, load_topology_doc(text, sc.seed)).to_canonical_json()
        assert entry(sc, text).to_canonical_json() == expected
        assert entry(sc, json.loads(text)).to_canonical_json() == expected

    def test_the_seed_reaches_the_link_masks(self):
        text, sc = self.inputs()
        seeded = simnet.run(sc, text)
        assert seeded.counters["off_tree_forwards"] > 0
        assert simnet.run(sc, load_topology_doc(text, 1)).counters["off_tree_forwards"] == 0

    @pytest.mark.parametrize("entry", [simnet.run, simnet.compare])
    def test_negative_window_is_rejected(self, entry):
        doc = make_topology_doc(nodes=[1, 2], undirected_links=[(1, 2)])  # no NAP to check it
        with pytest.raises(ValueError, match="window must not be negative"):
            entry(Scenario(workload=[]), doc, window_us=-1)

    @pytest.mark.parametrize("window_us", [1.5, "5", None, True])
    @pytest.mark.parametrize("entry", [simnet.run, simnet.compare])
    def test_non_integer_window_is_rejected_before_the_run(self, entry, window_us, monkeypatch):
        """Refused when the simulation is built, not by the report after a
        whole run: a run that started would call `_drain`."""
        doc = make_topology_doc(nodes=[1, 2], undirected_links=[(1, 2)])  # no NAP to check it

        def no_run(*_):
            raise AssertionError("the run started")

        monkeypatch.setattr(simnet._AccountingMixin, "_drain", no_run)
        with pytest.raises(ValueError, match="must not be negative or a non-int, got "):
            entry(Scenario(workload=[]), doc, window_us=window_us)


class TestEmptyWorkload:
    def test_all_zero_report(self):
        report = simnet.run(Scenario(workload=[]), two_node_doc())
        assert report.totals == {
            "control_bytes": 0,
            "data_bytes": 0,
            "signalling_overhead_pct": 0,
        }
        assert all(v == 0 for c in report.per_link.values() for v in c.values())
        assert report.flows == {}
        assert all(v == 0 for v in report.counters.values())

    def test_compare_reports_unit_ratios(self):
        cmp = simnet.compare(Scenario(workload=[]), two_node_doc())
        assert all(l["data_ratio"] == 1.0 for l in cmp.links.values())
        assert cmp.bottleneck["savings_factor"] == 1.0


class TestCompareSingleFlow:
    def test_data_ratio_near_one_and_overhead_above_baseline(self):
        doc = make_topology_doc(
            nodes=[1, 2, 3],
            undirected_links=[(1, 2), (2, 3)],
            naps=[
                {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 3, "prefixes": ["10.0.2.0/24"]},
            ],
            seed=5,
        )
        sc = Scenario(
            workload=[
                {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
                {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
                {"t_us": 100, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                 "dst": "10.0.2.9", "bytes": 777},
            ]
        )
        cmp = simnet.compare(sc, doc)
        # same payload once over the same path; only header sizes differ
        # (103 + 777) / (17 + 777)
        for link in ("1->2", "2->3"):
            assert cmp.links[link]["data_ratio"] == pytest.approx(880 / 794)
        assert cmp.overhead["icn_pct"] > cmp.overhead["baseline_pct"] == 0.0
        assert cmp.overhead["delta_pct"] > 0


class TestCompareReport:
    """A byte ratio is rounded to 6 places, 1.0 when neither run carries a
    byte and None when only its denominator's run carries none."""

    STAR_SHA1 = "e1c78ace814ff378a1893c690e3f1f9cacd194d0"

    def test_a_link_only_icn_carries_data_on_reads_null(self):
        # seed 4's link masks forward the response off its tree on two links
        text, sc = TestEntryPoints.inputs()
        cmp = simnet.compare(sc, text)
        assert len(cmp.links) == 138
        off_tree = {k: l for k, l in cmp.links.items() if l["data_ratio"] is None}
        assert sorted(off_tree) == ["12->15", "4->8"]
        for link in off_tree.values():
            assert link["baseline_data_bytes"] == 0 < link["icn_data_bytes"]
        for link in cmp.links.values():
            icn_d, base_d = link["icn_data_bytes"], link["baseline_data_bytes"]
            if base_d:
                assert link["data_ratio"] == round(icn_d / base_d, 6)
        assert cmp.bottleneck == {"baseline_data_bytes": 6102, "icn_data_bytes": 1086,
                                  "link": "1->2", "savings_factor": 5.618785}

    def test_a_one_node_topology_has_no_links_and_no_bottleneck(self):
        cmp = simnet.compare(Scenario(workload=[]),
                             make_topology_doc(nodes=[1], undirected_links=[]))
        assert cmp.links == {}
        assert cmp.bottleneck == {"link": None, "savings_factor": 1.0}

    def test_star_demo_report_is_pinned_and_nests_both_mode_reports(self):
        scenario = load_scenario((DEMO_DATA / "star_scenario.json").read_text())
        topo = load_topology_doc((DEMO_DATA / "star.json").read_text(), scenario.seed)
        cmp = simnet.compare(scenario, topo)
        text = cmp.to_canonical_json()
        assert hashlib.sha1(text.encode()).hexdigest() == self.STAR_SHA1
        doc = json.loads(text)
        for key, report in (("icn", simnet.run(scenario, topo)),
                            ("baseline", simnet.run_ip_baseline(scenario, topo))):
            assert report.to_canonical_json() == json.dumps(
                doc[key], sort_keys=True, separators=(",", ":"))


class TestSinglePacketHandTrace:
    """One internal device sends one packet to an external address.

    NAP at node 2, border and RV/TM at node 1, one 1000 us / 1 Gbps link.
    On the wire: the attach subscription, the availability publication and
    the fid delivery (the RV-to-TM instruction stays on node 1); then one
    data packet. Every size follows from the wire layout:
    38 fixed + 8 per name element + payload.
    """

    SC = Scenario(
        workload=[
            {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
            {"t_us": 1000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "8.8.8.8", "bytes": 100},
        ]
    )

    # address names have 5 scopes + item = 6 elements
    SR = 38 + 8 * 6 + 5       # control meta payload: client u32 | flag u8
    PR = 38 + 8 * 6 + 5
    TP = 38 + 8 * 6 + 37      # fid payload: client u32 | fid 32 | local u8
    DATA = 38 + 8 * 6 + 17 + 100  # encapsulation header 17 + ip payload

    def test_byte_counters_match_hand_computation(self):
        report = simnet.run(self.SC, two_node_doc())
        assert report.per_link["2->1"]["control_bytes"] == self.SR + self.PR
        assert report.per_link["1->2"]["control_bytes"] == self.TP
        assert report.per_link["2->1"]["data_bytes"] == self.DATA
        assert report.per_link["1->2"]["data_bytes"] == 0
        assert report.totals["control_bytes"] == self.SR + self.PR + self.TP
        assert report.totals["data_bytes"] == self.DATA
        expected_pct = round(
            100 * (self.SR + self.PR + self.TP)
            / (self.SR + self.PR + self.TP + self.DATA), 4
        )
        assert report.totals["signalling_overhead_pct"] == expected_pct

    def test_exactly_one_delivery_with_latency(self):
        report = simnet.run(self.SC, two_node_doc())
        flow = report.flows["ip:10.0.1.5->8.8.8.8"]
        # PR: 1000 us delay + 1 us serialization; TP likewise; data likewise
        ser = lambda size: math.ceil(8 * size * 1_000_000 / 1_000_000_000)
        expected = (
            (1000 + ser(self.PR)) + (1000 + ser(self.TP)) + (1000 + ser(self.DATA))
        )
        assert flow == {"delivered": 1, "latency_us": expected, "jitter_us": 0}


class TestDeterminism:
    SC = Scenario(
        workload=[
            {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
            {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
            {"t_us": 5000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 400},
            {"t_us": 9000, "op": "send_ip", "client": 2, "src": "10.0.2.9",
             "dst": "10.0.1.5", "bytes": 300},
            {"t_us": 9500, "op": "ext_in", "dst": "10.0.1.5", "bytes": 50},
        ]
    )

    def doc(self, seed=13):
        return make_topology_doc(
            nodes=[1, 2, 3, 4],
            undirected_links=[(1, 2), (2, 3), (3, 4), (1, 4)],
            naps=[
                {"client": 1, "node": 2, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 4, "prefixes": ["10.0.2.0/24"]},
            ],
            border={"client": 99, "node": 1},
            seed=seed,
        )

    def test_same_seed_byte_identical(self):
        a = simnet.run(self.SC, self.doc()).to_canonical_json()
        b = simnet.run(self.SC, self.doc()).to_canonical_json()
        assert a == b

    def test_different_seeds_differ_only_in_mask_driven_counters(self):
        reports = [simnet.run(self.SC, self.doc(seed=s)) for s in (1, 2, 3)]
        if all(
            r.counters["fp_deliveries"] == 0
            and r.counters["off_tree_forwards"] == 0
            for r in reports
        ):
            texts = {r.to_canonical_json() for r in reports}
            assert len(texts) == 1


class TestBaseline:
    def test_latency_closed_form_on_line(self):
        # L unit links: latency = L * (delay + serialization)
        L, size = 4, 100
        doc = line_doc(
            L,
            naps=[
                {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": L + 1, "prefixes": ["10.0.2.0/24"]},
            ],
        )
        sc = Scenario(
            workload=[
                {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
                {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
                {"t_us": 100, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                 "dst": "10.0.2.9", "bytes": size},
            ]
        )
        report = simnet.run_ip_baseline(sc, doc)
        wire = 17 + size
        ser = math.ceil(8 * wire * 1_000_000 / 1_000_000_000)
        assert report.flows["ip:10.0.1.5->10.0.2.9"]["latency_us"] == L * (1000 + ser)
        assert report.totals["control_bytes"] == 0
        assert report.totals["data_bytes"] == L * wire

    def test_delivered_payloads_identical_across_modes(self):
        doc_args = dict(
            nodes=[1, 2, 3],
            undirected_links=[(1, 2), (2, 3)],
            naps=[
                {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 3, "prefixes": ["10.0.2.0/24"]},
            ],
            seed=5,
        )
        sc = Scenario(
            workload=[
                {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
                {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
                {"t_us": 100, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                 "dst": "10.0.2.9", "bytes": 777},
            ]
        )
        icn = CapturingIcnSimulation(make_topology_doc(**doc_args), sc)
        icn.run()
        base = CapturingBaselineSimulation(make_topology_doc(**doc_args), sc)
        base.run()
        icn_payloads = [p.payload for _, p in icn.ip_deliveries]
        base_payloads = [p.payload for _, p in base.ip_deliveries]
        assert icn_payloads == base_payloads
        assert len(icn_payloads) == 1

    def test_unattached_destination_dropped(self):
        doc = two_node_doc()
        sc = Scenario(
            workload=[
                {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
                {"t_us": 100, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                 "dst": "10.0.1.200", "bytes": 10},
            ]
        )
        report = simnet.run_ip_baseline(sc, doc)
        assert report.counters["drops"] == 1
        assert report.flows == {}

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    @pytest.mark.parametrize("addrs, match", [
        (["10.0.2.5"], "outside this NAP's prefixes"),
        (["10.0.1.5", "10.0.1.5"], "already assigned"),
    ])
    def test_both_modes_attach_by_one_rule(self, cls, addrs, match):
        sc = Scenario(workload=[
            {"t_us": 0, "op": "attach", "client": 1, "addr": a} for a in addrs
        ])
        with pytest.raises(ValueError, match=match):
            cls(two_node_doc(), sc).run()

    @staticmethod
    def pushes(doc, workload):
        """How many events a baseline run of `workload` queues."""
        sim = BaselineSimulation(doc, Scenario(workload=workload))
        count = [0]
        push = sim.queue.push

        def counting_push(time_us, fn):
            count[0] += 1
            push(time_us, fn)

        sim.queue.push = counting_push
        sim.run()
        return count[0]

    @pytest.mark.parametrize("far_node, pushes", [(5, (1, 2)), (1, (0, 0))])
    def test_each_message_is_one_event(self, far_node, pushes):
        """A packet over a 4-hop line queues only its arrival, and a fetch
        whose response has 3 segments only the request's arrival and one
        completion; between two NAPs on one node nothing is queued."""
        doc = line_doc(4, naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                                {"client": 2, "node": far_node, "prefixes": ["10.0.2.0/24"]}])
        attach = [{"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
                  {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"}]
        send = {"t_us": 10, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                "dst": "10.0.2.9", "bytes": 100}
        fetch = [{"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "a.example"},
                 {"t_us": 10, "op": "http_get", "client": 1, "fqdn": "a.example", "url": "/x",
                  "resp_bytes": 3 * gateways.SEGMENT_CHUNK}]
        assert (self.pushes(doc, attach + [send]), self.pushes(doc, fetch)) == pushes

    def test_a_message_traces_its_hops_together_at_their_start_times(self):
        """Hand trace of two overlapping messages over a 4-hop line. Each
        link carries 1 byte per us, so a hop's serialization in us is the
        wire size (payload + 17), and each hop starts its link's delay plus
        that after the one before. Both messages are billed when sent, so
        each one's rows are contiguous, though in time order they interleave
        (0, 50, 350, 600, ...)."""
        delays = (100, 200, 300, 400)
        doc = make_topology_doc(
            [1, 2, 3, 4, 5],
            [(i, i + 1, {"delay_us": d, "capacity_bps": 8_000_000})
             for i, d in enumerate(delays, 1)],
            naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                  {"client": 2, "node": 5, "prefixes": ["10.0.2.0/24"]}])
        sc = Scenario(workload=[
            {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
            {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
            {"t_us": 0, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 483},
            {"t_us": 50, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 183},
        ])
        rows = []
        report = BaselineSimulation(doc, sc, trace=rows.append).run()
        assert rows == [
            "0,1,data,1->2,500,-", "600,2,data,2->3,500,-",
            "1300,3,data,3->4,500,-", "2100,4,data,4->5,500,-",
            "50,1,data,1->2,200,-", "350,2,data,2->3,200,-",
            "750,3,data,3->4,200,-", "1250,4,data,4->5,200,-",
        ]
        # arrivals at 2100 + 400 + 500 = 3000 and 1250 + 400 + 200 = 1850
        flow = report.flows["ip:10.0.1.5->10.0.2.9"]
        assert flow == {"delivered": 2, "latency_us": (3000 + 1800) // 2, "jitter_us": 0}


class TestHttpScenarios:
    @staticmethod
    def star_doc(n_clients, seed=3):
        nodes = list(range(n_clients + 2))  # 0 server, 1 hub, 2.. clients
        links = [(0, 1)] + [(1, i) for i in range(2, n_clients + 2)]
        naps = [{"client": 100, "node": 0, "prefixes": ["10.0.0.0/24"]}] + [
            {"client": i, "node": i + 1, "prefixes": [f"10.0.{i}.0/24"]}
            for i in range(1, n_clients + 1)
        ]
        return make_topology_doc(nodes, links, naps=naps, seed=seed)

    @staticmethod
    def star_scenario(n_clients, resp_bytes, spacing_us=10):
        wl = [{"t_us": 0, "op": "http_serve", "client": 100, "fqdn": "cdn.example"}]
        for i in range(1, n_clients + 1):
            wl.append({"t_us": spacing_us * i, "op": "http_get", "client": i,
                       "fqdn": "cdn.example", "url": "/v/1",
                       "resp_bytes": resp_bytes})
        return Scenario(workload=wl)

    def test_bottleneck_carries_response_once(self):
        n, size = 5, 200_000
        cmp = simnet.compare(self.star_scenario(n, size), self.star_doc(n))
        icn_fwd = cmp.icn.per_link["0->1"]["data_bytes"]
        base_fwd = cmp.baseline.per_link["0->1"]["data_bytes"]
        segments = math.ceil(size / 65507)
        assert base_fwd == n * (size + 17 * segments)
        # response name has 4 elements: 70-byte header + 16-byte frame
        assert icn_fwd == size + segments * (38 + 8 * 4 + 16)
        assert cmp.bottleneck["link"] == "0->1"
        assert cmp.bottleneck["savings_factor"] > n * 0.9

    def test_all_requesters_complete_in_both_modes(self):
        n = 5
        cmp = simnet.compare(self.star_scenario(n, 50_000), self.star_doc(n))
        for mode_report in (cmp.icn, cmp.baseline):
            flows = [f for k, f in mode_report.flows.items() if k.startswith("http:")]
            assert len(flows) == n
            assert all(f["delivered"] == 1 for f in flows)

    def test_window_override_splits_exchanges(self):
        doc_args = dict(n_clients=2)
        sc = Scenario(
            workload=[
                {"t_us": 0, "op": "http_serve", "client": 100, "fqdn": "cdn.example"},
                {"t_us": 1000, "op": "http_get", "client": 1, "fqdn": "cdn.example",
                 "url": "/v/1", "resp_bytes": 30_000},
                {"t_us": 50_000, "op": "http_get", "client": 2, "fqdn": "cdn.example",
                 "url": "/v/1", "resp_bytes": 30_000},
            ]
        )
        wide = simnet.run(sc, self.star_doc(**doc_args), window_us=200_000)
        narrow = simnet.run(sc, self.star_doc(**doc_args), window_us=5_000)
        served_link = "0->1"
        body_with_frame = 30_000 + 38 + 8 * 4 + 16
        assert wide.per_link[served_link]["data_bytes"] == body_with_frame
        assert narrow.per_link[served_link]["data_bytes"] == 2 * body_with_frame

    @staticmethod
    def two_nap_doc():
        """NAP 1 at node 1 fetches from NAP 2 at node 2, one link away."""
        return make_topology_doc(nodes=[1, 2], undirected_links=[(1, 2)], naps=[
            {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
            {"client": 2, "node": 2, "prefixes": ["10.0.2.0/24"]}], seed=7)

    @staticmethod
    def get(t_us, fqdn="cdn.example"):
        return {"t_us": t_us, "op": "http_get", "client": 1, "fqdn": fqdn, "url": "/v/1",
                "resp_bytes": 100}

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation], ids=["icn", "ip"])
    def test_unserved_fqdn_counted_unroutable(self, cls):
        sc = Scenario(workload=[
            {"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "cdn.example"},
            self.get(10, fqdn="nowhere.example"),
        ])
        sim = cls(self.two_nap_doc(), sc)
        report = sim.run()
        assert report.counters["unroutable_http"] == 1
        assert report.flows == {}
        assert report.totals["data_bytes"] == 0  # no request left the NAP
        assert sim._http_issue == {}

    @pytest.mark.parametrize("cls, latency_us", [
        # ICN: the 100 ms window plus the request and response trips
        (IcnSimulation, 104_006),
        # baseline: one link each way
        (BaselineSimulation, 2_002),
    ], ids=["icn", "ip"])
    def test_fetch_before_the_server_leaves_no_issue_time(self, cls, latency_us):
        # the first fetch has no server yet; the later one with the same
        # client, FQDN and URL is timed from its own issue
        sc = Scenario(workload=[
            self.get(0),
            {"t_us": 10, "op": "http_serve", "client": 2, "fqdn": "cdn.example"},
            self.get(1_000_000),
        ])
        sim = cls(self.two_nap_doc(), sc)
        report = sim.run()
        assert report.counters["unroutable_http"] == 1
        assert report.flows["http:1:cdn.example/v/1"]["delivered"] == 1
        assert report.flows["http:1:cdn.example/v/1"]["latency_us"] == latency_us
        assert sim._http_issue == {}


class TestJitter:
    def test_population_stddev_of_gaps(self):
        # warm path, equal sizes: arrival gaps equal send gaps 100 and 300,
        # so jitter = sqrt(((100-200)^2 + (300-200)^2) / 2) = 100
        doc = make_topology_doc(
            nodes=[1, 2, 3],
            undirected_links=[(1, 2), (2, 3)],
            naps=[
                {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 3, "prefixes": ["10.0.2.0/24"]},
            ],
            seed=5,
        )
        wl = [
            {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
            {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
            {"t_us": 10_000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 100},  # warms the cache
            {"t_us": 50_000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 100},
            {"t_us": 50_100, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 100},
            {"t_us": 50_400, "op": "send_ip", "client": 1, "src": "10.0.1.5",
             "dst": "10.0.2.9", "bytes": 100},
        ]
        report = simnet.run(Scenario(workload=wl), doc)
        flow = report.flows["ip:10.0.1.5->10.0.2.9"]
        assert flow["delivered"] == 4
        # the NAP sits on the RV node, so the cold send's control round trip
        # crosses no links and its data leaves at 10000 like the warm ones;
        # all four packets take the same 2-hop path with equal serialization,
        # so arrival gaps equal send gaps: 40000, 100, 300
        gaps = [40_000, 100, 300]
        n, total, squares = len(gaps), sum(gaps), sum(g * g for g in gaps)
        expected = math.isqrt(n * squares - total * total) // n
        assert flow["jitter_us"] == expected == 18_762

    def test_single_delivery_reports_zero_jitter(self):
        report = simnet.run(TestSinglePacketHandTrace.SC, two_node_doc())
        assert report.flows["ip:10.0.1.5->8.8.8.8"]["jitter_us"] == 0


class TestIdealControl:
    def test_zero_control_bytes_same_delivery(self):
        sc = TestSinglePacketHandTrace.SC
        ideal = simnet.run(sc, two_node_doc(), ideal_control=True)
        assert ideal.totals["control_bytes"] == 0
        assert ideal.flows["ip:10.0.1.5->8.8.8.8"]["delivered"] == 1
        full = simnet.run(sc, two_node_doc())
        assert (
            ideal.per_link["2->1"]["data_bytes"]
            == full.per_link["2->1"]["data_bytes"]
        )


class TestTrace:
    def test_rows_have_six_fields(self):
        doc = two_node_doc()
        rows = []
        IcnSimulation(doc, TestSinglePacketHandTrace.SC, trace=rows.append).run()
        assert rows, "trace should not be empty"
        for row in rows:
            assert len(row.split(",")) == 6
        events = {row.split(",")[2] for row in rows}
        assert "ctrl" in events and "data" in events and "peer-out" in events


    # the small demo's unsorted trace per simulation class; the test ids are
    # the class names, so a deliberate re-pin does not rename a test
    SMALL_TRACE_SHA1 = {
        IcnSimulation: "7ab8cc1afbd2275967b106ddf63eb17b2fe6b215",
        BaselineSimulation: "f745e7b2cddf96af7054e2ec891a6caa78e46a1a",
    }

    @pytest.mark.parametrize("cls", list(SMALL_TRACE_SHA1), ids=lambda cls: cls.__name__)
    def test_small_demo_trace_is_pinned(self, cls):
        """The unsorted rows, pinned. An ICN control message bills and traces
        every hop when it is sent, each row stamped with that hop's start,
        so its `ctrl` rows come in send order, as data rows do: a two-hop
        request's second row comes before other messages' rows stamped
        earlier. The ICN pin moved with that change; the small demo's report
        and sorted rows did not."""
        scenario = load_scenario((DEMO_DATA / "small_scenario.json").read_text())
        topo = load_topology_doc((DEMO_DATA / "small.json").read_text(), scenario.seed)
        rows = []
        cls(topo, scenario, trace=rows.append).run()
        text = "\n".join(rows)
        assert hashlib.sha1(text.encode()).hexdigest() == self.SMALL_TRACE_SHA1[cls]

    def test_star_demo_baseline_trace_comes_in_send_order(self):
        """The baseline bills and traces every hop of a message when it is
        sent, each row stamped with that hop's start time, so its rows come
        in send order, not time order. The sorted rows are pinned apart from
        their order, so a change to which rows are written shows apart from a
        change to the order they come in. (The small demo's rows happen to
        come in time order, so its pin above holds both.)"""
        scenario = load_scenario((DEMO_DATA / "star_scenario.json").read_text())
        topo = load_topology_doc((DEMO_DATA / "star.json").read_text(), scenario.seed)
        rows = []
        BaselineSimulation(topo, scenario, trace=rows.append).run()
        sha1 = lambda lines: hashlib.sha1("\n".join(lines).encode()).hexdigest()
        assert sha1(sorted(rows)) == "98949bf6eb4892f5bd12a0307040195b76c3af1e"
        assert sha1(rows) == "37bc0d41c1a6397d65a1e07a7a07a129b5f977b8"


class TestInternedStateAcrossRuns:
    """Names are interned for the process, so a run must not depend on the
    runs before it. The small demo's trace is
    TestTrace's pin, `ctrl` rows in send order."""

    @staticmethod
    def traced_run(demo):
        scenario = load_scenario((DEMO_DATA / f"{demo}_scenario.json").read_text())
        topo = load_topology_doc((DEMO_DATA / f"{demo}.json").read_text(), scenario.seed)
        rows = []
        report = IcnSimulation(topo, scenario, trace=rows.append).run()
        return report.to_canonical_json(), "\n".join(rows)

    def test_a_run_after_another_scenario_and_after_itself_is_unchanged(self):
        for cache in (name_for_ip, name_for_http):
            cache.cache_clear()
        self.traced_run("star")
        first = self.traced_run("small")
        second = self.traced_run("small")
        assert first == second
        assert (hashlib.sha1(first[1].encode()).hexdigest()
                == TestTrace.SMALL_TRACE_SHA1[IcnSimulation])


class TestOneTreePerMatch:
    def test_small_demo_builds_each_match_tree_once(self, monkeypatch):
        from ipicn import topology

        calls = {"handle_match": 0, "tree_for_match": 0}

        def counting(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        for module in (simnet, topology):
            for name in calls:
                monkeypatch.setattr(module, name, counting(getattr(topology, name)))
        scenario = load_scenario((DEMO_DATA / "small_scenario.json").read_text())
        topo = load_topology_doc((DEMO_DATA / "small.json").read_text(), scenario.seed)
        IcnSimulation(topo, scenario).run()
        assert calls["handle_match"] > 0
        assert calls["tree_for_match"] == calls["handle_match"]


class TestConservation:
    def test_per_link_data_bytes_match_hand_routed_paths(self):
        # square 1-2-3-4 plus chord 1-4; NAP1 at node 2, NAP2 at node 4,
        # border at node 1. Equal delays, so ties break through node 1:
        #   10.0.1.5 -> 10.0.2.9 : 2 -> 1 -> 4   (503 bytes on each link)
        #   10.0.2.9 -> 10.0.1.5 : 4 -> 1 -> 2   (403 bytes)
        #   ext_in   -> 10.0.1.5 : 1 -> 2        (153 bytes)
        # data wire size = 38 header + 48 name + 17 encapsulation + payload
        report = simnet.run(TestDeterminism.SC, TestDeterminism().doc())
        expected = {
            "1->2": 403 + 153,
            "1->4": 503,
            "2->1": 503,
            "2->3": 0,
            "3->2": 0,
            "3->4": 0,
            "4->1": 403,
            "4->3": 0,
        }
        assert {
            k: v["data_bytes"] for k, v in report.per_link.items()
        } == expected
        assert report.counters["drops"] == 0
        assert report.counters["ttl_drops"] == 0
        assert report.counters["off_tree_forwards"] == 0
        assert sum(f["delivered"] for f in report.flows.values()) == 3

class TestDataPath:
    @pytest.mark.parametrize("ttl, ttl_drops, crossed", [
        (1, 1, []),  # spent at the emitting node, which still counts the drop
        (2, 1, ["1->2"]),
        (3, 0, ["1->2", "2->3"]),
    ])
    def test_transmitted_ttl_bounds_the_copies(self, ttl, ttl_drops, crossed):
        doc = line_doc(2, naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]}])
        sim = IcnSimulation(doc, Scenario(workload=[]))
        pkt = IcnPacket(fid=(1 << 256) - 1, name=name_for_ip("10.0.2.9", Locality.INTERNAL),
                        payload=b"x", ttl=ttl)
        sim.transmit(1, pkt)
        report = sim.run()
        assert report.counters["ttl_drops"] == ttl_drops
        assert sorted(k for k, v in report.per_link.items() if v["data_bytes"]) == crossed
        assert all(v["data_bytes"] == pkt.wire_size
                   for k, v in report.per_link.items() if k in crossed)

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_send_times_are_freed_on_delivery(self, cls):
        sim = cls(TestDeterminism().doc(), TestDeterminism.SC)
        report = sim.run()
        assert sum(f["delivered"] for f in report.flows.values()) == 3
        assert sim.send_time == {}

    @pytest.mark.parametrize("cls, drops, kept", [
        # ICN: 936 evicted from the pending queue, 50 dropped at the border
        # ingress, and the 64 still queued for a name no one subscribes to
        (IcnSimulation, 936 + 50, 64),
        (BaselineSimulation, 1000 + 50, 0),
    ])
    def test_send_times_are_freed_on_drop(self, cls, drops, kept):
        wl = [{"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"}]
        wl += [{"t_us": 1000 + k, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                "dst": "10.0.1.200", "bytes": 10} for k in range(1000)]
        wl += [{"t_us": 5000 + k, "op": "ext_in", "dst": "198.51.100.1", "bytes": 10}
               for k in range(50)]
        sim = cls(two_node_doc(), Scenario(workload=wl))
        report = sim.run()
        assert report.counters["drops"] == drops
        assert report.flows == {}
        assert len(sim.send_time) == kept


class TestDataPlan:
    """A data copy replays its fid's delivery plan when it is emitted: every
    hop is billed and traced then, and only arrivals at gateway nodes are
    queued."""

    NAME = name_for_ip("10.0.2.9", Locality.INTERNAL)

    @staticmethod
    def timed_line():
        """Line 1 - 2 - 3 - 4 - 5 with NAPs at the ends. Each link carries 1
        byte per us, so a hop's serialization in us is the wire size, and
        each hop starts its link's delay plus that after the one before."""
        return make_topology_doc(
            [1, 2, 3, 4, 5],
            [(i, i + 1, {"delay_us": d, "capacity_bps": 8_000_000})
             for i, d in enumerate((100, 200, 300, 400), 1)],
            naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                  {"client": 2, "node": 5, "prefixes": ["10.0.2.0/24"]}])

    @classmethod
    def packet(cls, wire_size, ttl=32):
        """A packet of `wire_size` bytes whose fid matches every link."""
        payload = bytes(wire_size - IcnPacket(fid=0, name=cls.NAME).wire_size)
        return IcnPacket(fid=(1 << 256) - 1, name=cls.NAME, payload=payload, ttl=ttl)

    @staticmethod
    def counting_pushes(sim):
        count = [0]
        push = sim.queue.push

        def counting_push(time_us, fn):
            count[0] += 1
            push(time_us, fn)

        sim.queue.push = counting_push
        return count

    @pytest.mark.parametrize("bystander, pushes, asked", [
        (None, 1, [2]),
        ("10.0.3.0/24", 1, [2]),
        ("10.0.0.0/16", 2, [3, 2]),
    ], ids=["no-bystander", "bystander-skipped", "bystander-asked"])
    def test_an_emission_queues_only_its_gateway_arrivals(self, monkeypatch, bystander,
                                                          pushes, asked):
        """Over 4 hops with NAPs only at the ends, one emission queues only
        the hand-off at the far end. A NAP at transit node 3 adds a hand-off
        of its own only if its prefix holds the destination, 10.0.2.9;
        else it is skipped, asked nothing, and still counted."""
        naps = [{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 5, "prefixes": ["10.0.2.0/24"]}]
        if bystander:
            naps.append({"client": 3, "node": 3, "prefixes": [bystander]})
        verdicts = TestFpDeliveries.spy_verdicts(monkeypatch)
        sim = IcnSimulation(line_doc(4, naps=naps), Scenario(workload=[]))
        count = self.counting_pushes(sim)
        sim.transmit(1, self.packet(100))
        report = sim.run()
        assert count[0] == pushes
        assert verdicts == [(client, True, False) for client in asked]  # no NAP subscribed
        assert report.counters["fp_deliveries"] == len(naps) - 1
        assert {k: v["data_bytes"] for k, v in report.per_link.items() if v["data_bytes"]} == {
            f"{i}->{i + 1}": 100 for i in range(1, 5)}

    def test_a_second_emission_reuses_the_plan(self, monkeypatch):
        """Link bytes are read from reports: each copy, the first included,
        is billed to the plan, and reaches the link counters when a report
        is built. A simulation runs once, so the
        reports are built without a run: each copy is billed when it is
        emitted."""
        calls = TestForwardingMemo.count_forward_calls(monkeypatch)
        sim = IcnSimulation(self.timed_line(), Scenario(workload=[]))

        def data_bytes():
            report = sim._build_report(Counter())
            return {key: v["data_bytes"] for key, v in report.per_link.items()}

        sim.transmit(1, self.packet(100))
        first = data_bytes()
        assert sum(calls.values()) == 5  # once at each node
        calls.clear()
        sim.transmit(1, self.packet(100))
        assert calls == {}
        assert data_bytes() == {key: 2 * billed for key, billed in first.items()}
        assert sum(first.values()) == 400
        sim.transmit(1, self.packet(100))
        assert calls == {}
        assert data_bytes() == {key: 3 * billed for key, billed in first.items()}

    def test_an_emission_traces_its_hops_together_at_their_start_times(self):
        """Hand trace of two overlapping emissions over the timed line: a
        500-byte copy at 0 and a 200-byte one at 50. Each is billed when it
        is emitted, so its rows are contiguous, though in time order they
        interleave (0, 50, 350, 600, ...)."""
        sim = IcnSimulation(self.timed_line(), Scenario(workload=[]), trace=(rows := []).append)
        sim.transmit(1, self.packet(500))
        sim.call_at(50, lambda: sim.transmit(1, self.packet(200)))
        report = sim.run()
        name = render_name(self.NAME)
        assert rows == [f"{row},{name}" for row in (
            "0,1,emit,-,500", "0,1,data,1->2,500", "600,2,data,2->3,500",
            "1300,3,data,3->4,500", "2100,4,data,4->5,500",
            "50,1,emit,-,200", "50,1,data,1->2,200", "350,2,data,2->3,200",
            "750,3,data,3->4,200", "1250,4,data,4->5,200")]
        # each copy is handed to the NAP at node 5 when it arrives there, at
        # 2100 + 400 + 500 = 3000 and 1250 + 400 + 200 = 1850
        assert sim.now == 3000 and report.counters["fp_deliveries"] == 2

    @pytest.mark.parametrize("limit, crossed, ttl_drops, hits", [
        (599, ["1->2"], 0, 1),
        (1300, ["1->2", "2->3", "3->4"], 0, 1),  # the drop at 4 is reached at 2100
        (2099, ["1->2", "2->3", "3->4"], 0, 1),
        (2100, ["1->2", "2->3", "3->4"], 1, 0),
    ])
    def test_a_cut_run_bills_only_hops_started_by_the_limit(self, limit, crossed, ttl_drops,
                                                             hits):
        """A 500-byte copy with TTL 4 crosses 1->2 at 0, 2->3 at 600 and
        3->4 at 1300, and arrives at node 4, TTL spent, at 2100. No gateway
        acts on the way, yet the run's clock reaches that last arrival, so a
        run cut before it counts `time_limit_hits`."""
        sim = IcnSimulation(self.timed_line(), Scenario(workload=[]))
        sim.call_at(0, lambda: sim.transmit(1, self.packet(500, ttl=4)))
        report = sim.run(limit)
        assert sorted(k for k, v in report.per_link.items() if v["data_bytes"]) == crossed
        assert set(v["data_bytes"] for k, v in report.per_link.items() if k in crossed) == {500}
        assert report.counters["ttl_drops"] == ttl_drops
        assert report.counters.get("time_limit_hits", 0) == hits
        assert hits or sim.now == 2100


class TestIpPacketFate:
    """Gateways report every copy and every drop; the simulation
    alone decides whether a packet was delivered, duplicated or dropped."""

    def test_cross_nap_duplicate_rejected(self):
        doc = make_topology_doc(
            nodes=[1, 2], undirected_links=[(1, 2)],
            naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                  {"client": 5, "node": 2, "prefixes": ["10.0.0.0/16"]}],
        )
        sc = Scenario(workload=[
            {"t_us": 0, "op": "attach", "client": c, "addr": "10.0.1.5"} for c in (1, 5)
        ])
        for cls in (IcnSimulation, BaselineSimulation):
            with pytest.raises(ValueError, match="already assigned"):
                cls(doc, sc)

    @staticmethod
    def hand_twice(client, dst, locality):
        """An ICN simulation whose gateway `client` was handed two copies of
        one encapsulated packet from 10.0.1.5 to `dst`, and its trace rows."""
        attach = [{"t_us": 0, "op": "attach", "client": 1, "addr": a}
                  for a in ("10.0.1.5", "10.0.1.6")]
        send = {"t_us": 0, "op": "send_ip", "client": 1, "src": "10.0.1.5", "dst": dst}
        rows = []
        sim = CapturingIcnSimulation(two_node_doc(), Scenario(workload=[*attach, send]),
                                     trace=rows.append)
        for op in attach:
            sim._inject(op)
        ip = sim._make_ip_packet(send)
        copy = IcnPacket(fid=0, name=name_for_ip(dst, locality), payload=gateways._Encapsulated(ip))
        sim.gateways[client].on_icn_data(copy)
        sim.gateways[client].on_icn_data(copy)
        return sim, rows

    @pytest.mark.parametrize("client, dst, locality, row", [
        (1, "10.0.1.6", Locality.INTERNAL, "deliver"),
        (99, "8.8.8.8", Locality.EXTERNAL, "peer-out"),
    ], ids=["nap", "border"])
    def test_a_second_copy_counts_one_duplicate(self, client, dst, locality, row):
        sim, rows = self.hand_twice(client, dst, locality)
        assert [(c, ip.id) for c, ip in sim.ip_deliveries] == [(client, 1)]
        assert sim.counters["duplicates"] == 1
        assert [r.split(",")[2] for r in rows].count(row) == 1
        assert sim.send_time == {}

    def test_a_corrupt_copy_is_counted_in_the_report(self):
        """`corrupt` counts a response segment whose total differs from the
        first segment of the fetch it reaches: another exchange of the URL,
        of another size, makes one. No pinned case has one, so a NAP handed
        one mid-run, with that fetch in flight, must count it in the report
        and still complete the fetch with its own segments."""
        doc = line_doc(1, naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                                {"client": 2, "node": 2, "prefixes": ["10.0.2.0/24"]}])
        size = 2 * gateways.SEGMENT_CHUNK
        sim = IcnSimulation(doc, Scenario(workload=[
            {"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "f.example"},
            {"t_us": 10, "op": "http_get", "client": 1, "fqdn": "f.example", "url": "/u",
             "resp_bytes": size}]))
        nap = sim.gateways[1]
        take, handed = nap.on_icn_data, []

        def take_then_a_stray(pkt):
            verdict = take(pkt)
            if type(pkt.payload) is gateways._Segment and not handed:
                assert nap._gets[pkt.name].total == size  # in flight, its total set
                stray = gateways._Segment(0, size + 1, "f.example/u", gateways.SEGMENT_CHUNK)
                handed.append(take(IcnPacket(fid=0, name=pkt.name, payload=stray)))
            return verdict

        nap.on_icn_data = take_then_a_stray
        report = sim.run()
        assert handed == [True] and report.counters["corrupt"] == 1
        assert report.flows["http:1:f.example/u"]["delivered"] == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 17: a NAP joins a second get of a URL to the fetch in "
        "flight and ignores its resp_bytes, so both complete with the first "
        "fetch's body"))
    def test_each_fetch_completes_with_at_least_the_body_it_asked_for(self, monkeypatch):
        """Two gets of one URL at one NAP, of 100 and then 5,000 bytes, while
        the first is in flight: the baseline sends each fetch its own size."""
        bodies, note = [], IcnSimulation.note_http_complete

        def keeping(sim, client, response):
            bodies.append(len(response.body))
            note(sim, client, response)

        monkeypatch.setattr(IcnSimulation, "note_http_complete", keeping)
        asked = [100, 5000]
        scenario = Scenario(workload=[
            {"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "f.example"},
            *({"t_us": t_us, "op": "http_get", "client": 1, "fqdn": "f.example", "url": "/u",
               "resp_bytes": size} for t_us, size in zip((10, 20), asked))])
        topo = load_topology_doc((DEMO_DATA / "small.json").read_text(), scenario.seed)
        IcnSimulation(topo, scenario).run()
        assert len(bodies) == len(asked)
        assert all(body >= size for body, size in zip(bodies, asked)), bodies

    @pytest.mark.parametrize("cls", [
        pytest.param(IcnSimulation, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "an ICN NAP queues a send to an unattached address in the plan under "
                "a name no one subscribes to, so it is counted nowhere until its "
                "pending queue overflows"))),
        BaselineSimulation,
    ], ids=["icn", "ip"])
    def test_a_send_to_an_unattached_address_in_the_plan_is_a_drop(self, cls):
        """The counter rows' send to 10.0.4.77 lies in NAP 4's prefix, where no
        device has that address, so it can never be delivered: a run must
        count it in `drops`, as the baseline does, and leave no packet
        waiting. Every other packet of the scenario is delivered or dropped
        by the run's end."""
        topology_text, scenario = golden_cases.counter_inputs()
        sim = cls(load_topology_doc(topology_text, scenario.seed), scenario)
        sim.run()
        assert [flow for _, flow in sim.send_time.values()] == []


class TestEventOrder:
    """The ops, fed from the scenario's run-order tuple, interleave with
    queued events exactly as when every op was queued up front, after the
    events queued before the run (the border's start): the same order and
    the same time-limit count."""

    @staticmethod
    def fire(label, now, push, log):
        """Log one event; it queues up to two children, due 0..2 us later."""
        log.append((now, label))
        rng = random.Random(label)
        if label.count("/") < 3:
            for k in range(rng.randint(0, 2)):
                push(now + rng.randint(0, 2), f"{label}/{k}")

    def reference(self, ops, before, max_time_us):
        queue, log, clock = simnet._EventQueue(), [], [0]

        def push(t, label):
            queue.push(t, lambda: self.fire(label, clock[0], push, log))

        for t, label in [*before, *sorted(ops, key=lambda op: op[0])]:
            push(t, label)
        hits = 0
        while queue:
            t, fn = queue.pop()
            if t > max_time_us:
                hits += 1
                break
            clock[0] = t
            fn()
        return log, hits

    def test_same_order_as_queueing_every_op_up_front(self):
        rng = random.Random(17)
        for _ in range(300):
            ops = [(rng.randint(0, 6), f"op{i}") for i in range(rng.randint(0, 8))]
            before = [(rng.randint(0, 6), f"pre{i}") for i in range(rng.randint(0, 2))]
            max_time_us = rng.randint(0, 9)
            # the Scenario puts the ops in run order itself; each op's fqdn is its label
            sc = Scenario(workload=[{"t_us": t, "op": "http_serve", "client": 1, "fqdn": label}
                                    for t, label in ops])
            sim = BaselineSimulation(two_node_doc(), sc)
            log = []

            def push(t, label):
                sim.queue.push(t, lambda: self.fire(label, sim.now, push, log))

            sim._inject = lambda op: self.fire(op["fqdn"], sim.now, push, log)
            for t, label in before:
                push(t, label)
            report = sim.run(max_time_us)
            assert (log, report.counters.get("time_limit_hits", 0)) == self.reference(
                ops, before, max_time_us), (ops, before, max_time_us)


class TestMemory:
    """A run keeps no delivered payload: only its per-flow records."""

    URLS, RESP, PACKETS, PACKET_BYTES = 10, 300_000, 100, 1000

    def scenario(self):
        wl = [
            {"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "cdn.example"},
            {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
            {"t_us": 0, "op": "attach", "client": 3, "addr": "10.0.3.9"},
        ]
        for url in range(self.URLS):
            for client in (2, 3):
                wl.append({"t_us": 1000 + url, "op": "http_get", "client": client,
                           "fqdn": "cdn.example", "url": f"/v/{url}",
                           "resp_bytes": self.RESP})
        for k in range(self.PACKETS):
            wl.append({"t_us": 1000 + 100 * k, "op": "send_ip", "client": 2,
                       "src": "10.0.2.9", "dst": "10.0.3.9",
                       "bytes": self.PACKET_BYTES})
        return Scenario(workload=wl)

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_retained_memory_is_bounded(self, cls):
        doc = line_doc(2, naps=[
            {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
            {"client": 2, "node": 2, "prefixes": ["10.0.2.0/24"]},
            {"client": 3, "node": 3, "prefixes": ["10.0.3.0/24"]},
        ])
        sc = self.scenario()
        tracemalloc.start()
        try:
            sim = cls(doc, sc)
            report = sim.run()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        flows = report.flows
        assert sum(f["delivered"] for k, f in flows.items() if k.startswith("http:")) == 20
        assert flows["ip:10.0.2.9->10.0.3.9"]["delivered"] == self.PACKETS
        # 20 bodies of 300 kB were delivered (6 MB); keeping any of them
        # would exceed this bound by more than the body's own size
        assert retained < 256 * 1024, retained


class TestRunOrderMemory:
    """A Scenario keeps its ops in run order as one tuple of the op dicts
    themselves, and a simulation built from it runs from that tuple: no
    second list of the ops and no per-op record beside them. The Scenario
    is built inside the trace, so a copy it makes counts."""

    OPS = 5000

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_holds_under_12_bytes_per_op(self, cls):
        topo = two_node_doc()
        wl = [{"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"}]
        wl += [{"t_us": 1000 + (k * 7919) % self.OPS, "op": "send_ip", "client": 1,
                "src": "10.0.1.5", "dst": "10.0.1.6"} for k in range(self.OPS - 1)]
        tracemalloc.start()
        try:
            sim = cls(topo, Scenario(workload=wl))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 12 * self.OPS, held / self.OPS
        assert [op["t_us"] for op in sim.scenario.workload] == sorted(op["t_us"] for op in wl)


class TestMemoryFlatInTraffic:
    """Memory a run retains does not grow with its traffic: each arrival is
    folded into its flow's record and each trace row goes to the sink."""

    PERIOD_US = 20_000
    PAIRS = ((1, "10.0.1.5", "10.0.2.9"), (2, "10.0.2.9", "10.0.1.6"),
             (1, "10.0.1.6", "8.8.8.8"))

    def scenario(self, repeat):
        """The demo network's devices and one server, then one period of
        IP, border and HTTP traffic `repeat` times over."""
        wl = [{"t_us": 0, "op": "attach", "client": c, "addr": a}
              for c, a in ((1, "10.0.1.5"), (1, "10.0.1.6"), (2, "10.0.2.9"))]
        wl.append({"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "cdn.example"})
        for r in range(repeat):
            start = 1000 + r * self.PERIOD_US
            wl += [{"t_us": start + 50 * k, "op": "send_ip", "client": c, "src": src,
                    "dst": dst, "bytes": 100}
                   for k, (c, src, dst) in enumerate(self.PAIRS * 100)]
            wl += [{"t_us": start + 500 * k, "op": "ext_in", "src": "198.51.100.7",
                    "dst": "10.0.2.9", "bytes": 100} for k in range(30)]
            wl += [{"t_us": start + 3000 * k, "op": "http_get", "client": 2,
                    "fqdn": "cdn.example", "url": f"/v/{k}", "resp_bytes": 3000}
                   for k in range(4)]
        return Scenario(workload=wl)

    def retained(self, cls, repeat, trace_path):
        """Bytes traced after `run()` less those traced after construction,
        and the report; a trace file is flushed before the second reading,
        since its write buffer is the file's, bounded by the io chunk size."""
        topo = load_topology_doc((DEMO_DATA / "small.json").read_text(), 1)
        scenario = self.scenario(repeat)
        tracemalloc.start()
        try:
            with contextlib.ExitStack() as stack:
                trace = None
                if trace_path is not None:
                    handle = stack.enter_context(open(trace_path, "w"))
                    trace = lambda row: handle.write(row + "\n")  # as `ipicn run` does
                sim = cls(topo, scenario, trace=trace)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                report = sim.run()
                if trace is not None:
                    handle.flush()
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return after - before, report

    @pytest.mark.parametrize("traced", [False, True], ids=["no_trace", "file_sink"])
    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_eight_times_the_traffic_retains_the_same_memory(self, cls, traced, tmp_path):
        once, report = self.retained(cls, 1, tmp_path / "once.csv" if traced else None)
        eight, report8 = self.retained(cls, 8, tmp_path / "eight.csv" if traced else None)
        delivered = {k: f["delivered"] for k, f in report.flows.items()}
        assert {k: f["delivered"] for k, f in report8.flows.items()} == {
            k: 8 * n for k, n in delivered.items()}
        assert sum(delivered.values()) == 334  # 300 sends, 30 ext_in, 4 fetches
        assert eight <= 1.25 * once, (once, eight)


class TestHttpPeakMemory:
    """Requesters at one node are handed the same response segments; each
    buffers views of them, so the run's peak grows by about one body for all
    of them together, not by one body per requester."""

    BODY = 400_000

    def peak(self, n_requesters, body=BODY):
        """The run's tracemalloc peak above what the built simulation holds."""
        doc = line_doc(1, naps=[{"client": k, "node": 1 if k == 1 else 2,
                                 "prefixes": [f"10.0.{k}.0/24"]}
                                for k in range(1, n_requesters + 2)])
        wl = [{"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "cdn.example"}]
        wl += [{"t_us": 1000, "op": "http_get", "client": k, "fqdn": "cdn.example",
                "url": "/v/1", "resp_bytes": body} for k in range(2, n_requesters + 2)]
        tracemalloc.start()
        try:
            sim = IcnSimulation(doc, Scenario(workload=wl))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = sim.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(f["delivered"] for f in report.flows.values()) == n_requesters
        return peak - before

    def test_sixteen_requesters_peak_within_one_body_of_two(self):
        two, sixteen = self.peak(2), self.peak(16)
        assert sixteen - two < self.BODY, (two / self.BODY, sixteen / self.BODY)

    def test_no_requester_joins_the_body(self):
        """The server holds all its segments at once, about one body; a
        requester that joined its segments into one `bytes` on completion
        would add a second body to the peak, but a run reads no body."""
        body = 1 << 20
        assert self.peak(4, body) < 1.5 * body


class TestSaturatedFid:
    """A dense 50-node graph whose HTTP response tree reaches 49 nodes, plus
    unicast IP over it. The response fid sets so many bits that copies leave
    the tree and loop until their TTL is spent. The report pin comes from the
    data path that copied each forwarded packet to decrement its TTL.

    Each emission replays its delivery plan when it is sent, so its `data`
    and `ttl-drop` rows come together, in the plan's breadth-first walk
    order, each stamped with its own time; each control message's `ctrl`
    rows likewise come together when it is sent. So the rows come in send
    order, not time order. The sorted rows are pinned apart from their
    order; they equal those of the engine that took one event per data or
    control hop and wrote its rows in time order."""

    REPORT_SHA1 = "15e6aa773493813c591cf2d1d4d7340a3e9c46ab"
    TRACE_SHA1 = "7d7148b7c2aba8c8ce879b20f2dd4a175435ae32"
    SORTED_TRACE_SHA1 = "4d21a3d980c76ab7eb29434dff22350e98b020a7"

    @staticmethod
    def inputs():
        rng = random.Random(5)
        nodes = list(range(1, 51))
        pairs = set()
        for i in range(1, 50):
            parent = rng.choice(nodes[:i])
            pairs.add((min(parent, nodes[i]), max(parent, nodes[i])))
        while len(pairs) < 49 + 120:
            a, b = rng.sample(nodes, 2)
            pairs.add((min(a, b), max(a, b)))
        naps = [{"client": 100, "node": 1, "prefixes": ["10.0.0.0/24"]}] + [
            {"client": i, "node": i + 1, "prefixes": [f"10.0.{i}.0/24"]}
            for i in range(1, 50)
        ]
        doc = make_topology_doc(nodes, sorted(pairs), naps=naps, seed=5)
        wl = [{"t_us": 0, "op": "http_serve", "client": 100, "fqdn": "cdn.example"}]
        wl += [{"t_us": 0, "op": "attach", "client": i, "addr": f"10.0.{i}.5"}
               for i in range(1, 7)]
        wl += [{"t_us": 10 * i, "op": "http_get", "client": i, "fqdn": "cdn.example",
                "url": "/v/1", "resp_bytes": 1000} for i in range(1, 50)]
        wl += [{"t_us": 2000 + 100 * k, "op": "send_ip", "client": 1,
                "src": "10.0.1.5", "dst": f"10.0.{2 + k % 5}.5", "bytes": 200}
               for k in range(15)]
        return doc, Scenario(workload=wl)

    def test_report_and_trace_are_pinned(self):
        doc, sc = self.inputs()
        rows = []
        report = IcnSimulation(doc, sc, trace=rows.append).run()
        assert report.counters["off_tree_forwards"] > 0
        assert report.counters["ttl_drops"] > 0
        assert report.flows["ip:10.0.1.5->10.0.2.5"]["delivered"] == 3
        assert hashlib.sha1(report.to_canonical_json().encode()).hexdigest() == self.REPORT_SHA1
        assert hashlib.sha1("\n".join(rows).encode()).hexdigest() == self.TRACE_SHA1
        assert hashlib.sha1("\n".join(sorted(rows)).encode()).hexdigest() == self.SORTED_TRACE_SHA1


class TestForwardingMemo:
    """forward() runs once per (node, fid, arrival node) of each delivery
    plan, and a plan is built once per (fid, emitting node, TTL, tree edges)
    in a run; later copies replay it from the simulation's memo, and the TTL
    and off-tree rules still apply to each copy."""

    @staticmethod
    def count_forward_calls(monkeypatch):
        calls = Counter()
        forward = simnet.forward

        def spy(g, node, pkt, in_link=None):
            calls[node, pkt.fid, -1 if in_link is None else in_link.src] += 1
            return forward(g, node, pkt, in_link)

        monkeypatch.setattr(simnet, "forward", spy)
        return calls

    @staticmethod
    def off_tree_inputs(rounds):
        """The off-tree scenario of `TestEntryPoints`, its fetches repeated
        once a second: each round builds the same trees, so the same fids."""
        text, sc = TestEntryPoints.inputs()
        gets = [op for op in sc.workload if op["op"] == "http_get"]
        wl = [*sc.workload, *(dict(op, t_us=op["t_us"] + 1_000_000 * r)
                              for r in range(1, rounds) for op in gets)]
        return load_topology_doc(text, sc.seed), Scenario(workload=wl, seed=sc.seed)

    def test_forward_runs_once_per_key_and_a_warm_memo_counts_alike(self, monkeypatch):
        calls = self.count_forward_calls(monkeypatch)
        once = IcnSimulation(*self.off_tree_inputs(1)).run()
        first_round = dict(calls)
        calls.clear()
        thrice = IcnSimulation(*self.off_tree_inputs(3)).run()
        assert calls == first_round and set(calls.values()) == {1}  # rounds 2-3 call none
        assert all(f["delivered"] == 3 for f in thrice.flows.values())
        assert once.counters["off_tree_forwards"] > 0
        for counter in ("off_tree_forwards", "fp_deliveries"):
            assert thrice.counters[counter] == 3 * once.counters[counter]

    def test_a_warm_memo_still_counts_ttl_drops(self, monkeypatch):
        """Each TTL has its own plan, and forward() runs once per (node,
        arrival node) per plan. A second copy of each TTL replays its warm
        plan, and its TTL drop still counts."""
        calls = self.count_forward_calls(monkeypatch)
        doc = line_doc(2, naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]}])
        sim = IcnSimulation(doc, Scenario(workload=[]))
        fid = (1 << 256) - 1
        name = name_for_ip("10.0.2.9", Locality.INTERNAL)

        def send(ttl):
            sim.transmit(1, IcnPacket(fid=fid, name=name, payload=b"x", ttl=ttl))

        send(3)  # reaches node 3
        for t_us in (1000, 3000):
            sim.call_at(t_us, lambda: send(1))  # spent at the emitting node
            sim.call_at(t_us + 1000, lambda: send(2))  # spent at node 2
        report = sim.run()
        # the TTL 3 plan asks at nodes 1-3, the TTL 1 plan at node 1 and the
        # TTL 2 plan at nodes 1-2
        assert calls == {(1, fid, -1): 3, (2, fid, 1): 2, (3, fid, 2): 1}
        assert len(sim._plans) == 3
        assert report.counters["ttl_drops"] == 4
        assert report.per_link["1->2"]["data_bytes"] == 3 * report.per_link["2->3"]["data_bytes"]

    def test_a_fid_keeps_one_plan_per_tree(self):
        """A copy emitted on its tree crosses no link off it; one emitted
        with the same fid after the tree went crosses only links off a tree,
        though the table already holds the fid's first plan."""
        doc = line_doc(2, naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]}])
        sim = IcnSimulation(doc, Scenario(workload=[]))
        name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        pkt = IcnPacket(fid=(1 << 256) - 1, name=name, payload=b"x", ttl=4)
        sim._tree_edges[1, name] = frozenset({sim.graph.link(1, 2), sim.graph.link(2, 3)})
        sim.transmit(1, pkt)
        del sim._tree_edges[1, name]
        sim.transmit(1, pkt)
        assert sim.run().counters["off_tree_forwards"] == 2

    def test_each_arrival_node_has_its_own_entry(self, monkeypatch):
        # line 1 - 2 - 3 with a NAP at each end: node 2 sees one fid arrive
        # from both sides and must send each copy on away from where it came
        calls = self.count_forward_calls(monkeypatch)
        doc = line_doc(2, naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                                {"client": 3, "node": 3, "prefixes": ["10.0.3.0/24"]}])
        sim = IcnSimulation(doc, Scenario(workload=[]))
        fid = (1 << 256) - 1
        name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        for client in (1, 3):
            sim.transmit(client, IcnPacket(fid=fid, name=name, payload=b"x", ttl=4))
        report = sim.run()
        assert {(2, fid, 1), (2, fid, 3)} <= set(calls) and set(calls.values()) == {1}
        size = IcnPacket(fid=fid, name=name, payload=b"x").wire_size
        assert {k: v["data_bytes"] for k, v in report.per_link.items()} == {
            "1->2": size, "2->1": size, "2->3": size, "3->2": size}


class TestForwardingMemoBound:
    """The memo keeps delivery plans in one table, least recently emitted
    first: a new plan drops the oldest beyond one per standing tree plus
    `_LOOSE_FIDS`, so standing trees emitting in turn never drop each
    other's."""

    @staticmethod
    def one_shot_run():
        """A star of NAPs: each URL is fetched once, in one window, by its own
        four leaves, so each response tree and its fid is new, and every
        fetch's trees are torn down when it completes; one IP flow stands.
        Return the simulation after its run, the fids it emitted, and the
        (plans, standing trees) the memo held after each emission of a plan
        it did not hold."""
        leaves = range(2, 14)
        doc = make_topology_doc([1, *leaves], [(1, leaf) for leaf in leaves], seed=3,
                                naps=[{"client": leaf, "node": leaf,
                                       "prefixes": [f"10.0.{leaf}.0/24"]} for leaf in leaves])
        rng = random.Random(8)
        wl = [{"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "a.example"},
              {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.5"},
              {"t_us": 0, "op": "attach", "client": 3, "addr": "10.0.3.5"},
              {"t_us": 1, "op": "send_ip", "client": 3, "src": "10.0.3.5", "dst": "10.0.2.5"}]
        wl += [{"t_us": 200_000 * url, "op": "http_get", "client": client,
                "fqdn": "a.example", "url": f"/{url}", "resp_bytes": 10}
               for url in range(1, 121) for client in rng.sample(leaves[1:], 4)]
        emitted, misses = set(), []

        class Recording(IcnSimulation):
            def transmit(self, client, pkt):
                emitted.add(pkt.fid)
                held = set(self._plans)
                super().transmit(client, pkt)
                if not held.issuperset(self._plans):
                    misses.append((len(self._plans), len(self._tree_edges)))

        sim = Recording(doc, Scenario(workload=wl))
        report = sim.run()
        assert sum(f["delivered"] for f in report.flows.values()) == 1 + 4 * 120
        return sim, emitted, misses

    def test_one_shot_fetches_keep_the_memo_within_its_bound(self):
        """The bound is checked when a new plan is emitted; a tree torn down
        after that may leave the memo above it until the next new plan."""
        sim, emitted, misses = self.one_shot_run()
        assert all(plans <= trees + simnet._LOOSE_FIDS for plans, trees in misses)
        most_trees = max(trees for _, trees in misses)
        assert len(sim._plans) <= most_trees + simnet._LOOSE_FIDS < len(emitted)

    def test_dropped_plans_are_held_by_nothing(self, monkeypatch):
        """Plans were built for every emitted fid, each with its forward()
        answers kept only while it is built, and once the table drops a plan
        nothing but this test holds it."""
        built, fids = [], set()
        plan = IcnSimulation._plan

        def recording(self, node, pkt, meta):
            fids.add(pkt.fid)
            built.append(plan(self, node, pkt, meta))
            return built[-1]

        monkeypatch.setattr(IcnSimulation, "_plan", recording)
        sim, emitted, _ = self.one_shot_run()
        assert fids == emitted and len(emitted) > 1 + simnet._LOOSE_FIDS
        assert all(key[0] in emitted for key in sim._plans)  # (fid, node, TTL, tree edges)
        held = {id(p) for p in sim._plans.values()}
        dropped = [p for p in built if id(p) not in held]
        gc.collect()
        holders = gc.get_referrers(*dropped)
        assert dropped and all(h is built or h is dropped for h in holders)

    def test_standing_trees_emitting_in_turn_build_each_plan_once(self, monkeypatch):
        """Hub 1 with six leaf NAPs; leaf 2 sends to each other leaf in turn,
        so five standing trees emit in turn, more than the one loose plan
        left: still no plan is dropped, and each is built once."""
        monkeypatch.setattr(simnet, "_LOOSE_FIDS", 1)
        built = Counter()
        plan = IcnSimulation._plan

        def counting(self, node, pkt, meta):
            built[pkt.fid, node, pkt.ttl, meta] += 1
            return plan(self, node, pkt, meta)

        monkeypatch.setattr(IcnSimulation, "_plan", counting)
        leaves = range(2, 8)
        doc = make_topology_doc([1, *leaves], [(1, leaf) for leaf in leaves], seed=3,
                                naps=[{"client": leaf, "node": leaf,
                                       "prefixes": [f"10.0.{leaf}.0/24"]} for leaf in leaves])
        wl = [{"t_us": 0, "op": "attach", "client": leaf, "addr": f"10.0.{leaf}.5"}
              for leaf in leaves]
        wl += [{"t_us": 10_000 * (k + 1), "op": "send_ip", "client": 2, "src": "10.0.2.5",
                "dst": f"10.0.{dst}.5", "bytes": 100}
               for k in range(10) for dst in leaves[1:]]
        sim = IcnSimulation(doc, Scenario(workload=wl))
        report = sim.run()
        assert sum(f["delivered"] for f in report.flows.values()) == 10 * 5
        assert len({fid for fid, *_ in built}) == 5 > simnet._LOOSE_FIDS
        assert set(built.values()) == {1}


class TestBillingOnce:
    """Traced or not, a route or plan whose links share one capacity bills
    each message once, to its own total, the first included. The link
    counters take every total when a report is built, and a plan's also
    when the memo drops it."""

    @staticmethod
    def churn(cls=IcnSimulation, trace=None):
        """`TestForwardingMemoBound.one_shot_run`'s fetches, each response
        three full segments and a short one: its plan bills each segment
        once, before the memo drops it. Return the simulation after its
        run, its report and the bytes each plan the memo dropped held
        then."""
        leaves = range(2, 14)
        doc = make_topology_doc([1, *leaves], [(1, leaf) for leaf in leaves], seed=3,
                                naps=[{"client": leaf, "node": leaf,
                                       "prefixes": [f"10.0.{leaf}.0/24"]} for leaf in leaves])
        rng = random.Random(8)
        wl = [{"t_us": 0, "op": "http_serve", "client": 2, "fqdn": "a.example"}]
        wl += [{"t_us": 200_000 * url, "op": "http_get", "client": client,
                "fqdn": "a.example", "url": f"/{url}",
                "resp_bytes": 3 * gateways.SEGMENT_CHUNK + 10}
               for url in range(1, 101) for client in rng.sample(leaves[1:], 4)]
        dropped = []

        class Recording(cls):
            def transmit(self, client, pkt):
                billed = {key: plan.billed for key, plan in self._plans.items()}
                super().transmit(client, pkt)
                dropped.extend(billed[key] for key in billed.keys() - self._plans.keys())

        sim = (Recording if cls is IcnSimulation else cls)(doc, Scenario(workload=wl),
                                                           trace=trace)
        return sim, sim.run(), dropped

    def test_a_dropped_plan_takes_its_bytes_to_the_links(self):
        _, untraced, dropped = self.churn()
        _, traced, _ = self.churn(trace=drop_row)
        with walking():
            _, walked, _ = self.churn()
        assert sum(dropped) > 0
        assert (untraced.to_canonical_json() == traced.to_canonical_json()
                == walked.to_canonical_json())

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_every_total_is_zero_after_a_report(self, cls):
        sim, report, _ = self.churn(cls)
        tables = (sim._plans, sim._to_rv, sim._from_rv) if cls is IcnSimulation else (
            sim._routes,)
        totals = [route.billed for table in tables for route in table.values()]
        assert len(totals) > 12 and set(totals) == {0}
        assert sim._build_report(Counter()).per_link == report.per_link  # folds nothing twice

    def test_a_second_run_after_a_cut_one_raises_and_changes_nothing(self):
        """A simulation runs its ops once, in either mode. A second run()
        would inject them again: in ICN mode an attach would assign its
        address twice, in IP mode the ops would run at past times. It raises
        before it changes anything, so no byte is counted twice either."""
        wl = [{"t_us": 0, "op": "attach", "client": client, "addr": addr}
              for client, addr in ((1, "10.0.1.5"), (2, "10.0.2.9"))]
        wl += [{"t_us": 1000 * k, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                "dst": "10.0.2.9", "bytes": 300} for k in range(1, 12)]
        for cls in (IcnSimulation, BaselineSimulation):
            sim = cls(TestDataPlan.timed_line(), Scenario(workload=wl))
            sim.run(5_500)

            def state():
                return (sim.now, sim.queue._seq, list(sim.queue._heap), dict(sim.counters),
                        {link: list(slots) for link, slots in sim.link_bytes.items()})

            before = state()
            assert before[3]["time_limit_hits"] == 1
            with pytest.raises(RuntimeError, match="runs once"):
                sim.run()
            assert state() == before

    def test_a_plan_bills_the_first_copy_of_every_size_once(self):
        """On a tree standing over the timed line, whose links share one
        capacity, the plan bills every copy to its own total, the first of
        each of ten sizes included: no link counter moves until the fold. A
        copy emitted after the tree went crosses every link off a tree, so
        it walks and bills each link when it is sent."""
        sim = IcnSimulation(TestDataPlan.timed_line(), Scenario(workload=[]))
        tree = frozenset(sim.graph.link(i, i + 1) for i in range(1, 5))
        sim._tree_edges[1, TestDataPlan.NAME] = tree
        sizes = range(100, 110)
        for size in sizes:
            sim.transmit(1, TestDataPlan.packet(size))
        (plan,) = sim._plans.values()
        assert plan.capacity == 8_000_000 and plan.billed == sum(sizes)
        assert not any(data for _, data in sim.link_bytes.values())
        plan.fold(sim.link_bytes, 1)
        assert {key: data for key, (_, data) in sim.link_bytes.items() if data} == {
            (i, i + 1): sum(sizes) for i in range(1, 5)}
        del sim._tree_edges[1, TestDataPlan.NAME]
        for size in sizes:
            sim.transmit(1, TestDataPlan.packet(size))
        off_tree = sim._plans[(1 << 256) - 1, 1, 32, frozenset()]
        assert off_tree.handoffs is None and off_tree.billed == 0
        assert {key: data for key, (_, data) in sim.link_bytes.items() if data} == {
            (i, i + 1): 2 * sum(sizes) for i in range(1, 5)}
        assert sim.counters["off_tree_forwards"] == 4 * len(sizes)

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_a_route_is_timed_when_it_is_built(self, cls):
        """A control path and a baseline route know their delay sum and
        capacity from the start, so the first message over each is billed
        to the route."""
        wl = [{"t_us": 0, "op": "attach", "client": client, "addr": addr}
              for client, addr in ((1, "10.0.1.5"), (2, "10.0.2.9"))]
        wl.append({"t_us": 1000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                   "dst": "10.0.2.9", "bytes": 300})
        sim = cls(TestDataPlan.timed_line(), Scenario(workload=wl))
        if cls is IcnSimulation:
            assert sim._to_rv[5].delay_us == sim._from_rv[5].delay_us == 100 + 200 + 300 + 400
            assert sim._to_rv[5].capacity == sim._from_rv[5].capacity == 8_000_000
        sim._drain(simnet.DEFAULT_MAX_TIME_US)
        paths = list(sim._routes.values()) if cls is BaselineSimulation else [
            *sim._to_rv.values(), *sim._from_rv.values()]
        assert sum(path.billed for path in paths) > 0
        assert not any(sum(slots) for slots in sim.link_bytes.values())

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation])
    def test_mixed_capacities_never_carry_in_one_step(self, cls):
        """With one link of the timed line at twice the capacity, no route
        or plan has one capacity: every message walks and bills each link
        when it is sent, traced or not, and the report equals that of a run
        under `walking()`."""
        doc = make_topology_doc(
            [1, 2, 3, 4, 5],
            [(i, i + 1, {"delay_us": d, "capacity_bps": 16_000_000 if i == 2 else 8_000_000})
             for i, d in enumerate((100, 200, 300, 400), 1)],
            naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                  {"client": 2, "node": 5, "prefixes": ["10.0.2.0/24"]}])
        wl = [{"t_us": 0, "op": "attach", "client": client, "addr": addr}
              for client, addr in ((1, "10.0.1.5"), (2, "10.0.2.9"))]
        wl += [{"t_us": 1000 * k, "op": "send_ip", "client": 1, "src": "10.0.1.5",
                "dst": "10.0.2.9", "bytes": 300 + k} for k in range(1, 6)]
        sim = cls(doc, Scenario(workload=wl))
        sim._drain(simnet.DEFAULT_MAX_TIME_US)
        tables = (sim._plans, sim._to_rv, sim._from_rv) if cls is IcnSimulation else (
            sim._routes,)
        paths = [path for table in tables for path in table.values()]
        assert paths and all(path.capacity is None and path.billed == 0 for path in paths)
        assert sum(data for _, data in sim.link_bytes.values()) > 0

        def report(trace=None):
            return cls(doc, Scenario(workload=wl), trace=trace).run().to_canonical_json()

        with walking():
            walked = report()
        assert report() == report(drop_row) == walked

    @pytest.mark.parametrize("size", [300, 484, 485, 486, 700])
    def test_the_last_arrival_elsewhere_is_timed_at_any_size(self, size):
        """From a NAP at node 1, one copy crosses 1->2 (1000 us) to node 2,
        where no gateway is and it goes no further, and another crosses 1->3
        ->4->5 (10 us each) to a NAP at node 5. At 1 byte per us a copy of
        `size` bytes reaches node 2 at 1000 + size and node 5 at 30 + 3 x
        size: below 485 bytes node 2 is reached last, and the run's clock
        goes there: the copy walks, traced or not, as a plan with a last
        crossing at no gateway is not clean, even with every crossing on its
        tree, and its run equals that under `walking()`."""
        doc = make_topology_doc(
            [1, 2, 3, 4, 5],
            [(a, b, {"delay_us": d, "capacity_bps": 8_000_000})
             for a, b, d in ((1, 2, 1000), (1, 3, 10), (3, 4, 10), (4, 5, 10))],
            naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                  {"client": 2, "node": 5, "prefixes": ["10.0.2.0/24"]}])
        clocks = []
        for trace, context in ((None, contextlib.nullcontext()),
                               (drop_row, contextlib.nullcontext()), (None, walking())):
            with context:
                sim = IcnSimulation(doc, Scenario(workload=[]), trace=trace)
                sim._tree_edges[1, TestDataPlan.NAME] = frozenset(
                    sim.graph.link(a, b) for a, b in ((1, 2), (1, 3), (3, 4), (4, 5)))
                sim.call_at(0, lambda: sim.transmit(1, TestDataPlan.packet(size)))
                report = sim.run()
            clocks.append((sim.now, sim.queue._seq, report.to_canonical_json()))
        (plan,) = sim._plans.values()
        assert not any(plan.flags) and plan.handoffs is None
        assert clocks[0] == clocks[1] == clocks[2]
        assert clocks[0][0] == max(1000 + size, 30 + 3 * size)


class TestFpDeliveries:
    """Gateways say whether a copy is theirs, and whether one under a name
    could ever be (`may_take`); the simulation hands a copy only to those
    that may take it, and counts in `fp_deliveries` each refusal of a copy
    it hands out and each gateway it skips."""

    # line 1 - 2 - 3: the publisher, a co-located subscriber and a bystander
    # at node 1, a bystander at transit node 2, a subscriber at node 3
    NAPS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}  # client -> node

    @classmethod
    def inputs(cls, local_sends, far_sends, transit_prefix="10.0.4.0/24"):
        """The line's topology and a scenario of sends from NAP 1: first to
        its co-located subscriber, then to the far one. The transit
        bystander, NAP 4, has `transit_prefix`."""
        doc = line_doc(2, naps=[
            {"client": c, "node": n, "prefixes": [transit_prefix if c == 4 else f"10.0.{c}.0/24"]}
            for c, n in cls.NAPS.items()])
        wl = [{"t_us": 0, "op": "attach", "client": c, "addr": f"10.0.{c}.9"}
              for c in cls.NAPS]
        wl += [{"t_us": 10_000 + 1000 * k, "op": "send_ip", "client": 1, "src": "10.0.1.9",
                "dst": dst, "bytes": 100}
               for k, dst in enumerate(["10.0.2.9"] * local_sends + ["10.0.5.9"] * far_sends)]
        return doc, Scenario(workload=wl)

    @staticmethod
    def spy_verdicts(monkeypatch, may_take=None):
        """Each gateway's (client, `may_take` of the name, verdict) per copy
        it is asked about, in call order, in the list returned. With
        `may_take` set, every gateway answers that to `may_take`."""
        from ipicn.gateways import BorderGateway, Nap

        verdicts = []
        for cls in (Nap, BorderGateway):
            def spy(self, pkt, on_icn_data=cls.on_icn_data):
                verdict = on_icn_data(self, pkt)
                verdicts.append((self.client, self.may_take(pkt.name), verdict))
                return verdict
            monkeypatch.setattr(cls, "on_icn_data", spy)
            if may_take is not None:
                monkeypatch.setattr(cls, "may_take", lambda self, name: may_take)
        return verdicts

    @classmethod
    def run_with_verdicts(cls, monkeypatch, doc, scenario, may_take=None):
        """The report and the verdicts of `spy_verdicts`."""
        verdicts = cls.spy_verdicts(monkeypatch, may_take)
        return IcnSimulation(doc, scenario).run(), verdicts

    def test_bystanders_count_one_each_per_copy_and_the_publisher_none(self, monkeypatch):
        local_sends, far_sends = 3, 2
        report, verdicts = self.run_with_verdicts(monkeypatch,
                                                  *self.inputs(local_sends, far_sends))
        # each copy is asked of its subscriber alone, which takes it; the
        # publisher's own local copy of a co-located send is asked of no one
        assert verdicts == [(2, True, True)] * local_sends + [(5, True, True)] * far_sends
        # every bystander is skipped and counted, once per copy that reaches
        # its node: the co-located subscriber skips each far copy
        skipped = {2: far_sends, 3: local_sends + far_sends, 4: far_sends}
        assert report.counters["off_tree_forwards"] == 0
        assert report.counters["fp_deliveries"] == sum(skipped.values()) == (
            local_sends + 3 * far_sends)
        assert sum(f["delivered"] for f in report.flows.values()) == local_sends + far_sends

    @pytest.mark.parametrize("demo, transit_prefix, transit_asked", [
        (True, None, None),
        (False, "10.0.0.0/16", True),
        (False, "10.0.4.0/24", False),
    ], ids=["small-demo", "transit-bystander-asked", "transit-bystander-skipped"])
    def test_report_counts_every_refused_copy(self, monkeypatch, demo, transit_prefix,
                                              transit_asked):
        """`fp_deliveries` is the refused verdicts plus the gateways skipped:
        those a run that asks every gateway (each `may_take` True) asks
        beyond this run's. A gateway is asked only where `may_take` holds.
        Four copies to 10.0.5.9 cross transit NAP 4: its prefix holds that
        address, so each is queued and asked there and refused, or it does
        not, so each is skipped and still counted."""
        if demo:
            scenario = load_scenario((DEMO_DATA / "small_scenario.json").read_text())
            doc = load_topology_doc((DEMO_DATA / "small.json").read_text(), scenario.seed)
        else:  # no local copies: every call comes from the simulation
            doc, scenario = self.inputs(0, 4, transit_prefix)
        with monkeypatch.context() as every:
            asking_all, every_verdict = self.run_with_verdicts(every, doc, scenario, True)
        report, verdicts = self.run_with_verdicts(monkeypatch, doc, scenario)
        assert verdicts and all(type(v) is bool and may for _, may, v in verdicts)
        refused = [v for _, _, v in verdicts].count(False)
        skipped = len(every_verdict) - len(verdicts)
        assert report.counters["fp_deliveries"] == refused + skipped
        assert report.to_canonical_json() == asking_all.to_canonical_json()
        if not demo:
            assert report.counters["fp_deliveries"] == 4 * 3  # NAPs 2, 3 and 4 per copy
            assert [v for c, _, v in verdicts if c == 4] == [False] * 4 * transit_asked
            assert skipped == 4 * (3 - transit_asked)

    @pytest.mark.parametrize("limit, fp_deliveries, hits", [
        (1000, 0, 1),  # the copy reaches the bystander at 1300, past the limit
        (1300, 1, 1),
        (None, 2, 0),
    ])
    def test_a_skipped_gateway_is_counted_only_if_its_copy_arrives_by_the_limit(
            self, limit, fp_deliveries, hits):
        """A 500-byte copy over the timed line reaches transit node 3 at 1300
        and node 5 at 3000. Cut before 3000, it walks; the bystander at node
        3 may not take it, so it is skipped and counted only if the copy
        arrives by the limit, and no event is queued for it. The run's
        clock still goes to that arrival, so a run cut before it counts
        `time_limit_hits` once, as when the arrival was handed over."""
        naps = [{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 5, "prefixes": ["10.0.2.0/24"]},
                {"client": 3, "node": 3, "prefixes": ["10.0.3.0/24"]}]
        doc = make_topology_doc(
            [1, 2, 3, 4, 5],
            [(i, i + 1, {"delay_us": d, "capacity_bps": 8_000_000})
             for i, d in enumerate((100, 200, 300, 400), 1)], naps=naps)
        sim = IcnSimulation(doc, Scenario(workload=[]))
        sim.call_at(0, lambda: sim.transmit(1, TestDataPlan.packet(500)))
        report = sim.run() if limit is None else sim.run(limit)
        assert report.counters["fp_deliveries"] == fp_deliveries
        assert report.counters.get("time_limit_hits", 0) == hits
        # the emission and the hand-off at node 5, or an event at the walk's last
        # arrival so far (node 3's at 1300, node 4's at 2100)
        assert sim.queue._seq == 2
