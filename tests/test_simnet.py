"""Simulation harness: accounting, determinism, baseline parity."""

import hashlib
import math
from pathlib import Path

import pytest

from conftest import make_topology_doc
from ipicn import simnet
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
        assert sc.mode == "icn" and sc.seed == 3 and sc.workload == []

    def test_bad_json_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario("{nope")

    def test_unknown_op_rejected(self):
        with pytest.raises(ScenarioError, match="unknown workload op"):
            load_scenario('{"workload":[{"t_us":0,"op":"frobnicate"}]}')

    def test_missing_time_rejected(self):
        with pytest.raises(ScenarioError, match="t_us"):
            load_scenario('{"workload":[{"op":"attach","client":1,"addr":"10.0.1.5"}]}')

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            load_scenario('{"mode":"magic","workload":[]}')

    def test_unknown_client_detected_at_wiring(self):
        sc = Scenario(workload=[{"t_us": 0, "op": "attach", "client": 42,
                                 "addr": "10.0.1.5"}])
        with pytest.raises(UnknownClientError):
            IcnSimulation(two_node_doc(), sc)


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
        icn = IcnSimulation(make_topology_doc(**doc_args), sc)
        icn.run()
        base = BaselineSimulation(make_topology_doc(**doc_args), sc)
        base.run()
        icn_payloads = [p.payload for _, _, p in icn.delivered_ip]
        base_payloads = [p.payload for _, _, p in base.delivered_ip]
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
        sim = IcnSimulation(doc, TestSinglePacketHandTrace.SC, collect_trace=True)
        sim.run()
        assert sim.trace, "trace should not be empty"
        for row in sim.trace:
            assert len(row.split(",")) == 6
        events = {row.split(",")[2] for row in sim.trace}
        assert "ctrl" in events and "data" in events and "peer-out" in events


    @pytest.mark.parametrize("cls, digest", [
        (IcnSimulation, "e2ac0d2a82c00e2a2d27081893b53d2f783857ed"),
        (BaselineSimulation, "f745e7b2cddf96af7054e2ec891a6caa78e46a1a"),
    ])
    def test_small_demo_trace_is_pinned(self, cls, digest):
        scenario = load_scenario((DEMO_DATA / "small_scenario.json").read_text())
        topo = load_topology_doc((DEMO_DATA / "small.json").read_text(), scenario.seed)
        sim = cls(topo, scenario, collect_trace=True)
        sim.run()
        text = "\n".join(sim.trace)
        assert hashlib.sha1(text.encode()).hexdigest() == digest


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