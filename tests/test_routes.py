"""Fixed paths: `Route.walk` against hand-computed hop times, and no
message of the benchmark workloads walks, traced or not, or builds an IP
payload, no ICN run builds an HTTP body or request JSON, and no ICN
emission builds more than its one packet or names its destination again."""

from collections import Counter
from types import SimpleNamespace

import pytest

import golden_cases
from conftest import drop_row, make_topology_doc
from ipicn import gateways, simnet
from ipicn.forwarding import IcnPacket
from ipicn.routes import OFF_TREE, Plan, Route
from ipicn.simnet import BaselineSimulation, IcnSimulation, Scenario
from ipicn.topology import load_topology_doc

# 8 Mb/s is 1 byte per us, 16 Mb/s 2 bytes per us
ONE, TWO = 8_000_000, 16_000_000


def topology(links):
    """A topology of `links`, (a, b, delay_us, capacity_bps) each."""
    nodes = sorted({node for a, b, _, _ in links for node in (a, b)})
    return make_topology_doc(nodes, [(a, b, {"delay_us": d, "capacity_bps": c})
                                     for a, b, d, c in links])


class TestWalk:
    def test_a_chain_over_two_capacities_is_cut_at_the_limit(self):
        """A 500-byte packet over 1->2 (100 us, 1 B/us), 2->3 (200 us,
        2 B/us) and 3->4 (300 us, 1 B/us) crosses 1->2 from 0 to 600 and
        2->3 from 600 to 1050, and would cross 3->4 from 1050 to 1850. Cut
        at 1000, the last crossing is the one that arrives past it, and
        `_walk` returns that arrival and bills only the crossings made."""
        doc = topology([(1, 2, 100, ONE), (2, 3, 200, TWO), (3, 4, 300, ONE)])
        g = doc.graph
        route = Route([g.link(1, 2), g.link(2, 3), g.link(3, 4)])
        assert route.capacity is None and route.carry(0, 500, 500, 10_000) is None
        assert list(route.walk(0, 500, 10_000)) == [
            (0, g.link(1, 2), 0, 600), (1, g.link(2, 3), 600, 1050),
            (2, g.link(3, 4), 1050, 1850)]
        assert list(route.walk(0, 500, 1000)) == [
            (0, g.link(1, 2), 0, 600), (1, g.link(2, 3), 600, 1050)]
        sim = BaselineSimulation(doc, Scenario(workload=[]))
        sim._max_time_us = 1000
        assert sim._walk(route, [500], 1, "-") == 1050
        assert {pair: data for pair, (_, data) in sim.link_bytes.items() if data} == {
            (1, 2): 500, (2, 3): 500}

    def test_a_tree_starts_each_crossing_when_its_parent_arrives(self):
        """From node 1 a 400-byte copy crosses 1->2 (100 us, 1 B/us) from 0
        to 500 and 1->5 (50 us, 2 B/us) from 0 to 250; from node 2, once it
        arrives at 500, 2->3 (200 us, 2 B/us) to 900 and 2->4 (1000 us,
        1 B/us) to 1900. Cut at 499, neither crossing from node 2 starts."""
        g = topology([(1, 2, 100, ONE), (1, 5, 50, TWO), (2, 3, 200, TWO),
                      (2, 4, 1000, ONE)]).graph
        onward = {1: [g.link(1, 2), g.link(1, 5)], 2: [g.link(2, 3), g.link(2, 4)]}
        plan = Plan.build(1, 32, lambda node, _: onward.get(node, []),
                          {g.link(1, 2), g.link(2, 3)}, {3, 4})
        c12, c15, c23, c24 = (g.link(a, b) for a, b in ((1, 2), (1, 5), (2, 3), (2, 4)))
        assert list(plan) == [c12, c15, c23, c24] and plan.parents == (-1, -1, 0, 0)
        assert [flag & OFF_TREE for flag in plan.flags] == [0, 1, 0, 1]
        assert plan.capacity is None and plan.carry(0, 400, 400, 10_000) is None
        assert list(plan.walk(0, 400, 10_000)) == [
            (0, c12, 0, 500), (1, c15, 0, 250), (2, c23, 500, 900), (3, c24, 500, 1900)]
        assert list(plan.walk(0, 400, 499)) == [(0, c12, 0, 500), (1, c15, 0, 250)]


class TestOneStepTraffic:
    """Every message of the benchmark workloads at seed 1 is carried in one
    step, traced or not, so none walks and bills hop by hop: a traced run
    takes its rows from `Route.walk`, which bills nothing. No run builds an
    IP payload, no ICN run an HTTP body or request JSON, and an ICN run
    builds one packet per emission."""

    @staticmethod
    def count_walked(monkeypatch):
        """Count the messages that walk and bill hop by hop: each carry a
        route or clean plan declines, and each walk of a plan that is not
        clean, as such a plan is never asked to carry. Walk calls alone
        would count a carried message's trace rows too."""
        walked = [0]
        carry, walk = Route.carry, Route.walk

        def counting_carry(self, *args):
            end = carry(self, *args)
            walked[0] += end is None
            return end

        def counting_walk(self, *args):
            walked[0] += isinstance(self, Plan) and self.handoffs is None
            return walk(self, *args)

        monkeypatch.setattr(Route, "carry", counting_carry)
        monkeypatch.setattr(Route, "walk", counting_walk)
        return walked

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation], ids=["icn", "ip"])
    @pytest.mark.parametrize("workload", golden_cases.WORKLOADS)
    def test_no_message_walks(self, monkeypatch, workload, cls, traced):
        walked = self.count_walked(monkeypatch)
        topology_text, scenario = golden_cases.inputs(workload, 1)
        sim = cls(load_topology_doc(topology_text, scenario.seed), scenario,
                  trace=drop_row if traced else None)
        sim.run()
        assert walked[0] == 0

    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation], ids=["icn", "ip"])
    def test_a_traced_run_cut_in_flight_walks_the_messages_it_cuts(self, monkeypatch, cls):
        """The count sees walks: cut at 200 ms, http_churn has messages in
        flight that do not arrive by the limit, and each walks to it."""
        walked = self.count_walked(monkeypatch)
        topology_text, scenario = golden_cases.inputs("http_churn", 1)
        sim = cls(load_topology_doc(topology_text, scenario.seed), scenario, trace=drop_row)
        sim.run(200_000)
        assert walked[0] > 0

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation], ids=["icn", "ip"])
    @pytest.mark.parametrize("workload", golden_cases.WORKLOADS)
    def test_no_ip_payload_is_built(self, monkeypatch, workload, cls, traced):
        """Nothing a run does reads a sent packet's payload, so none is made:
        encapsulations and trace rows take its size. Reading the payload of
        a packet made after the run makes it, by `simnet.synth_bytes`. (HTTP
        bodies are made by `gateways.synth_bytes`: see the next test.)"""
        built = [0]
        synth = simnet.synth_bytes

        def counting(tag, size):
            built[0] += 1
            return synth(tag, size)

        monkeypatch.setattr(simnet, "synth_bytes", counting)
        topology_text, scenario = golden_cases.inputs(workload, 1)
        sim = cls(load_topology_doc(topology_text, scenario.seed), scenario,
                  trace=drop_row if traced else None)
        sim.run()
        assert built[0] == 0
        sends = [op for op in scenario.workload if op["op"] in ("send_ip", "ext_in")][:1]
        assert ([len(sim._make_ip_packet(op).payload) for op in sends]
                == [op.get("bytes", 0) for op in sends])
        assert built[0] == len(sends)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("workload", golden_cases.WORKLOADS)
    def test_no_http_body_or_request_json_is_built(self, monkeypatch, workload, traced):
        """An ICN run carries HTTP requests and response segments as values
        and reads only their sizes, so it makes no body bytes
        (`gateways.synth_bytes`) and parses no request JSON. Reading a
        completed response's body afterwards makes each of its segments."""
        counts, responses = Counter(), []
        synth, loads = gateways.synth_bytes, gateways.json.loads
        note = IcnSimulation.note_http_complete

        def counting_synth(*args):
            counts["synth"] += 1
            return synth(*args)

        def counting_loads(*args, **kwargs):
            counts["loads"] += 1
            return loads(*args, **kwargs)

        def keeping(sim, client, response):
            responses.append(response)
            note(sim, client, response)

        monkeypatch.setattr(gateways, "synth_bytes", counting_synth)
        monkeypatch.setattr(gateways, "json", SimpleNamespace(loads=counting_loads))
        monkeypatch.setattr(IcnSimulation, "note_http_complete", keeping)
        topology_text, scenario = golden_cases.inputs(workload, 1)
        IcnSimulation(load_topology_doc(topology_text, scenario.seed), scenario,
                      trace=drop_row if traced else None).run()
        assert counts == {}
        assert bool(responses) == (workload != "unicast_mesh")
        for response in responses[:1]:
            body = response.body
            assert counts == {"synth": len(gateways.body_segments(len(body)))}
            assert body == synth(f"{response.fqdn}{response.url}", len(body))

    EMISSIONS = {"unicast_mesh": 6_600, "http_churn": 500, "flash_crowd": 930}

    @pytest.mark.parametrize("workload", golden_cases.WORKLOADS)
    def test_each_emission_builds_one_packet_and_names_nothing_again(self, monkeypatch,
                                                                     workload):
        """An ICN run builds one `IcnPacket` per emission: a copy crosses its
        links as the emitted packet, and no emission here has TTL 1, so
        `_plan` builds no probe. It names each destination once, in the
        address plan's table: `name_for_ip` runs at most once per attach and
        once per distinct destination of a send, not once per packet."""
        counts = Counter()
        new, transmit = IcnPacket.__new__, IcnSimulation.transmit
        name_for_ip = gateways.name_for_ip

        def counting_new(cls, *args, **kwargs):
            counts["packets"] += 1
            return new(cls, *args, **kwargs)

        def counting_transmit(sim, client, pkt):
            counts["emissions"] += 1
            transmit(sim, client, pkt)

        def counting_name(addr, loc):
            counts["names"] += 1
            return name_for_ip(addr, loc)

        monkeypatch.setattr(IcnPacket, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(IcnSimulation, "transmit", counting_transmit)
        monkeypatch.setattr(gateways, "name_for_ip", counting_name)
        topology_text, scenario = golden_cases.inputs(workload, 1)
        IcnSimulation(load_topology_doc(topology_text, scenario.seed), scenario).run()
        ops = Counter(op["op"] for op in scenario.workload)
        destinations = {op["dst"] for op in scenario.workload if op["op"] in ("send_ip", "ext_in")}
        assert counts["emissions"] == self.EMISSIONS[workload]
        assert counts["packets"] == counts["emissions"]
        assert counts["names"] <= ops["attach"] + len(destinations)
