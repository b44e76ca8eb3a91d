"""Fixed paths: `Route.walk` against hand-computed hop times, and no
untraced message of the benchmark workloads walks."""

import pytest

import golden_cases
from conftest import drop_row, make_topology_doc
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
    """Untraced, every message of the benchmark workloads at seed 1 is
    carried in one step, so none walks; a traced run walks every one."""

    @staticmethod
    def count_walked(monkeypatch):
        walked = [0]
        walk = Route.walk

        def counting(self, now, size, limit):
            for crossing in walk(self, now, size, limit):
                walked[0] += 1
                yield crossing

        monkeypatch.setattr(Route, "walk", counting)
        return walked

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("cls", [IcnSimulation, BaselineSimulation], ids=["icn", "ip"])
    @pytest.mark.parametrize("workload", golden_cases.WORKLOADS)
    def test_no_untraced_message_walks(self, monkeypatch, workload, cls, traced):
        walked = self.count_walked(monkeypatch)
        topology_text, scenario = golden_cases.inputs(workload, 1)
        sim = cls(load_topology_doc(topology_text, scenario.seed), scenario,
                  trace=drop_row if traced else None)
        sim.run()
        assert walked[0] > 0 if traced else walked[0] == 0
