"""Fixed paths that bill a message once.

Links have no queues, so when each hop of a message starts and ends depends
only on the path it takes and its size: a message reaches the end of a hop
at the sum of the link delays up to there plus one serialization per hop
crossed. A `Route` (a baseline route or an ICN control path) and a `Plan`
(an ICN delivery plan) whose links share one capacity therefore carry a
message of any size in one step, the first included: they time each arrival
by that rule and add the bytes to their own total, not to each link's
counter; `fold` adds that total to the counters of every link crossed when
a report is built, or when the simulation lets go of a plan.

A path over links of mixed capacities, a traced run, and a message that does
not arrive everywhere by the run's time limit walk hop by hop and bill each
link directly, as the callers do.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Container, Iterable

from .topology import Link

# a crossing of a delivery plan: (link, index of the parent crossing or -1
# at the emitting node, the link's [control, data] byte counter, off the
# tree, TTL spent at the far node with links matched)
Crossing = tuple[Link, int, list[int], bool, bool]


def serialization_us(size_bytes: int, capacity_bps: int) -> int:
    return -(-8 * size_bytes * 1_000_000 // capacity_bps)


class Route(list):
    """The links of a fixed path, in walk order. `billed` is the bytes sent
    over the whole path since its last fold, `delay_us` the sum of its
    links' delays and `capacity` the one they share (None: mixed, or no
    links)."""

    __slots__ = ("billed", "delay_us", "capacity")

    def __init__(self, links: Iterable[Link]) -> None:
        super().__init__(links)
        self.billed = 0
        self.delay_us = sum(link.delay_us for link in self)
        capacities = {link.capacity_bps for link in self}
        self.capacity = capacities.pop() if len(capacities) == 1 else None

    def carry(self, now: int, size: int, billed: int, limit: int) -> int | None:
        """Send a message now whose largest packet has `size` bytes: bill
        `billed` bytes and return the arrival of that packet, which arrives
        last, as serialization grows with size. None, billing nothing, if
        the links are mixed or that packet arrives after `limit`, when the
        caller walks hop by hop."""
        if self.capacity is None:
            return None
        end = now + self.delay_us + len(self) * serialization_us(size, self.capacity)
        if end > limit:
            return None
        self.billed += billed
        return end

    def fold(self, link_bytes: dict[tuple[int, int], list[int]], slot: int) -> None:
        """Add the bytes billed since the last fold to byte slot `slot` (0
        control, 1 data) of each link's counter."""
        if self.billed:
            for link in self:
                link_bytes[link.src, link.dst][slot] += self.billed
            self.billed = 0


class Plan:
    """A delivery plan (see `IcnSimulation._plan`): the crossings and the
    data bytes each was billed since the last fold; the capacity its links
    share (None: mixed, or no links); the largest delay sum and hop count
    of any crossing, from the emitting node; delay sum, hops, node, delay
    sum, hops, node, ... of the crossings to gateway nodes, in walk order;
    the (delay sum, hops) of each last crossing to another node; and its
    off-tree crossings and TTL drops. A plan whose copy is emitted with its
    TTL spent and links matched is a `SpentPlan`."""

    __slots__ = ("crossings", "billed", "capacity", "delay_us", "hops", "handoffs", "tails",
                 "off_tree", "ttl_drops")
    spent_here = False

    def __init__(self, crossings: tuple[Crossing, ...] = (), capacity: int | None = None,
                 delay_us: int = 0, hops: int = 0, handoffs: tuple[int, ...] = (),
                 tails: tuple[tuple[int, int], ...] = (), off_tree: int = 0,
                 ttl_drops: int = 0) -> None:
        self.crossings = crossings
        self.billed = 0
        self.capacity, self.delay_us, self.hops = capacity, delay_us, hops
        self.handoffs, self.tails = handoffs, tails
        self.off_tree, self.ttl_drops = off_tree, ttl_drops

    @staticmethod
    def build(node: int, ttl: int, links_at: Callable[[int, Link | None], list[Link]],
              tree: Container[Link], gateway_nodes: Container[int],
              link_bytes: dict[tuple[int, int], list[int]]) -> Plan:
        """The plan of a copy emitted at `node` with `ttl` on the tree with
        edges `tree`, where `links_at(node, arrival link)` are the links a
        node forwards it on: every crossing its copies make, breadth first,
        each after its parent crossing. A copy arriving with its TTL spent
        crosses nothing more, and the plan marks the TTL drop where links
        still matched."""
        if ttl <= 1:
            return SpentPlan() if links_at(node, None) else Plan()
        root = links_at(node, None)
        if not root:
            return Plan()
        crossings: list[Crossing] = []
        handoffs: list[int] = []
        tails: list[tuple[int, int]] = []
        off_tree = ttl_drops = reach_us = 0
        capacity = root[0].capacity_bps  # None once a link differs
        frontier = deque([(root, ttl, -1, 0, 1)])
        while frontier:  # breadth first, so hops never fall
            links, ttl, parent, delay_us, hops = frontier.popleft()
            spent = ttl <= 2
            for link in links:
                far_us, onward = delay_us + link.delay_us, links_at(link.dst, link)
                if far_us > reach_us:
                    reach_us = far_us
                if link.capacity_bps != capacity:
                    capacity = None
                off, drop = link not in tree, spent and bool(onward)
                crossings.append((link, parent, link_bytes[link.src, link.dst], off, drop))
                off_tree += off
                ttl_drops += drop
                if link.dst in gateway_nodes:
                    handoffs += far_us, hops, link.dst
                elif spent or not onward:  # a last crossing, at no gateway
                    tails.append((far_us, hops))
                if onward and not spent:
                    frontier.append((onward, ttl - 1, len(crossings) - 1, far_us, hops + 1))
        # every popped entry has links: `hops` is that of the last crossing
        return Plan(tuple(crossings), capacity, reach_us, hops, tuple(handoffs),
                    tuple(tails), off_tree, ttl_drops)

    def carry(self, now: int, size: int, limit: int, counters: Counter[str]) -> int | None:
        """Send a copy of `size` bytes now in one step: bill it, add its
        off-tree crossings and TTL drops to `counters` and return the
        serialization of one hop, by which the caller times each arrival.
        None, billing nothing, if the links are mixed or a copy crossing the
        largest delay sum in the most hops would arrive after `limit`, when
        the caller walks the crossings."""
        if self.capacity is None:
            return None
        hop_us = serialization_us(size, self.capacity)
        if now + self.delay_us + self.hops * hop_us > limit:
            return None
        self.billed += size
        if self.off_tree:
            counters["off_tree_forwards"] += self.off_tree
        if self.ttl_drops:
            counters["ttl_drops"] += self.ttl_drops
        return hop_us

    def fold(self, link_bytes: dict[tuple[int, int], list[int]], slot: int) -> None:
        """As `Route.fold`, for each crossing's link."""
        if self.billed:
            for crossing in self.crossings:
                crossing[2][slot] += self.billed
            self.billed = 0


class SpentPlan(Plan):
    """The plan of a copy whose TTL runs out at the emitting node, where
    forward() still matched links: it crosses nothing, and counts a drop."""

    __slots__ = ()
    spent_here = True
