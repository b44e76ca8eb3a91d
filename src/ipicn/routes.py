"""Fixed paths that bill a message once.

Links have no queues, so when each hop of a message starts and ends depends
only on the path it takes and its size: a hop starts when the one before it
arrives, and arrives its link's delay plus one serialization later. A
`Route` is such a path: its links in walk order, each crossed after its
parent, the one before it on a chain (a baseline route or an ICN control
path) and any earlier crossing on a tree (a `Plan`, an ICN delivery plan).
`Route.walk` is the one place that rule is written, hop by hop.

A route whose links share one capacity reaches every node by the delay sum
up to it plus one serialization per hop crossed, so it carries a message of
any size in one step, the first included (`Route.carry`): it adds the bytes
to its own total, not to each link's counter, and `fold` adds that total to
the counters of every link crossed when a report is built, or when the
simulation lets go of a plan. A route over mixed capacities, a delivery
plan that is not clean (its copies leave the tree, spend their TTL or end
at no gateway) and a message that does not arrive everywhere by the run's
time limit walk hop by hop and bill each link directly, as the callers do;
a trace sink changes none of this, as `walk` itself bills nothing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Container, Iterable, Iterator

from .topology import Link

# the flags of a plan's crossing: it leaves the tree; its copy arrives with
# its TTL spent where links still matched
OFF_TREE, TTL_DROP = 1, 2


def serialization_us(size_bytes: int, capacity_bps: int) -> int:
    return -(-8 * size_bytes * 1_000_000 // capacity_bps)


class Route(list):
    """The links of a fixed path, in walk order. `parents` holds the index
    of each link's parent crossing, -1 at the start; None on a chain, where
    each follows the one before. `billed` is the bytes sent over the whole
    path since its last fold, `delay_us` and `hops` the delay sum and hop
    count of its farthest crossing (the largest of each, on a tree), and
    `capacity` the one its links share (None: mixed, or no links)."""

    __slots__ = ("parents", "billed", "delay_us", "hops", "capacity")

    def __init__(self, links: Iterable[Link], parents: tuple[int, ...] | None = None,
                 delay_us: int | None = None, hops: int | None = None) -> None:
        super().__init__(links)
        self.parents, self.billed = parents, 0
        self.delay_us = sum(link.delay_us for link in self) if delay_us is None else delay_us
        self.hops = len(self) if hops is None else hops
        capacities = {link.capacity_bps for link in self}
        self.capacity = capacities.pop() if len(capacities) == 1 else None

    def walk(self, now: int, size: int, limit: int) -> Iterator[tuple[int, Link, int, int]]:
        """Send a packet of `size` bytes now, hop by hop: the index, link,
        start and arrival of each crossing that starts by `limit`, in walk
        order. Each starts when its parent arrives."""
        parents = range(-1, len(self) - 1) if self.parents is None else self.parents
        bits = -8_000_000 * size  # negated, so floor division rounds serialization up
        arrivals = [now]  # at the start, then crossing i's at i + 1
        append = arrivals.append
        for index, link in enumerate(self):
            start = arrivals[parents[index] + 1]
            arrive = start + link.delay_us - bits // link.capacity_bps
            append(arrive)
            if start <= limit:
                yield index, link, start, arrive

    def carry(self, now: int, size: int, billed: int, limit: int) -> int | None:
        """Send a message now whose largest packet has `size` bytes, in one
        step: bill `billed` bytes and return the farthest arrival of that
        packet, which arrives last, as serialization grows with size (on a
        tree, a bound: the largest delay sum crossed in the most hops). None,
        billing nothing, if the links are mixed or that arrival is after
        `limit`, when the caller walks."""
        if self.capacity is None:
            return None
        end = now + self.delay_us + self.hops * serialization_us(size, self.capacity)
        if end > limit:
            return None
        self.billed += billed
        return end

    def fold(self, link_bytes: dict[tuple[int, int], list[int]], slot: int) -> None:
        """Add the bytes billed since the last fold to byte slot `slot` (0
        control, 1 data) of each link's counter."""
        billed = self.billed
        if billed:
            for link in self:
                link_bytes[link.src, link.dst][slot] += billed
            self.billed = 0


class Plan(Route):
    """A delivery plan (see `IcnSimulation._plan`): a route over the tree of
    every crossing a copy's copies make, breadth first, and each crossing's
    `flags` (`OFF_TREE`, `TTL_DROP`). A clean plan, one with no crossing
    flagged and each last crossing at a gateway node, keeps the delay sum,
    hops and node of each crossing to a gateway node, in walk order, in
    `handoffs`; another keeps None there. `takers` is the caller's memo of a
    copy's hand-offs, per name. A plan with no links and
    `ttl_drops` set is that of a copy emitted with its TTL spent where
    links matched."""

    __slots__ = ("flags", "handoffs", "ttl_drops", "takers")

    def __init__(self, links: Iterable[Link] = (), parents: tuple[int, ...] = (),
                 delay_us: int = 0, hops: int = 0, flags: bytes = b"",
                 handoffs: tuple[int, ...] | None = (), ttl_drops: int = 0) -> None:
        super().__init__(links, parents, delay_us, hops)
        self.flags, self.handoffs, self.ttl_drops = flags, handoffs, ttl_drops
        self.takers: dict[object, tuple] = {}

    @staticmethod
    def build(node: int, ttl: int, links_at: Callable[[int, Link | None], list[Link]],
              tree: Container[Link], gateway_nodes: Container[int]) -> Plan:
        """The plan of a copy emitted at `node` with `ttl` on the tree with
        edges `tree`, where `links_at(node, arrival link)` are the links a
        node forwards it on. A copy arriving with its TTL spent crosses
        nothing more, and the plan marks the TTL drop where links still
        matched."""
        root = links_at(node, None)
        if not root:
            return Plan()
        if ttl <= 1:
            return Plan(ttl_drops=1)
        links: list[Link] = []
        parents: list[int] = []
        flags = bytearray()
        handoffs: list[int] = []
        clean, reach_us = True, 0
        frontier = deque([(root, ttl, -1, 0, 1)])
        while frontier:  # breadth first, so hops never fall
            hop_links, ttl, parent, delay_us, hops = frontier.popleft()
            spent = ttl <= 2
            for link in hop_links:
                far_us, onward = delay_us + link.delay_us, links_at(link.dst, link)
                if far_us > reach_us:
                    reach_us = far_us
                links.append(link)
                parents.append(parent)
                flags.append((link not in tree) * OFF_TREE | (spent and bool(onward)) * TTL_DROP)
                if link.dst in gateway_nodes:
                    handoffs += far_us, hops, link.dst
                elif spent or not onward:  # a last crossing, at no gateway
                    clean = False
                if onward and not spent:
                    frontier.append((onward, ttl - 1, len(links) - 1, far_us, hops + 1))
        # every popped entry has links: `hops` is that of the last crossing
        return Plan(links, tuple(parents), reach_us, hops, bytes(flags),
                    tuple(handoffs) if clean and not any(flags) else None)
