"""Fixed paths that bill a message once.

Links have no queues, so when each hop of a message starts and ends depends
only on the path it takes and its size. A `Route` (a baseline route or an
ICN control path) and a `Plan` (an ICN delivery plan) therefore bill a
message by adding its bytes to their own total, not to each link's counter;
`fold` adds that total to the counters of every link crossed when a report
is built, or when the simulation lets go of a plan.

- A route whose links share one capacity times any size in O(1): the
  arrival is the sum of the link delays plus one serialization per hop.
- A plan times a size when it walks two copies of that size in turn, and
  then keeps the size's timing (the arrival at each gateway node, its
  counts and its last arrival), so a later copy of that size queues only
  its hand-offs. It keeps at most `TIMED_SIZES` sizes; a plan used once,
  as most are when fetches churn, keeps none.

A traced run, and a message whose hops do not all start by the run's time
limit, walks hop by hop and bills each link directly, as the callers do.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Container, Iterable

from .topology import Link

TIMED_SIZES = 4  # the sizes a plan keeps the timing of, most recently timed last
_MIXED = -1  # a route's `delay_us` when its links differ in capacity

# a crossing of a delivery plan: (link, index of the parent crossing or -1
# at the emitting node, the link's [control, data] byte counter, off the
# tree, far node has gateways, TTL spent at the far node with links matched)
Crossing = tuple[Link, int, list[int], bool, bool, bool]
# a plan's timing of one size, each time from the emission: (size, last
# arrival, off-tree crossings, TTL drops past the emitting node, the last
# arrival if at no gateway node and after every hand-off, else None, and
# arrival, node, arrival, node, ... of the arrivals at gateway nodes in walk
# order)
Timing = tuple[int, int, int, int, "int | None", tuple[int, ...]]


def serialization_us(size_bytes: int, capacity_bps: int) -> int:
    return -(-8 * size_bytes * 1_000_000 // capacity_bps)


class Route(list):
    """The links of a fixed path, in walk order. `billed` is the bytes sent
    over the whole path since its last fold, and `delay_us` the sum of its
    links' delays once the route is timed (None: not yet; `_MIXED`: never,
    as its links differ in capacity)."""

    __slots__ = ("billed", "delay_us")

    def __init__(self, links: Iterable[Link], timed: bool = False) -> None:
        super().__init__(links)
        self.billed = 0
        self.delay_us: int | None = None
        if timed:
            self.time()

    def time(self) -> None:
        """Time the route for `carry`."""
        capacity = self[0].capacity_bps if self else 0
        self.delay_us = (sum(link.delay_us for link in self)
                         if all(link.capacity_bps == capacity for link in self) else _MIXED)

    def carry(self, now: int, size: int, billed: int, limit: int) -> int | None:
        """Send a message now whose largest packet has `size` bytes: bill
        `billed` bytes and return the arrival of that packet, which arrives
        last, as serialization grows with size. None, billing nothing, if
        the route is not timed or that packet starts its last hop after
        `limit`, when the caller walks hop by hop."""
        delay_us = self.delay_us
        if delay_us is None or delay_us == _MIXED:
            return None
        hop_us = serialization_us(size, self[0].capacity_bps)
        end = now + delay_us + len(self) * hop_us
        if end - self[-1].delay_us - hop_us > limit:
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
    """A delivery plan (see `IcnSimulation._plan`): the crossings, the data
    bytes each crossing was billed since the last fold, the size emitted
    once and not timed yet (None: none), and the timings of up to
    `TIMED_SIZES` sizes, the oldest first. A plan whose copy is emitted with
    its TTL spent and links matched is a `SpentPlan`."""

    __slots__ = ("crossings", "billed", "seen", "timed")
    spent_here = False

    def __init__(self, crossings: tuple[Crossing, ...]) -> None:
        self.crossings = crossings
        self.billed = 0
        self.seen: int | None = None
        self.timed: tuple[Timing, ...] = ()

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
            return SpentPlan(()) if links_at(node, None) else Plan(())
        crossings: list[Crossing] = []
        frontier = deque([(node, None, ttl, -1)])
        while frontier:
            node, in_link, ttl, parent = frontier.popleft()
            for link in links_at(node, in_link):
                spent = ttl <= 2
                crossings.append((
                    link, parent, link_bytes[link.src, link.dst], link not in tree,
                    link.dst in gateway_nodes, spent and bool(links_at(link.dst, link))))
                if not spent:
                    frontier.append((link.dst, link, ttl - 1, len(crossings) - 1))
        return Plan(tuple(crossings))

    def carry(self, now: int, size: int, limit: int, counters: Counter[str]) -> Timing | None:
        """Send a copy of `size` bytes now by its timing: bill it, add its
        off-tree crossings and TTL drops to `counters` and return the timing.
        None, billing nothing, if the size is not timed or the copy's last
        arrival is after `limit`, when the caller walks the crossings."""
        for timing in self.timed:
            if timing[0] == size:
                if now + timing[1] > limit:
                    return None
                self.billed += size
                if timing[2]:
                    counters["off_tree_forwards"] += timing[2]
                if timing[3]:
                    counters["ttl_drops"] += timing[3]
                return timing
        return None

    def note(self, size: int, arrivals: list[int], now: int) -> None:
        """A copy of `size` bytes emitted at `now` walked the crossings and
        arrived at `arrivals`: time the size if the last copy to walk the
        plan had it too."""
        if size != self.seen:
            self.seen = size
            return
        self.seen = None
        handoffs: list[int] = []  # arrival, node, arrival, node, ...
        handed, last, off_tree, ttl_drops = [0], [0], 0, 0
        for (link, _, _, off, hand_off, spent), arrive in zip(self.crossings, arrivals):
            off_tree += off
            ttl_drops += spent
            if hand_off:
                handed.append(arrive - now)
                handoffs += handed[-1], link.dst
            else:
                last.append(arrive - now)
        handed_us, last_us = max(handed), max(last)
        timing = (size, max(handed_us, last_us), off_tree, ttl_drops,
                  last_us if last_us > handed_us else None, tuple(handoffs))
        self.timed = (*self.timed, timing)[-TIMED_SIZES:]

    def fold(self, link_bytes: dict[tuple[int, int], list[int]], slot: int) -> None:
        """As `Route.fold`, for each crossing's link."""
        if self.billed:
            for link, *_ in self.crossings:
                link_bytes[link.src, link.dst][slot] += self.billed
            self.billed = 0


class SpentPlan(Plan):
    """The plan of a copy whose TTL runs out at the emitting node, where
    forward() still matched links: it crosses nothing, and counts a drop."""

    __slots__ = ()
    spent_here = True
