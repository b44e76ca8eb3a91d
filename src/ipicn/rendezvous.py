"""Rendezvous: matches availability publications against subscriptions.

Subscriptions may target item names (exact match) or scope names (covering
every item underneath); publications always target item names. Any state
change that alters the subscriber set of a matched item emits a fresh
MatchEvent so the topology manager can keep delivery trees current. An
empty subscriber set in an event is the tear-down signal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .names import IcnName, covers, render_name

log = logging.getLogger(__name__)

ClientId = int


@dataclass(frozen=True)
class MatchEvent:
    """A publication/subscription match (or update) for one item name."""

    name: IcnName
    publisher: ClientId
    subscribers: frozenset[ClientId]


class Rendezvous:
    """Single-instance matching state, mutated only by one event loop."""

    def __init__(self) -> None:
        self._subs: dict[IcnName, set[ClientId]] = {}
        self._pubs: dict[IcnName, set[ClientId]] = {}
        # (publisher, item) pairs whose delivery tree is currently standing.
        self._active: set[tuple[ClientId, IcnName]] = set()

    # -- queries ---------------------------------------------------------

    def match_set(self, name: IcnName) -> frozenset[ClientId]:
        """Clients whose subscription equals `name` or an ancestor scope."""
        if not name.is_item:
            raise ValueError("match_set takes an item name")
        matched: set[ClientId] = set()
        matched |= self._subs.get(name, set())
        for depth in range(1, len(name.scopes) + 1):
            matched |= self._subs.get(name.scope_prefix(depth), set())
        return frozenset(matched)

    def has_subscription(self, client: ClientId, name: IcnName) -> bool:
        return client in self._subs.get(name, set())

    def publications(self) -> dict[IcnName, frozenset[ClientId]]:
        return {n: frozenset(cs) for n, cs in self._pubs.items() if cs}

    # -- state changes ---------------------------------------------------

    def subscribe(self, client: ClientId, name: IcnName) -> list[MatchEvent]:
        """Record a subscription; report every live publication it matches.

        Re-subscribing is idempotent: same state, same current matches.
        """
        self._subs.setdefault(name, set()).add(client)
        matched = sorted(
            (pub_name for pub_name in self._pubs if covers(name, pub_name)),
            key=render_name,
        )
        events = []
        for pub_name in matched:
            subs = self.match_set(pub_name)
            for publisher in sorted(self._pubs[pub_name]):
                events.append(MatchEvent(pub_name, publisher, subs))
                self._active.add((publisher, pub_name))
        return events

    def publish_availability(
        self, client: ClientId, name: IcnName
    ) -> MatchEvent | None:
        """Record an availability publication; match it if subscribers exist."""
        if not name.is_item:
            raise ValueError("publications target item names only")
        self._pubs.setdefault(name, set()).add(client)
        subs = self.match_set(name)
        if not subs:
            return None
        self._active.add((client, name))
        return MatchEvent(name, client, subs)

    def unsubscribe(self, client: ClientId, name: IcnName) -> list[MatchEvent]:
        """Drop a subscription; emit updates for every affected standing tree."""
        holders = self._subs.get(name)
        if holders is None or client not in holders:
            log.warning("unsubscribe without subscription: client=%s %s",
                        client, render_name(name))
            return []
        affected = sorted(
            (pn for pn in self._active if covers(name, pn[1])),
            key=lambda pn: (pn[0], render_name(pn[1])),
        )
        before = {pub_name: self.match_set(pub_name) for _, pub_name in affected}
        holders.discard(client)
        if not holders:
            del self._subs[name]
        events = []
        for publisher, pub_name in affected:
            after = self.match_set(pub_name)
            if after == before[pub_name]:
                continue
            events.append(MatchEvent(pub_name, publisher, after))
            if not after:
                self._active.discard((publisher, pub_name))
        return events

    def unpublish(self, client: ClientId, name: IcnName) -> MatchEvent | None:
        """Drop a publication; tear down its tree if one is standing."""
        holders = self._pubs.get(name)
        if holders is None or client not in holders:
            log.warning("unpublish without publication: client=%s %s",
                        client, render_name(name))
            return None
        holders.discard(client)
        if not holders:
            del self._pubs[name]
        if (client, name) in self._active:
            self._active.discard((client, name))
            return MatchEvent(name, client, frozenset())
        return None
