"""Rendezvous: matches availability publications against subscriptions.

Subscriptions may target item names (exact match) or scope names (covering
every item underneath); publications always target item names. Any state
change that alters the subscriber set of a matched item emits a fresh
MatchEvent so the topology manager can keep delivery trees current. An
empty subscriber set in an event is the tear-down signal. Every operation
returns its events as a list, empty when nothing changed.

No tree is recorded: one stands for (publisher, item) exactly when the
publisher publishes the item and the item's match set is non-empty.
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
        # subscriptions by the subscribed name's (scopes, item), so a scope
        # prefix is looked up by slicing its scopes instead of building a name
        self._subs: dict[tuple[tuple[int, ...], int | None], set[ClientId]] = {}
        self._pubs: dict[IcnName, set[ClientId]] = {}

    # -- queries ---------------------------------------------------------

    def match_set(self, name: IcnName) -> frozenset[ClientId]:
        """Clients whose subscription equals `name` or an ancestor scope."""
        if not name.is_item:
            raise ValueError("match_set takes an item name")
        scopes = name.scopes
        matched = set(self._subs.get((scopes, name.item), ()))
        for depth in range(1, len(scopes) + 1):
            matched |= self._subs.get((scopes[:depth], None), set())
        return frozenset(matched)

    def _covered(self, name: IcnName) -> list[IcnName]:
        """Live publications `name` covers; only a scope name scans them all."""
        if name.is_item:
            return [name] if name in self._pubs else []
        return [pub_name for pub_name in self._pubs if covers(name, pub_name)]

    # -- state changes ---------------------------------------------------

    def subscribe(self, client: ClientId, name: IcnName) -> list[MatchEvent]:
        """Record a subscription; report every live publication it matches.

        Re-subscribing is idempotent: same state, same current matches.
        """
        self._subs.setdefault((name.scopes, name.item), set()).add(client)
        matched = sorted(self._covered(name), key=render_name)
        events = []
        for pub_name in matched:
            subs = self.match_set(pub_name)
            for publisher in sorted(self._pubs[pub_name]):
                events.append(MatchEvent(pub_name, publisher, subs))
        return events

    def publish_availability(self, client: ClientId, name: IcnName) -> list[MatchEvent]:
        """Record an availability publication; report its match, if it has
        subscribers, as the one event of the list."""
        if not name.is_item:
            raise ValueError("publications target item names only")
        self._pubs.setdefault(name, set()).add(client)
        subs = self.match_set(name)
        return [MatchEvent(name, client, subs)] if subs else []

    def unsubscribe(self, client: ClientId, name: IcnName) -> list[MatchEvent]:
        """Drop a subscription; emit updates for every affected standing tree."""
        key = (name.scopes, name.item)
        holders = self._subs.get(key)
        if holders is None or client not in holders:
            log.warning("unsubscribe without subscription: client=%s %s",
                        client, render_name(name))
            return []
        holders.discard(client)
        if not holders:
            del self._subs[key]
        # every publication `name` covers had `client` in its match set, so
        # its trees stood; each changes where `client` is no longer matched
        affected = sorted(
            ((publisher, pub_name) for pub_name in self._covered(name)
             for publisher in self._pubs[pub_name]),
            key=lambda pn: (pn[0], render_name(pn[1])),
        )
        events = []
        for publisher, pub_name in affected:
            after = self.match_set(pub_name)
            if client not in after:
                events.append(MatchEvent(pub_name, publisher, after))
        return events

    def unpublish(self, client: ClientId, name: IcnName) -> list[MatchEvent]:
        """Drop a publication; if its tree was standing, report the tear-down
        as the one event of the list."""
        holders = self._pubs.get(name)
        if holders is None or client not in holders:
            log.warning("unpublish without publication: client=%s %s",
                        client, render_name(name))
            return []
        holders.discard(client)
        if not holders:
            del self._pubs[name]
        return [MatchEvent(name, client, frozenset())] if self.match_set(name) else []
