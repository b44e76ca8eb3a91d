"""Rendezvous matching against a brute-force pairwise oracle."""

import random

import pytest

from ipicn.names import (
    IcnName,
    Locality,
    covers,
    external_scope,
    name_for_ip,
    render_name,
)
from ipicn.rendezvous import MatchEvent, Rendezvous


def oracle_match_set(subs, item_name):
    """Brute-force scan of every subscription against one item name."""
    matched = set()
    for client, sub in subs:
        if sub.is_item:
            if sub == item_name:
                matched.add(client)
        elif sub.scopes == item_name.scopes[: len(sub.scopes)]:
            matched.add(client)
    return matched


def random_item_name(rng, max_depth=6):
    depth = rng.randint(1, max_depth)
    return IcnName(
        tuple(rng.randint(0, 3) for _ in range(depth)),
        item=rng.randint(0, 3),
    )


def random_sub_name(rng, max_depth=6):
    n = random_item_name(rng, max_depth)
    if rng.random() < 0.5:
        return IcnName(n.scopes)
    return n


class TestBasics:
    def test_subscribe_with_no_publications(self):
        rv = Rendezvous()
        assert rv.subscribe(1, IcnName((0xA,))) == []

    def test_scope_subscription_matches_live_publication(self):
        rv = Rendezvous()
        pub_name = name_for_ip("8.8.8.8", Locality.EXTERNAL)
        assert rv.publish_availability(5, pub_name) is None
        events = rv.subscribe(7, external_scope())
        assert events == [MatchEvent(pub_name, 5, frozenset({7}))]

    def test_publish_with_zero_subscribers(self):
        rv = Rendezvous()
        assert rv.publish_availability(1, IcnName((0xA,), 0xB)) is None

    def test_publish_reaches_all_current_subscribers(self):
        rv = Rendezvous()
        item = IcnName((0xA, 0xB), 0xC)
        rv.subscribe(1, item)
        rv.subscribe(2, IcnName((0xA,)))
        ev = rv.publish_availability(9, item)
        assert ev == MatchEvent(item, 9, frozenset({1, 2}))

    def test_publish_to_scope_level_rejected(self):
        rv = Rendezvous()
        with pytest.raises(ValueError):
            rv.publish_availability(1, IcnName((0xA, 0xB)))

    def test_match_set_needs_item_name(self):
        rv = Rendezvous()
        with pytest.raises(ValueError):
            rv.match_set(IcnName((0xA,)))


class TestIdempotence:
    def test_double_subscribe_same_state_and_matches(self):
        rv1, rv2 = Rendezvous(), Rendezvous()
        item = IcnName((0xA,), 0xB)
        for rv in (rv1, rv2):
            rv.publish_availability(3, item)
            rv.subscribe(1, IcnName((0xA,)))
        first = rv2.subscribe(1, IcnName((0xA,)))  # second time on rv2 only
        assert first == [MatchEvent(item, 3, frozenset({1}))]
        assert rv1._subs == rv2._subs
        assert rv1._pubs == rv2._pubs


class TestLifecycle:
    def test_last_subscriber_leaving_emits_empty_set(self):
        rv = Rendezvous()
        item = IcnName((0xA,), 0xB)
        rv.publish_availability(3, item)
        rv.subscribe(1, IcnName((0xA,)))
        events = rv.unsubscribe(1, IcnName((0xA,)))
        assert events == [MatchEvent(item, 3, frozenset())]

    def test_one_of_two_leaving_emits_remaining(self):
        rv = Rendezvous()
        item = IcnName((0xA,), 0xB)
        rv.subscribe(1, item)
        rv.subscribe(2, IcnName((0xA,)))
        rv.publish_availability(3, item)
        events = rv.unsubscribe(2, IcnName((0xA,)))
        assert events == [MatchEvent(item, 3, frozenset({1}))]

    def test_unsubscribe_without_effect_on_sets_is_silent(self):
        rv = Rendezvous()
        item = IcnName((0xA,), 0xB)
        rv.subscribe(1, item)
        rv.subscribe(1, IcnName((0xA,)))  # second covering subscription
        rv.publish_availability(3, item)
        assert rv.unsubscribe(1, IcnName((0xA,))) == []

    def test_unpublish_with_no_subscribers_is_silent(self):
        rv = Rendezvous()
        item = IcnName((0xA,), 0xB)
        rv.publish_availability(3, item)
        assert rv.unpublish(3, item) is None

    def test_unpublish_of_matched_item_tears_down(self):
        rv = Rendezvous()
        item = IcnName((0xA,), 0xB)
        rv.subscribe(1, item)
        rv.publish_availability(3, item)
        assert rv.unpublish(3, item) == MatchEvent(item, 3, frozenset())

    def test_removing_missing_records_warns_not_raises(self, caplog):
        rv = Rendezvous()
        with caplog.at_level("WARNING"):
            assert rv.unsubscribe(1, IcnName((0xA,))) == []
            assert rv.unpublish(1, IcnName((0xA,), 1)) is None
        assert len(caplog.records) == 2

    def test_scope_unsubscribe_updates_every_affected_tree(self):
        rv = Rendezvous()
        items = [IcnName((0xA, i), 9) for i in range(3)]
        for item in items:
            rv.publish_availability(10 + items.index(item), item)
        rv.subscribe(1, IcnName((0xA,)))
        rv.subscribe(2, items[0])
        events = rv.unsubscribe(1, IcnName((0xA,)))
        assert len(events) == 3
        by_name = {ev.name: ev for ev in events}
        assert by_name[items[0]].subscribers == frozenset({2})
        assert by_name[items[1]].subscribers == frozenset()
        assert by_name[items[2]].subscribers == frozenset()


class TestOracleEquivalence:
    def test_match_set_equals_brute_force_scan(self):
        rng = random.Random(41)
        for _ in range(300):
            rv = Rendezvous()
            subs, pubs = [], []
            for _ in range(rng.randint(0, 100)):
                client, sub = rng.randint(1, 20), random_sub_name(rng)
                rv.subscribe(client, sub)
                subs.append((client, sub))
            for _ in range(rng.randint(0, 100)):
                client, item = rng.randint(1, 20), random_item_name(rng)
                rv.publish_availability(client, item)
                pubs.append((client, item))
            for _, item in pubs:
                assert rv.match_set(item) == oracle_match_set(subs, item)
            for _ in range(10):
                probe = random_item_name(rng)
                assert rv.match_set(probe) == oracle_match_set(subs, probe)

    def test_events_always_carry_current_match_set(self):
        rng = random.Random(43)
        for _ in range(50):
            rv = Rendezvous()
            live_subs = set()
            for _ in range(300):
                roll = rng.random()
                if roll < 0.4:
                    client, sub = rng.randint(1, 8), random_sub_name(rng, 4)
                    events = rv.subscribe(client, sub)
                    live_subs.add((client, sub))
                elif roll < 0.7:
                    client, item = rng.randint(1, 8), random_item_name(rng, 4)
                    ev = rv.publish_availability(client, item)
                    events = [ev] if ev else []
                elif roll < 0.85 and live_subs:
                    client, sub = rng.choice(sorted(live_subs, key=str))
                    events = rv.unsubscribe(client, sub)
                    live_subs.discard((client, sub))
                else:
                    client, item = rng.randint(1, 8), random_item_name(rng, 4)
                    ev = rv.unpublish(client, item)
                    # tear-down events carry the empty set by design
                    events = []
                for ev in events:
                    assert ev.subscribers == rv.match_set(ev.name)

    def test_scope_coverage_over_ip_names(self):
        rng = random.Random(47)
        rv = Rendezvous()
        rv.subscribe(1, external_scope())
        for _ in range(200):
            addr = f"{rng.randint(1, 255)}.{rng.randint(0, 255)}.0.{rng.randint(0, 255)}"
            ext = rv.publish_availability(5, name_for_ip(addr, Locality.EXTERNAL))
            assert ext is not None and ext.subscribers == frozenset({1})
            internal = rv.publish_availability(
                6, name_for_ip(addr, Locality.INTERNAL)
            )
            assert internal is None


class SortThenFilterRendezvous:
    """Reference: keeps its standing trees in a set of its own, matches by a
    scan of every subscription, and sorts every publication or standing
    tree before filtering."""

    def __init__(self):
        self._subs = {}
        self._pubs = {}
        self._active = set()  # (publisher, item) pairs whose tree stands

    def match_set(self, item):
        return frozenset(c for sub, cs in self._subs.items() if covers(sub, item)
                         for c in cs)

    def subscribe(self, client, name):
        self._subs.setdefault(name, set()).add(client)
        events = []
        for pub_name in sorted(self._pubs, key=render_name):
            if not covers(name, pub_name):
                continue
            subs = self.match_set(pub_name)
            for publisher in sorted(self._pubs[pub_name]):
                events.append(MatchEvent(pub_name, publisher, subs))
                self._active.add((publisher, pub_name))
        return events

    def unsubscribe(self, client, name):
        holders = self._subs.get(name)
        if holders is None or client not in holders:
            return []
        affected = [
            (publisher, pub_name)
            for publisher, pub_name in sorted(
                self._active, key=lambda pn: (pn[0], render_name(pn[1]))
            )
            if covers(name, pub_name)
        ]
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

    def publish_availability(self, client, name):
        self._pubs.setdefault(name, set()).add(client)
        subs = self.match_set(name)
        if not subs:
            return None
        self._active.add((client, name))
        return MatchEvent(name, client, subs)

    def unpublish(self, client, name):
        holders = self._pubs.get(name)
        if holders is None or client not in holders:
            return None
        holders.discard(client)
        if not holders:
            del self._pubs[name]
        if (client, name) in self._active:
            self._active.discard((client, name))
            return MatchEvent(name, client, frozenset())
        return None


class TestReferenceEquivalence:
    def test_event_sequences_match_sort_then_filter_reference(self):
        rng = random.Random(59)
        emitted = 0
        for _ in range(40):
            rv, ref = Rendezvous(), SortThenFilterRendezvous()
            live_subs, live_pubs = set(), set()
            for _ in range(300):
                roll = rng.random()
                if roll < 0.35:
                    client, sub = rng.randint(1, 6), random_sub_name(rng, 3)
                    got, want = rv.subscribe(client, sub), ref.subscribe(client, sub)
                    live_subs.add((client, sub))
                elif roll < 0.65:
                    client, item = rng.randint(1, 6), random_item_name(rng, 3)
                    got = rv.publish_availability(client, item)
                    want = ref.publish_availability(client, item)
                    live_pubs.add((client, item))
                elif roll < 0.9 and live_subs:
                    client, sub = rng.choice(sorted(live_subs, key=str))
                    got, want = rv.unsubscribe(client, sub), ref.unsubscribe(client, sub)
                    live_subs.discard((client, sub))
                elif live_pubs:
                    client, item = rng.choice(sorted(live_pubs, key=str))
                    got, want = rv.unpublish(client, item), ref.unpublish(client, item)
                    live_pubs.discard((client, item))
                else:
                    continue
                assert got == want
                emitted += len(got) if isinstance(got, list) else got is not None
        assert emitted > 1000  # the streams really exercise matching


class TestItemNameLookup:
    """An item name covers only itself, so matching it scans no publication;
    a scope name still scans every live one."""

    @pytest.fixture
    def published(self):
        rv, ref = Rendezvous(), SortThenFilterRendezvous()
        for i in range(1000):
            item, client = IcnName((0xA, i % 10), i), 1 + i % 7
            assert rv.publish_availability(client, item) == ref.publish_availability(
                client, item
            )
        return rv, ref

    @pytest.fixture
    def covers_calls(self, monkeypatch):
        from ipicn import rendezvous

        calls = []

        def counting(sub, item):
            calls.append((sub, item))
            return covers(sub, item)

        monkeypatch.setattr(rendezvous, "covers", counting)
        return calls

    def test_item_name_subscribe_and_unsubscribe_call_covers_zero_times(
        self, published, covers_calls
    ):
        rv, ref = published
        live, absent = IcnName((0xA, 3), 3), IcnName((0xA, 3), 4)
        for item in (live, absent):
            assert rv.subscribe(9, item) == ref.subscribe(9, item)
            assert rv.subscribe(8, item) == ref.subscribe(8, item)
        assert [ev.name for ev in rv.subscribe(9, live)] == [live]
        for item in (live, absent):
            assert rv.unsubscribe(9, item) == ref.unsubscribe(9, item)
        assert rv.unsubscribe(8, live) == [MatchEvent(live, 4, frozenset())]
        assert covers_calls == []

    def test_scope_name_subscribe_scans_and_matches_reference(
        self, published, covers_calls
    ):
        rv, ref = published
        scope = IcnName((0xA, 3))
        got = rv.subscribe(9, scope)
        assert len(covers_calls) == 1000
        assert got == ref.subscribe(9, scope)
        assert len(got) == 100 and {ev.name.scopes for ev in got} == {scope.scopes}
        assert rv.unsubscribe(9, scope) == ref.unsubscribe(9, scope)
