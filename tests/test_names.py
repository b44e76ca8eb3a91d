"""Namespace mapping, ancestor logic and the textual grammar."""

import ipaddress
import random
import sys

import pytest

from ipicn.names import (
    MAX_DEPTH,
    ROOT_HTTP,
    ROOT_IP,
    HttpRole,
    IcnName,
    Locality,
    external_scope,
    fnv1a64,
    is_ancestor,
    name_for_http,
    name_for_ip,
    parse_name,
    render_name,
    subnet_scope,
)


class TestIdentifiers:
    def test_hex_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            v = rng.getrandbits(64)
            for name in (IcnName((v,)), IcnName((1,), item=v)):
                element = render_name(name).rsplit("/", 1)[1].lstrip("~")
                assert len(element) == 16
                assert element == element.lower()
                assert int(element, 16) == v
                assert parse_name(render_name(name)) == name

    def test_range_enforced(self):
        for value in (-1, 1 << 64):
            with pytest.raises(ValueError):
                IcnName((value,))
            with pytest.raises(ValueError):
                IcnName((1, value, 2))
            with pytest.raises(ValueError):
                IcnName((1,), item=value)
        top = (1 << 64) - 1
        assert render_name(IcnName((0, top), item=top)) == (
            "/0000000000000000/ffffffffffffffff/~ffffffffffffffff")


class TestIpNames:
    def test_octet_per_scope(self):
        n = name_for_ip("10.0.1.5", Locality.INTERNAL)
        assert n.scopes == (ROOT_IP, 1, 0x0A, 0x00, 0x01)
        assert n.item == 0x05

    def test_all_zero_external(self):
        n = name_for_ip("0.0.0.0", Locality.EXTERNAL)
        assert n.scopes == (ROOT_IP, 2, 0, 0, 0)
        assert n.item == 0

    def test_all_ones_internal(self):
        n = name_for_ip("255.255.255.255", Locality.INTERNAL)
        assert n.scopes == (ROOT_IP, 1, 0xFF, 0xFF, 0xFF)
        assert n.item == 0xFF

    def test_injective_random_sample(self):
        rng = random.Random(7)
        seen = {}
        for _ in range(5000):
            addr = ipaddress.IPv4Address(rng.getrandbits(32))
            loc = rng.choice([Locality.INTERNAL, Locality.EXTERNAL])
            name = name_for_ip(addr, loc)
            key = (render_name(name),)
            assert seen.setdefault(key, (addr, loc)) == (addr, loc)

    def test_address_object_and_text_give_equal_names(self):
        rng = random.Random(3)
        for _ in range(500):
            addr = ipaddress.IPv4Address(rng.getrandbits(32))
            for loc in Locality:
                assert name_for_ip(addr, loc) == name_for_ip(str(addr), loc)

    def test_injective_exhaustive_slash24(self):
        names = {
            render_name(name_for_ip(f"192.168.7.{h}", loc))
            for h in range(256)
            for loc in (Locality.INTERNAL, Locality.EXTERNAL)
        }
        assert len(names) == 512


class TestSubnetScopes:
    def test_slash24_prefix_of_address_name(self):
        scope = subnet_scope("10.0.1.0/24", Locality.INTERNAL)
        assert scope.scopes == (ROOT_IP, 1, 0x0A, 0x00, 0x01)
        assert scope.item is None

    def test_slash8(self):
        scope = subnet_scope("10.0.0.0/8", Locality.INTERNAL)
        assert scope.scopes == (ROOT_IP, 1, 0x0A)

    def test_unsupported_lengths_rejected(self):
        for bad in ("10.0.0.0/12", "10.0.0.0/32", "10.0.0.0/0"):
            with pytest.raises(ValueError):
                subnet_scope(bad, Locality.INTERNAL)

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            subnet_scope("10.0.1.5/24", Locality.INTERNAL)

    def test_covers_every_address_inside(self):
        rng = random.Random(13)
        for _ in range(500):
            addr = ipaddress.IPv4Address(rng.getrandbits(32))
            loc = rng.choice([Locality.INTERNAL, Locality.EXTERNAL])
            name = name_for_ip(addr, loc)
            for plen in (8, 16, 24):
                net = ipaddress.IPv4Network(f"{addr}/{plen}", strict=False)
                assert is_ancestor(subnet_scope(net, loc), name)
                assert not is_ancestor(
                    subnet_scope(
                        net,
                        Locality.EXTERNAL if loc is Locality.INTERNAL else Locality.INTERNAL,
                    ),
                    name,
                )


class TestExternalScope:
    def test_shape(self):
        scope = external_scope()
        assert scope.scopes == (ROOT_IP, 2)
        assert scope.item is None

    def test_covers_external_not_internal(self):
        assert is_ancestor(external_scope(), name_for_ip("8.8.8.8", Locality.EXTERNAL))
        assert not is_ancestor(
            external_scope(), name_for_ip("10.0.1.5", Locality.INTERNAL)
        )


class TestHttpNames:
    def test_fnv_empty_is_offset_basis(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_fnv_single_byte(self):
        # independent single-round computation
        expected = ((0xCBF29CE484222325 ^ 0x61) * 0x100000001B3) % (1 << 64)
        assert fnv1a64(b"a") == expected
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_role_is_only_difference(self):
        req = name_for_http("cdn.example", HttpRole.REQUEST, "/v/1")
        resp = name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1")
        assert req.scopes[0] == ROOT_HTTP
        assert req.scopes[:2] == resp.scopes[:2]
        assert req.item == resp.item
        assert (req.scopes[2], resp.scopes[2]) == (1, 2)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            name_for_http("", HttpRole.REQUEST, "/v/1")
        with pytest.raises(ValueError):
            name_for_http("cdn.example", HttpRole.REQUEST, "")


class TestInterning:
    """The IP and HTTP mappings build each distinct name once and hand the
    same object out again; a bad argument is never remembered."""

    def test_a_repeated_call_returns_the_same_equal_name(self):
        addr = ipaddress.IPv4Address("10.0.1.5")
        ip = name_for_ip(addr, Locality.INTERNAL)
        assert name_for_ip(addr, Locality.INTERNAL) is ip
        assert name_for_ip(ipaddress.IPv4Address("10.0.1.5"), Locality.INTERNAL) is ip
        assert ip == IcnName((ROOT_IP, 1, 10, 0, 1), 5)
        http = name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1")
        assert name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1") is http
        assert http == IcnName(
            (ROOT_HTTP, fnv1a64(b"cdn.example"), HttpRole.RESPONSE.value), fnv1a64(b"/v/1"))

    @pytest.mark.parametrize("call", [
        lambda: name_for_ip("10.0.1.256", Locality.INTERNAL),
        lambda: name_for_ip("10.0.1.5", "internal"),
        lambda: name_for_http("", HttpRole.REQUEST, "/v/1"),
        lambda: name_for_http("cdn.example", HttpRole.REQUEST, ""),
    ])
    def test_a_bad_argument_raises_on_every_call(self, call):
        for _ in range(3):
            with pytest.raises((ValueError, KeyError)):
                call()

    def test_a_repeated_http_naming_runs_no_python_code(self):
        """The cache hashes its key in C: a hit calls no Python function, as
        `Enum.__hash__` would be."""
        fqdn, role, url = "cdn.example", HttpRole.RESPONSE, "/v/1"
        name = name_for_http(fqdn, role, url)
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
        try:
            again = name_for_http(fqdn, role, url)
        finally:
            sys.setprofile(None)
        assert again is name and calls == []

    def test_every_cache_is_bounded(self):
        for mapping in (name_for_ip, name_for_http):
            maxsize = mapping.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize <= 1 << 16

    def test_a_full_cache_still_gives_equal_names(self):
        first = name_for_ip("10.0.1.5", Locality.EXTERNAL)
        for value in range(name_for_ip.cache_info().maxsize + 1):  # evicts `first`
            name_for_ip(ipaddress.IPv4Address(value), Locality.EXTERNAL)
        again = name_for_ip("10.0.1.5", Locality.EXTERNAL)
        assert again is not first and again == first and hash(again) == hash(first)


def random_name(rng: random.Random, max_depth: int = MAX_DEPTH) -> IcnName:
    depth = rng.randint(1, max_depth)
    scopes = tuple(rng.getrandbits(64) for _ in range(depth))
    item = rng.getrandbits(64) if rng.random() < 0.5 else None
    return IcnName(scopes=scopes, item=item)


class TestIsAncestor:
    def test_scope_over_item(self):
        a = IcnName((0xA,))
        ab_c = IcnName((0xA, 0xB), item=0xC)
        assert is_ancestor(a, ab_c)

    def test_item_element_is_not_a_scope(self):
        ab = IcnName((0xA, 0xB))
        a_item_b = IcnName((0xA,), item=0xB)
        assert not is_ancestor(ab, a_item_b)

    def test_item_name_rejected_as_scope(self):
        with pytest.raises(ValueError):
            is_ancestor(IcnName((1,), item=2), IcnName((1,)))

    def test_matches_brute_force_prefix_oracle(self):
        rng = random.Random(23)
        for _ in range(2000):
            scope = random_name(rng, max_depth=5)
            if scope.is_item:
                scope = IcnName(scope.scopes)
            name = random_name(rng, max_depth=5)
            if rng.random() < 0.3:
                # force relatedness so the true branch is exercised
                depth = rng.randint(1, len(name.scopes))
                scope = IcnName(name.scopes[:depth])
            expected = list(scope.scopes) == list(name.scopes)[: len(scope.scopes)]
            assert is_ancestor(scope, name) == expected

    def test_reflexive_and_transitive_on_prefixes(self):
        rng = random.Random(29)
        for _ in range(300):
            name = random_name(rng, max_depth=8)
            full_scope = IcnName(name.scopes)
            assert is_ancestor(full_scope, name)
            d1 = rng.randint(1, len(name.scopes))
            d2 = rng.randint(1, d1)
            s1 = IcnName(name.scopes[:d1])
            s2 = IcnName(name.scopes[:d2])
            assert is_ancestor(s2, s1) and is_ancestor(s1, name)
            assert is_ancestor(s2, name)


class TestHash:
    def test_cached_hash_is_the_dataclass_hash(self):
        # sets and dicts of names must behave as with the generated hash
        rng = random.Random(11)
        names = [random_name(rng) for _ in range(2000)] + [
            name_for_ip("10.0.1.5", Locality.INTERNAL),
            name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1"),
            external_scope(),
            parse_name("/1/2/~3"),
        ]
        for name in names:
            assert hash(name) == hash((name.scopes, name.item))
            assert hash(name) == hash(IcnName(tuple(name.scopes), name.item))


class TestEquality:
    """Names compare by their identifier values, whichever tuples they were
    built from."""

    def test_separately_built_equal_names_are_equal(self):
        rng = random.Random(12)
        names = [random_name(rng) for _ in range(500)] + [
            name_for_ip("10.0.1.5", Locality.INTERNAL),
            name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1"),
            external_scope(),
        ]
        for name in names:
            twin = parse_name(render_name(name))  # a new scope tuple
            assert twin is not name and twin.scopes is not name.scopes
            assert twin == name and name == twin and not twin != name
            assert {name: 1}[twin] == 1

    def test_agrees_with_element_wise_equality(self):
        # values drawn from 0..2 so that many pairs are equal or differ in one place
        rng = random.Random(13)
        pool = [IcnName(tuple(rng.randrange(3) for _ in range(rng.randint(1, 3))),
                        rng.randrange(3) if rng.random() < 0.5 else None)
                for _ in range(120)]
        for a in pool:
            for b in pool:
                assert (a == b) == ((a.scopes, a.item) == (b.scopes, b.item))

    def test_item_and_scope_names_differ(self):
        ab = IcnName((0xA, 0xB))
        a_b = IcnName((0xA,), item=0xB)
        ab_c = IcnName((0xA, 0xB), item=0xC)
        assert ab != a_b and a_b != ab
        assert ab != ab_c and ab_c != ab
        assert ab == IcnName((0xA, 0xB), item=None)

    def test_other_types_are_not_implemented(self):
        name = name_for_ip("10.0.1.5", Locality.INTERNAL)
        for other in (name.scopes, (name.scopes, name.item), render_name(name), None):
            assert name.__eq__(other) is NotImplemented
            assert name != other and not name == other


class TestTextualForm:
    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(10_000):
            name = random_name(rng)
            assert parse_name(render_name(name)) == name

    def test_render_of_parse_is_identity_on_canonical(self):
        rng = random.Random(37)
        for _ in range(1000):
            text = render_name(random_name(rng))
            assert render_name(parse_name(text)) == text

    def test_unpadded_elements_accepted(self):
        assert parse_name("/a/b/~c") == IcnName(
            (0xA, 0xB), item=0xC
        )

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            parse_name("/")

    def test_depth_bound(self):
        deep_ok = "/" + "/".join(["01"] * 16)
        assert len(parse_name(deep_ok).scopes) == 16
        with pytest.raises(ValueError):
            parse_name("/" + "/".join(["01"] * 17))

    def test_malformed_rejected(self):
        for bad in ("", "a/b", "/xyz", "/AB", "/0123456789abcdef0", "/a/~b/c", "/~a",
                    "/a\n", "/a/~b\n", "/a\n/~b"):
            with pytest.raises(ValueError):
                parse_name(bad)
