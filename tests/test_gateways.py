"""NAP and border gateway behaviour over a synchronous control plane."""

import copy
import ipaddress
import json
import pickle
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SyncEnv, make_topology_doc
from ipicn import gateways
from ipicn.forwarding import IcnPacket, decode_packet, encode_packet
from ipicn.gateways import (
    IP_HEADER_SIZE,
    MAX_IP_PAYLOAD,
    MAX_RESPONSE_BYTES,
    PENDING_CAPACITY,
    SEGMENT_CHUNK,
    AddressPlan,
    BorderGateway,
    HttpResponse,
    IpPacket,
    Nap,
    body_segments,
    decode_ip_packet,
    encode_http_request,
    encode_ip_packet,
    http_request_size,
)
from ipicn.names import (
    HttpRole,
    IcnName,
    Locality,
    name_for_http,
    name_for_ip,
)
from ipicn.topology import MAX_CLIENT_ID, FidDelivery


def net(*cidrs):
    return tuple(ipaddress.IPv4Network(c) for c in cidrs)


def plan(*cidrs):
    """The operator's address plan over these prefixes."""
    return AddressPlan(net(*cidrs))


def ip_packet(src, dst, pid=1, payload=b"hello"):
    return IpPacket(
        src=ipaddress.IPv4Address(src),
        dst=ipaddress.IPv4Address(dst),
        proto=17,
        id=pid,
        payload=payload,
    )


@pytest.fixture
def env(line3_doc):
    return SyncEnv(line3_doc.graph)


@pytest.fixture
def nap1(env):
    nap = Nap(env, 1, 3, net("10.0.1.0/24"), plan("10.0.1.0/24", "10.0.2.0/24"))
    env.add(nap)
    return nap


@pytest.fixture
def nap2(env):
    nap = Nap(env, 2, 1, net("10.0.2.0/24"), plan("10.0.1.0/24", "10.0.2.0/24"))
    env.add(nap)
    return nap


@pytest.fixture
def border(env):
    gw = BorderGateway(env, 99, 1, plan("10.0.1.0/24", "10.0.2.0/24"))
    env.add(gw)
    gw.start()
    return gw


class TestIpCodec:
    def test_round_trip(self):
        pkt = ip_packet("10.0.1.5", "10.0.2.9", pid=7, payload=b"\x00\xffdata")
        assert decode_ip_packet(encode_ip_packet(pkt)) == pkt

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_ip_packet(b"\x01" * 10)

    @pytest.mark.parametrize("length", range(IP_HEADER_SIZE))
    def test_an_encoding_cut_inside_its_header_is_rejected(self, length):
        """Each field of the header cut short, or left out."""
        encoded = encode_ip_packet(ip_packet("10.0.1.5", "10.0.2.9", pid=2**64 - 1))
        with pytest.raises(ValueError, match="truncated"):
            decode_ip_packet(encoded[:length])

    def test_decoded_packets_share_equal_address_objects(self):
        a = decode_ip_packet(encode_ip_packet(ip_packet("10.0.1.5", "10.0.2.9", pid=1)))
        b = decode_ip_packet(encode_ip_packet(ip_packet("10.0.2.9", "10.0.1.5", pid=2)))
        assert a.src is b.dst and a.dst is b.src
        assert a.src == ipaddress.IPv4Address("10.0.1.5")
        assert a.dst == ipaddress.IPv4Address("10.0.2.9")
        assert hash(a.dst) == hash(ipaddress.IPv4Address("10.0.2.9"))

    def test_the_address_cache_is_bounded(self):
        maxsize = gateways._address.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16

    def test_payload_cap(self):
        with pytest.raises(ValueError):
            ip_packet("10.0.1.5", "10.0.2.9", payload=b"x" * 65508)


def unbuilt(src, dst, pid=1, payload=b"hello", reads=None):
    """`ip_packet`'s packet, made by `IpPacket.of_size` with a maker that
    appends the packet to `reads` at each call."""

    def make(pkt):
        if reads is not None:
            reads.append(pkt)
        return payload

    return IpPacket.of_size(ipaddress.IPv4Address(src), ipaddress.IPv4Address(dst), 17, pid,
                            len(payload), make)


class TestIpPacketValue:
    def test_fields_cannot_be_assigned(self):
        pkt = ip_packet("10.0.1.5", "10.0.2.9")
        for field in ("src", "dst", "proto", "id", "payload", "size"):
            with pytest.raises(AttributeError):
                setattr(pkt, field, 0)

    def test_equality_hash_and_repr_go_by_the_five_fields(self):
        built = ip_packet("10.0.1.5", "10.0.2.9", pid=3)
        made = unbuilt("10.0.1.5", "10.0.2.9", pid=3)
        assert built == made and not built != made and hash(built) == hash(made)
        assert repr(built) == repr(made) == (
            "IpPacket(src=IPv4Address('10.0.1.5'), dst=IPv4Address('10.0.2.9'), "
            "proto=17, id=3, payload=b'hello')")
        assert made != unbuilt("10.0.1.5", "10.0.2.9", pid=3, payload=b"hellO")
        assert built != ip_packet("10.0.1.5", "10.0.2.9", pid=4)
        storage = tuple(built)
        assert built != storage and storage != built and built != b"hello"

    def test_both_constructors_refuse_an_oversized_payload(self):
        src, dst = ipaddress.IPv4Address("10.0.1.5"), ipaddress.IPv4Address("10.0.2.9")
        with pytest.raises(ValueError, match="longer than"):
            IpPacket(src, dst, 17, 1, bytes(MAX_IP_PAYLOAD + 1))
        with pytest.raises(ValueError, match="longer than"):
            IpPacket.of_size(src, dst, 17, 1, MAX_IP_PAYLOAD + 1, bytes)
        assert IpPacket(src, dst, 17, 1, bytes(MAX_IP_PAYLOAD)).size == MAX_IP_PAYLOAD

    @pytest.mark.parametrize("payload", [b"", b"x", bytes(1400)], ids=["0", "1", "1400"])
    def test_size_is_the_payload_length_and_reads_without_building_it(self, payload):
        reads = []
        pkt = unbuilt("10.0.1.5", "10.0.2.9", payload=payload, reads=reads)
        assert pkt.size == len(payload) and reads == []
        assert pkt.size == len(pkt.payload) and reads == [pkt]
        assert ip_packet("10.0.1.5", "10.0.2.9", payload=payload).size == len(payload)

    @pytest.mark.parametrize("copy_of", [
        copy.copy, copy.deepcopy, lambda pkt: pickle.loads(pickle.dumps(pkt))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_rebuild_an_equal_packet(self, copy_of):
        """A packet left to a maker comes back built: an unpicklable maker
        is never pickled."""
        for pkt in (ip_packet("10.0.1.5", "10.0.2.9", pid=3, payload=b"\x00\xff"),
                    unbuilt("10.0.1.5", "10.0.2.9", pid=4)):
            back = copy_of(pkt)
            assert type(back) is IpPacket and back == pkt and hash(back) == hash(pkt)
            assert back.size == pkt.size and back.payload == pkt.payload


class TestEncapsulation:
    """A NAP's emission carries the sent packet itself: its payload reads
    as `encode_ip_packet` of it, and the far end gets the packet back."""

    def emitted(self, env, nap1, pkt):
        nap1.attach_device("10.0.1.5")
        nap1.on_fid(FidDelivery(1, name_for_ip("10.0.2.9", Locality.INTERNAL), fid=1,
                                local=False))
        nap1.send_ip(pkt)
        [(_, icn)] = env.emissions
        return icn

    @pytest.mark.parametrize("payload", [b"", b"hello", bytes(1400)], ids=["0", "5", "1400"])
    def test_payload_length_and_bytes_are_the_encoding(self, env, nap1, payload):
        reads = []
        sent = unbuilt("10.0.1.5", "10.0.2.9", pid=7, payload=payload, reads=reads)
        icn = self.emitted(env, nap1, sent)
        assert len(icn.payload) == IP_HEADER_SIZE + len(payload)
        assert reads == []  # the emission built nothing
        assert bytes(icn.payload) == encode_ip_packet(sent)
        assert icn.wire_size == IcnPacket(icn.fid, icn.name, encode_ip_packet(sent)).wire_size
        assert icn.payload.ip is sent

    def test_the_wire_encoding_reads_back_as_the_sent_packet(self, env, nap1):
        sent = unbuilt("10.0.1.5", "10.0.2.9", pid=9, payload=b"\x00\xffdata")
        icn = self.emitted(env, nap1, sent)
        wire = encode_packet(icn)
        assert len(wire) == icn.wire_size
        back = decode_packet(wire)
        assert type(back.payload) is bytes and back.fid == icn.fid and back.name == icn.name
        assert decode_ip_packet(back.payload) == sent


class TestAddressPlan:
    def test_agrees_with_a_scan_of_every_prefix(self):
        rng = random.Random(5)
        for _ in range(400):
            lengths = rng.choices([0, 8, 12, 16, 24, 28, 32],
                                  weights=[1, 4, 4, 4, 4, 4, 4], k=rng.randint(0, 6))
            prefixes = tuple(
                ipaddress.IPv4Network((rng.getrandbits(32) >> (32 - n) << (32 - n), n))
                for n in lengths
            )
            plan = AddressPlan(prefixes)
            probes = [rng.getrandbits(32) for _ in range(20)]
            for p in prefixes:
                first, last = int(p.network_address), int(p.broadcast_address)
                probes += [first, last, (first - 1) % 2**32, (last + 1) % 2**32,
                           rng.randint(first, last)]
            for value in probes:
                addr = ipaddress.IPv4Address(value)
                assert (addr in plan) == any(addr in p for p in prefixes), (addr, prefixes)

    def test_names_each_destination_once_under_its_locality(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gateways, "name_for_ip",
                            lambda addr, loc: calls.append(addr) or name_for_ip(addr, loc))
        plan = AddressPlan([ipaddress.IPv4Network("10.0.0.0/16")])
        inside, outside = ipaddress.IPv4Address("10.0.1.5"), ipaddress.IPv4Address("8.8.8.8")
        for _ in range(3):
            assert plan.name_for(inside) is name_for_ip(inside, Locality.INTERNAL)
            assert plan.name_for(outside) is name_for_ip(outside, Locality.EXTERNAL)
            # an equal address parsed again finds the same entry
            assert plan.name_for(ipaddress.IPv4Address("10.0.1.5")) is plan.name_for(inside)
        assert calls == [inside, outside]


class TestAttach:
    def test_attach_subscribes_to_internal_name(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        assert ("subscribe", 1, name_for_ip("10.0.1.5", Locality.INTERNAL)) in (
            env.control_log
        )

    def test_outside_prefix_rejected(self, nap1):
        with pytest.raises(ValueError, match="outside"):
            nap1.attach_device("192.168.0.1")

    def test_double_assignment_rejected(self, nap1):
        nap1.attach_device("10.0.1.5")
        with pytest.raises(ValueError, match="already"):
            nap1.attach_device("10.0.1.5")


class TestSendIp:
    def test_unassigned_source_rejected(self, nap1):
        with pytest.raises(ValueError, match="not assigned"):
            nap1.send_ip(ip_packet("10.0.1.99", "10.0.2.9"))

    def test_cold_cache_announces_once_and_queues(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        dst_name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        for pid in (1, 2, 3):
            nap1.send_ip(ip_packet("10.0.1.5", "10.0.2.9", pid=pid))
        publishes = [c for c in env.control_log if c == ("publish", 1, dst_name)]
        assert len(publishes) == 1
        assert env.emissions == []
        nap1.on_fid(FidDelivery(1, dst_name, fid=1, local=False))
        assert [p.payload.ip.id for _, p in env.emissions] == [1, 2, 3]

    def test_external_destination_uses_external_name(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        nap1.send_ip(ip_packet("10.0.1.5", "8.8.8.8"))
        ext_name = name_for_ip("8.8.8.8", Locality.EXTERNAL)
        assert ("publish", 1, ext_name) in env.control_log

    def test_warm_cache_emits_immediately(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        dst_name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        nap1.on_fid(FidDelivery(1, dst_name, fid=1, local=False))
        nap1.send_ip(ip_packet("10.0.1.5", "10.0.2.9", pid=4))
        assert [p.payload.ip.id for _, p in env.emissions] == [4]
        nap1.on_fid(FidDelivery(1, dst_name, fid=1, local=False))  # nothing was queued
        assert len(env.emissions) == 1

    def test_overflow_drops_oldest(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        dst_name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        for pid in range(1, PENDING_CAPACITY + 2):  # 65 packets
            nap1.send_ip(ip_packet("10.0.1.5", "10.0.2.9", pid=pid))
        assert [pkt.id for pkt in env.ip_drops] == [1]  # the evicted one
        nap1.on_fid(FidDelivery(1, dst_name, fid=1, local=False))
        sent_ids = [pkt.payload.ip.id for _, pkt in env.emissions]
        assert sent_ids == list(range(2, PENDING_CAPACITY + 2))  # FIFO, oldest gone


class TestOnFid:
    def test_flush_preserves_fifo_order(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        dst_name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        for pid in (10, 11, 12):
            nap1.send_ip(ip_packet("10.0.1.5", "10.0.2.9", pid=pid))
        nap1.on_fid(FidDelivery(1, dst_name, fid=1, local=False))
        assert [p.payload.ip.id for _, p in env.emissions] == [10, 11, 12]

    def test_teardown_evicts_and_requeues(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        dst_name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        nap1.on_fid(FidDelivery(1, dst_name, fid=1, local=False))
        nap1.on_fid(FidDelivery(1, dst_name, fid=0, local=False))
        nap1.send_ip(ip_packet("10.0.1.5", "10.0.2.9", pid=20))
        assert env.emissions == []
        nap1.on_fid(FidDelivery(1, dst_name, fid=2, local=False))
        assert [(p.fid, p.payload.ip.id) for _, p in env.emissions] == [(2, 20)]

    def test_ip_name_is_not_announced_again_when_its_tree_is_rebuilt(self, env, nap1, nap2):
        nap1.attach_device("10.0.1.5")
        nap2.attach_device("10.0.2.9")
        dst_name = name_for_ip("10.0.2.9", Locality.INTERNAL)
        first = ip_packet("10.0.1.5", "10.0.2.9", pid=1)
        nap1.send_ip(first)
        env.unsubscribe(2, dst_name)  # the tree is torn down
        second = ip_packet("10.0.1.5", "10.0.2.9", pid=2)
        emitted = len(env.emissions)
        nap1.send_ip(second)
        assert len(env.emissions) == emitted  # queued, not sent on the stale fid
        env.subscribe(2, dst_name)  # and rebuilt from the standing publication
        assert env.ip_deliveries == [(2, first), (2, second)]
        assert [c for c in env.control_log if c[0] in ("publish", "unpublish")] == [
            ("publish", 1, dst_name)
        ]

    def test_unknown_name_populates_cache_without_publications(self, env, nap1):
        strange = name_for_ip("10.0.2.77", Locality.INTERNAL)
        nap1.on_fid(FidDelivery(1, strange, fid=5, local=False))
        assert env.emissions == []
        nap1.attach_device("10.0.1.5")
        nap1.send_ip(ip_packet("10.0.1.5", "10.0.2.77", pid=30))
        assert [(p.name, p.fid) for _, p in env.emissions] == [(strange, 5)]
        assert [c for c in env.control_log if c[0] == "publish"] == []


class TestOnIcnData:
    def make_data(self, nap, src, dst, pid=1, payload=b"pp"):
        pkt = ip_packet(src, dst, pid=pid, payload=payload)
        return IcnPacket(
            fid=0,
            name=name_for_ip(dst, Locality.INTERNAL),
            payload=gateways._Encapsulated(pkt),
        ), pkt

    def test_assigned_address_delivers_bit_identical(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        icn, original = self.make_data(nap1, "10.0.2.9", "10.0.1.5", payload=b"\x01\x02")
        nap1.on_icn_data(icn)
        assert env.ip_deliveries == [(1, original)]

    def test_unassigned_address_is_refused(self, env, nap1):
        icn, _ = self.make_data(nap1, "10.0.2.9", "10.0.1.200")
        assert nap1.on_icn_data(icn) is False
        assert env.ip_deliveries == []

    def test_foreign_name_is_rejected_without_reading_its_payload(self, nap1):
        # a `bytes` payload carries no packet: reading it would raise
        nap1.attach_device("10.0.1.5")
        foreign = IcnPacket(
            fid=0,
            name=name_for_ip("10.0.1.200", Locality.INTERNAL),
            payload=b"\x00\x01",
        )
        assert nap1.on_icn_data(foreign) is False
        assert nap1.counters == {}

    def test_own_name_for_another_address_is_refused(self, env, nap1):
        nap1.attach_device("10.0.1.5")
        icn, _ = self.make_data(nap1, "10.0.2.9", "10.0.1.6")
        own = IcnPacket(icn.fid, name_for_ip("10.0.1.5", Locality.INTERNAL), icn.payload)
        assert nap1.on_icn_data(own) is False
        assert env.ip_deliveries == []

    def test_verdict_is_false_only_for_a_copy_the_gateway_does_not_want(
            self, env, nap1, nap2, border):
        nap1.attach_device("10.0.1.5")
        nap2.http_serve("cdn.example")
        size = SEGMENT_CHUNK + 10
        nap2.http_get("other.example", "/a", size)
        own, _ = self.make_data(nap1, "10.0.2.9", "10.0.1.5")
        request = name_for_http("cdn.example", HttpRole.REQUEST, "/v/1")
        response = name_for_http("other.example", HttpRole.RESPONSE, "/a")
        outward = name_for_ip("8.8.8.8", Locality.EXTERNAL)
        cases = [
            (nap1, own, True),  # delivered
            (nap2, IcnPacket(0, request, gateways._HttpRequest(1, "cdn.example", "/v/1", 10)),
             True),
            (nap2, IcnPacket(0, response, gateways._Segment(0, size, "other.example/a",
                                                            SEGMENT_CHUNK)), True),
            # corrupt: a segment of another exchange's total
            (nap2, IcnPacket(0, response, gateways._Segment(0, 10, "other.example/a", 10)), True),
            (nap1, IcnPacket(0, request, b""), False),
            (nap1, IcnPacket(0, response, b""), False),
            (border, IcnPacket(0, outward,
                               gateways._Encapsulated(ip_packet("10.0.1.5", "8.8.8.8"))), True),
            (border, own, False),
        ]
        assert [gw.on_icn_data(pkt) for gw, pkt, _ in cases] == [v for _, _, v in cases]
        assert env.ip_deliveries and env.peer_emissions and nap2._exchanges
        assert nap2.counters["corrupt"] == 1

    def test_every_copy_is_reported(self, env, nap1):
        # the environment, not the NAP, tells a duplicate from a delivery
        nap1.attach_device("10.0.1.5")
        icn, original = self.make_data(nap1, "10.0.2.9", "10.0.1.5", pid=9)
        nap1.on_icn_data(icn)
        nap1.on_icn_data(icn)
        assert env.ip_deliveries == [(1, original), (1, original)]
        assert nap1.counters["duplicates"] == 0


class TestEndToEnd:
    def test_internal_to_internal_delivery(self, env, nap1, nap2):
        nap1.attach_device("10.0.1.5")
        nap2.attach_device("10.0.2.9")
        sent = ip_packet("10.0.1.5", "10.0.2.9", pid=100, payload=b"payload-bytes")
        nap1.send_ip(sent)
        assert env.ip_deliveries == [(2, sent)]

    def test_internal_to_external_reaches_peer_log(self, env, nap1, border):
        nap1.attach_device("10.0.1.5")
        sent = ip_packet("10.0.1.5", "8.8.8.8", pid=101, payload=b"outward")
        nap1.send_ip(sent)
        assert env.peer_emissions == [(99, sent)]
        assert env.ip_deliveries == []

    def test_border_ingress_reaches_device(self, env, nap1, border):
        nap1.attach_device("10.0.1.5")
        sent = ip_packet("198.51.100.7", "10.0.1.5", pid=102, payload=b"inward")
        border.ingress(sent)
        assert env.ip_deliveries == [(1, sent)]


class TestBorder:
    def test_ingress_outside_prefixes_dropped(self, env, border):
        dropped = ip_packet("198.51.100.7", "192.168.9.9")
        border.ingress(dropped)
        assert env.ip_drops == [dropped]

    def test_internal_scope_is_refused(self, env, border):
        pkt = IcnPacket(fid=0, name=name_for_ip("10.0.1.5", Locality.INTERNAL), payload=b"")
        assert border.on_icn_data(pkt) is False
        assert border.counters == {}
        assert env.peer_emissions == []

    def test_every_copy_is_reported(self, env, border):
        inner = ip_packet("10.0.1.5", "8.8.8.8", pid=55)
        pkt = IcnPacket(fid=0, name=name_for_ip("8.8.8.8", Locality.EXTERNAL),
                        payload=gateways._Encapsulated(inner))
        assert border.on_icn_data(pkt) is True
        assert border.on_icn_data(pkt) is True
        assert env.peer_emissions == [(99, inner), (99, inner)]
        assert border.counters["duplicates"] == 0


class TestMayTake:
    """`may_take(name)` is False only for a name no copy of which the
    gateway would ever take, so the simulation skips such gateways."""

    @staticmethod
    def network(value, length):
        return ipaddress.IPv4Network((value >> (32 - length) << (32 - length), length))

    @settings(max_examples=100, deadline=None)
    @given(prefixes=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                       st.sampled_from([8, 16, 20, 24, 31, 32])),
                             min_size=1, max_size=3),
           inside=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1)), max_size=6),
           outside=st.lists(st.integers(0, 2**32 - 1), max_size=3),
           served=st.sets(st.sampled_from(["a.example", "b.example"])),
           gets=st.lists(st.tuples(st.sampled_from(["a.example", "b.example", "c.example"]),
                                   st.sampled_from(["/x", "/y"]),
                                   st.integers(0, 2 * SEGMENT_CHUNK)), max_size=3))
    def test_a_copy_taken_is_one_that_may_be_taken(self, prefixes, inside, outside, served,
                                                   gets):
        """Over NAP prefixes, attached and unattached addresses inside and
        outside them, hosts served and fetches in flight, a gateway that
        takes a copy (`on_icn_data` True) may take its name, and a NAP may
        take the internal name of an address exactly when one of its
        prefixes holds it."""
        prefixes = tuple(self.network(*p) for p in prefixes)
        env = SyncEnv(make_topology_doc([1, 2, 3], [(1, 2), (2, 3)],
                                        naps=[{"client": 1, "node": 3}],
                                        border={"client": 99, "node": 1}).graph)
        nap = Nap(env, 1, 3, prefixes, AddressPlan(prefixes))
        border = BorderGateway(env, 99, 1, AddressPlan(prefixes))
        for gw in (nap, border):
            env.add(gw)
        border.start()
        addresses = [ipaddress.IPv4Address(value) for value in outside]
        for index, offset in inside:
            net = prefixes[index % len(prefixes)]
            addr = net[offset % net.num_addresses]
            addresses.append(addr)
            if offset % 3 and int(addr) not in nap.addresses:  # some stay unattached
                nap.attach_device(addr)
        for fqdn in sorted(served):
            nap.http_serve(fqdn)
        for fqdn, url, size in gets:
            nap.http_get(fqdn, url, size)
        copies = []
        for addr in addresses:
            carried = gateways._Encapsulated(ip_packet("192.0.2.1", str(addr)))
            copies += [IcnPacket(0, name_for_ip(addr, loc), carried) for loc in Locality]
            assert nap.may_take(name_for_ip(addr, Locality.INTERNAL)) == any(
                addr in p for p in prefixes)
        for fqdn, url, size in gets + [("a.example", "/x", 5), ("b.example", "/z", 0)]:
            copies.append(IcnPacket(0, name_for_http(fqdn, HttpRole.REQUEST, url),
                                    gateways._HttpRequest(7, fqdn, url, size)))
            copies += [IcnPacket(0, name_for_http(fqdn, HttpRole.RESPONSE, url),
                                 gateways._Segment(offset, size, f"{fqdn}{url}", length))
                       for offset, length in body_segments(size)]
        for pkt in copies:
            for gw in (nap, border):
                assert not gw.on_icn_data(pkt) or gw.may_take(pkt.name), (gw.client, pkt.name)

    def test_names_no_copy_of_which_is_taken(self, nap1, border):
        inner = name_for_ip("10.0.1.5", Locality.INTERNAL)
        outer = name_for_ip("10.0.1.5", Locality.EXTERNAL)
        http = name_for_http("cdn.example", HttpRole.RESPONSE, "/v")
        assert [nap1.may_take(n) for n in (inner, outer, http)] == [True, False, True]
        assert [border.may_take(n) for n in (inner, outer, http)] == [False, True, False]
        # an internal name that is no address's
        assert not nap1.may_take(IcnName(inner.scopes[:4] + (256,), 5))
        assert not nap1.may_take(IcnName(inner.scopes))


class TestClientId:
    @pytest.mark.parametrize("client", [-1, 2**32])
    def test_an_id_a_control_message_cannot_carry_raises_and_keeps_no_state(
            self, env, client):
        for make in (lambda: Nap(env, client, 3, net("10.0.1.0/24"), plan("10.0.1.0/24")),
                     lambda: BorderGateway(env, client, 1, plan("10.0.1.0/24"))):
            with pytest.raises(ValueError, match=f"client id {client} outside 0..{MAX_CLIENT_ID}"):
                make()
        assert env.control_log == [] and env.gateways == {}

    def test_both_ends_of_the_range_are_taken(self, env):
        assert [Nap(env, client, 3, net("10.0.1.0/24"), plan("10.0.1.0/24")).client
                for client in (0, MAX_CLIENT_ID)] == [0, MAX_CLIENT_ID]


# text weighted towards what `json` escapes: control characters, quotes and
# backslashes, non-ASCII text, characters outside the BMP, lone surrogates
ANY_TEXT = st.text(st.one_of(
    st.characters(max_codepoint=0x7f),
    st.characters(categories=("Cc", "Cs")),
    st.characters(min_codepoint=0x80, max_codepoint=0xffff, exclude_categories=()),
    st.characters(min_codepoint=0x10000),
))


@given(client=st.integers(0, MAX_CLIENT_ID), fqdn=ANY_TEXT, url=ANY_TEXT,
       resp_bytes=st.integers(0, MAX_RESPONSE_BYTES))
@example(client=0, fqdn="", url="", resp_bytes=0)
@example(client=MAX_CLIENT_ID, fqdn='\x00"\\\u00e9\u2028', url="\ud800/\U0001f600",
         resp_bytes=MAX_RESPONSE_BYTES)
def test_http_request_size_is_the_encoded_length(client, fqdn, url, resp_bytes):
    """Control characters, quotes, non-ASCII text, characters outside the
    BMP and lone surrogates are each escaped as `json` escapes them."""
    assert http_request_size(client, fqdn, url, resp_bytes) == len(
        encode_http_request(client, fqdn, url, resp_bytes))


@given(client=st.integers(0, MAX_CLIENT_ID), fqdn=ANY_TEXT, url=ANY_TEXT,
       resp_bytes=st.integers(0, MAX_RESPONSE_BYTES))
@example(client=MAX_CLIENT_ID, fqdn='\x00"\\\u00e9\u2028\x7f', url="\ud800/\U0001f600\udfff",
         resp_bytes=MAX_RESPONSE_BYTES)
@example(client=0, fqdn="0", url="\ud800\udc00", resp_bytes=0)
def test_http_request_is_framed_as_json_writes_it(client, fqdn, url, resp_bytes):
    """The request's bytes are `json.dumps`'s of the sorted object, and
    `json` reads back what the requester asked for. JSON escapes each lone
    surrogate alone, so a high one followed by a low one reads back as the
    one character the pair encodes."""
    request = {"client": client, "fqdn": fqdn, "resp_bytes": resp_bytes, "url": url}
    encoded = encode_http_request(client, fqdn, url, resp_bytes)
    assert encoded == json.dumps(request, sort_keys=True).encode()
    assert json.loads(encoded) == dict(request, fqdn=paired(fqdn), url=paired(url))


def paired(text):
    """`text` with each high surrogate that a low one follows joined with it."""
    return re.sub("[\ud800-\udbff][\udc00-\udfff]",
                  lambda pair: pair[0].encode("utf-16-le", "surrogatepass").decode("utf-16-le"),
                  text)


@pytest.mark.parametrize("client, fqdn, resp_bytes", [
    (True, "cdn.example", 10), (1, "cdn.example", False),  # json writes true, false
    (1.5, "cdn.example", 10), (1, "cdn.example", 1e3),  # and 1.5, 1000.0
    ("1", "cdn.example", 10), (None, "cdn.example", 10), (1, 7, 10),
])
def test_a_request_field_of_another_type_raises(client, fqdn, resp_bytes):
    """Encoded, or carried as a NAP publishes it."""
    with pytest.raises(TypeError):
        encode_http_request(client, fqdn, "/v/1", resp_bytes)
    with pytest.raises(TypeError):
        gateways._HttpRequest(client, fqdn, "/v/1", resp_bytes)


class TestHttp:
    def test_single_requester_gets_identical_bytes(self, env, nap1, nap2):
        from ipicn.gateways import synth_bytes

        nap2.http_serve("cdn.example")
        nap1.http_get("cdn.example", "/v/1", 5000)
        env.advance(nap2.window_us + 1)
        # one completion, at the requester only: the server side never
        # hands a response to its devices
        assert env.http_completions == [
            (1, HttpResponse("cdn.example", "/v/1", synth_bytes("cdn.example/v/1", 5000)))
        ]
        assert isinstance(env.http_completions[0][1], HttpResponse)

    def test_two_requesters_one_window_one_publication(self):
        from conftest import SyncEnv, make_topology_doc

        doc = make_topology_doc(
            nodes=[1, 2, 3],
            undirected_links=[(1, 2), (2, 3)],
            naps=[
                {"client": 1, "node": 3, "prefixes": ["10.0.1.0/24"]},
                {"client": 2, "node": 1, "prefixes": ["10.0.2.0/24"]},
                {"client": 3, "node": 2, "prefixes": ["10.0.3.0/24"]},
            ],
            seed=11,
        )
        env = SyncEnv(doc.graph)
        all_nets = plan("10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24")
        nap1 = Nap(env, 1, 3, net("10.0.1.0/24"), all_nets)
        nap2 = Nap(env, 2, 1, net("10.0.2.0/24"), all_nets)
        server = Nap(env, 3, 2, net("10.0.3.0/24"), all_nets)
        for gw in (nap1, nap2, server):
            env.add(gw)
        server.http_serve("cdn.example")
        nap1.http_get("cdn.example", "/v/1", 250_000)
        nap2.http_get("cdn.example", "/v/1", 250_000)
        env.advance(server.window_us + 1)
        resp_name = name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1")
        segments = [p for _, p in env.emissions if p.name == resp_name]
        assert len(segments) == 4  # ceil(250000 / 65507) published exactly once
        assert sorted(client for client, _ in env.http_completions) == [1, 2]
        (_, first), (_, second) = env.http_completions
        assert first.body == second.body == gateways.synth_bytes("cdn.example/v/1", 250_000)

    @pytest.mark.parametrize("tag", ["a", "cdn.example/v/1"])
    def test_filler_from_an_offset_is_that_slice_of_the_whole(self, tag):
        """A segment's chunk is made from its offset, never from the whole
        body: each equals that slice of the whole filler."""
        size = 3 * SEGMENT_CHUNK + 123
        whole = gateways.synth_bytes(tag, size)
        for offset, length in body_segments(size) + [(1, 0), (5, 7), (size - 1, 1)]:
            assert gateways.synth_bytes(tag, length, offset) == whole[offset : offset + length]

    def test_negative_window_is_rejected(self, env):
        with pytest.raises(ValueError, match="window must not be negative"):
            Nap(env, 1, 3, net("10.0.1.0/24"), plan("10.0.1.0/24"), window_us=-1)
        assert Nap(env, 1, 3, net("10.0.1.0/24"), plan("10.0.1.0/24"), window_us=0).window_us == 0

    @pytest.mark.parametrize("window_us", [1.5, "5", None, True])
    def test_non_integer_window_is_rejected(self, env, window_us):
        with pytest.raises(ValueError, match="must not be negative or a non-int, got "):
            Nap(env, 1, 3, net("10.0.1.0/24"), plan("10.0.1.0/24"), window_us=window_us)

    def test_every_requester_reassembles_the_exact_body(self, env):
        """Segments handed to three requesters out of order, one of them
        twice: each body is `bytes` and equals the served content exactly."""
        fqdn, url, size = "cdn.example", "/v/1", 3 * SEGMENT_CHUNK + 123
        all_nets = plan("10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24")
        naps = [Nap(env, k, 3, net(f"10.0.{k}.0/24"), all_nets) for k in (1, 2, 3)]
        for nap in naps:
            env.add(nap)
            nap.http_get(fqdn, url, size)
        content = gateways.synth_bytes(f"{fqdn}{url}", size)
        resp_name = name_for_http(fqdn, HttpRole.RESPONSE, url)
        segments = [IcnPacket(0, resp_name, gateways._Segment(offset, size, f"{fqdn}{url}", n))
                    for offset, n in body_segments(size)]
        handed = [segments[3], segments[1], segments[3], segments[0], segments[2]]
        for pkt in handed:
            for nap in naps:  # every requester is handed the same packet
                nap.on_icn_data(pkt)
        assert [client for client, _ in env.http_completions] == [1, 2, 3]
        for _, response in env.http_completions:
            assert type(response.body) is bytes
            assert response.body == content
        assert [nap.counters["duplicates"] for nap in naps] == [1, 1, 1]

    def test_response_of_segments_equals_the_joined_body(self):
        """A response over segments handed in any order equals the one
        built from their joined bytes; its body is that exact `bytes`,
        joined once and kept."""
        size = 2 * SEGMENT_CHUNK + 5
        content = gateways.synth_bytes("cdn.example/v/1", size)
        segments = body_segments(size)
        lazy = HttpResponse._of_segments("cdn.example", "/v/1", {
            o: gateways._Segment(o, size, "cdn.example/v/1", length)
            for o, length in (segments[1], segments[2], segments[0])})
        eager = HttpResponse("cdn.example", "/v/1", content)
        assert lazy == eager and hash(lazy) == hash(eager)
        assert type(lazy.body) is bytes and lazy.body == content
        assert lazy.body is lazy.body
        assert HttpResponse._of_segments("a", "/e", {0: gateways._Segment(0, 0, "a/e", 0)}) == (
            HttpResponse("a", "/e", b""))
        assert lazy != HttpResponse("cdn.example", "/v/2", content)

    def test_requests_in_separate_windows_publish_twice(self, env, nap1, nap2):
        nap2.http_serve("cdn.example")
        nap1.http_get("cdn.example", "/v/1", 100)
        env.advance(nap2.window_us + 1)
        nap1.http_get("cdn.example", "/v/1", 100)
        env.advance(2 * nap2.window_us + 2)
        resp_name = name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1")
        segments = [p for _, p in env.emissions if p.name == resp_name]
        assert len(segments) == 2
        assert [client for client, _ in env.http_completions] == [1, 1]

    def test_local_gets_coalesce_into_one_request(self, env, nap1, nap2):
        nap2.http_serve("cdn.example")
        req_name = name_for_http("cdn.example", HttpRole.REQUEST, "/v/1")
        nap1.http_get("cdn.example", "/v/1", 100)
        nap1.http_get("cdn.example", "/v/1", 100)
        env.advance(nap2.window_us + 1)
        requests = [p for _, p in env.emissions if p.name == req_name]
        assert len(requests) == 1
        assert [client for client, _ in env.http_completions] == [1, 1]

    def test_zero_byte_response_completes(self, env, nap1, nap2):
        nap2.http_serve("cdn.example")
        nap1.http_get("cdn.example", "/empty", 0)
        env.advance(nap2.window_us + 1)
        assert env.http_completions == [(1, HttpResponse("cdn.example", "/empty", b""))]

    def test_server_keeps_no_exchange_once_its_window_closed(self, env, nap1, nap2):
        nap2.http_serve("cdn.example")
        for k in range(500):
            nap1.http_get("cdn.example", f"/v/{k}", 10)
        env.advance(nap2.window_us + 1)
        assert len(env.http_completions) == 500
        assert nap2._exchanges == {}

    def test_a_segment_of_another_total_is_corrupt_and_not_buffered(self, env, nap1):
        """Another exchange of the URL, of another size, can reach a fetch in
        flight: its segment would not tile the fetch's body."""
        size = SEGMENT_CHUNK + 10
        nap1.http_get("b", "/y", size)
        resp_name = name_for_http("b", HttpRole.RESPONSE, "/y")
        first, last = [gateways._Segment(offset, size, "b/y", length)
                       for offset, length in body_segments(size)]
        for seg in (first, gateways._Segment(SEGMENT_CHUNK, SEGMENT_CHUNK + 5, "b/y", 5)):
            assert nap1.on_icn_data(IcnPacket(0, resp_name, seg))
        assert nap1.counters["corrupt"] == 1
        assert list(nap1._gets[resp_name].buf) == [0]
        nap1.on_icn_data(IcnPacket(0, resp_name, last))
        assert env.http_completions == [
            (1, HttpResponse("b", "/y", gateways.synth_bytes("b/y", size)))]

    def test_one_shot_name_published_twice_is_announced_and_withdrawn_once(
            self, env, nap2):
        nap2.http_serve("cdn.example")
        req_name = name_for_http("cdn.example", HttpRole.REQUEST, "/v/1")
        resp_name = name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1")
        for size in (10, 20):  # two windows close before anyone subscribes
            nap2.on_icn_data(IcnPacket(0, req_name,
                                       gateways._HttpRequest(1, "cdn.example", "/v/1", size)))
            env.advance(env.now + nap2.window_us + 1)
        assert env.emissions == []
        env.subscribe(1, resp_name)
        # each body in one segment behind its 16-byte frame
        assert [len(p.payload) for _, p in env.emissions] == [16 + 10, 16 + 20]
        assert [c for c in env.control_log if c[2] == resp_name] == [
            ("publish", 2, resp_name), ("subscribe", 1, resp_name),
            ("unpublish", 2, resp_name),
        ]

    @pytest.mark.parametrize("total, count", [
        (0, 1), (1, 1), (SEGMENT_CHUNK, 1), (SEGMENT_CHUNK + 1, 2), (MAX_RESPONSE_BYTES, 257),
    ])
    def test_body_segments_tile_the_body(self, total, count):
        segments = body_segments(total)
        assert len(segments) == count
        ends = [offset + length for offset, length in segments]
        assert [offset for offset, _ in segments] == [0, *ends[:-1]]
        assert ends[-1] == total


def carried_payloads():
    """One payload of each kind a gateway publishes: an encapsulation, an
    HTTP request and a response segment (here the partial last one)."""
    return [
        gateways._Encapsulated(unbuilt("10.0.1.5", "10.0.2.9", pid=5, payload=b"\x00\xff")),
        gateways._HttpRequest(7, "\u00fcn\u00ef.example", "/vid\u00e9o/\u2603", 10),
        gateways._Segment(2 * SEGMENT_CHUNK, 2 * SEGMENT_CHUNK + 5, "cdn.example/v/1", 5),
    ]


class TestHttpCarriers:
    """A NAP publishes an HTTP request, and a server its response segments,
    as values whose `len()` and `bytes()` are their encodings, built only if
    read; the far NAP takes them back unparsed. A request is checked where
    it is made."""

    @pytest.mark.parametrize("client, fqdn, url, resp_bytes", [
        (1, "cdn.example", "/v/1", 10),
        (MAX_CLIENT_ID, "\u00fcn\u00ef.example", "/vid\u00e9o/\U0001f600", MAX_RESPONSE_BYTES),
        (0, '\x00"\\', "\ud800/\u2028", 0),
    ], ids=["ascii", "non-ascii", "escaped"])
    def test_a_carried_request_reads_as_its_encoding(self, client, fqdn, url, resp_bytes):
        carried = gateways._HttpRequest(client, fqdn, url, resp_bytes)
        encoded = json.dumps({"client": client, "fqdn": fqdn, "resp_bytes": resp_bytes,
                              "url": url}, sort_keys=True).encode()
        assert bytes(carried) == encode_http_request(client, fqdn, url, resp_bytes) == encoded
        assert len(carried) == http_request_size(client, fqdn, url, resp_bytes) == len(encoded)

    def test_a_fetch_of_a_non_int_size_raises_and_leaves_no_fetch(self, env, nap1, nap2):
        nap2.http_serve("cdn.example")
        with pytest.raises(TypeError):
            nap1.http_get("cdn.example", "/v/1", 1.5)
        assert nap1._gets == {} and env.emissions == []
        assert [op for op, client, _ in env.control_log if client == 1] == []
        nap1.http_get("cdn.example", "/v/1", 10)
        env.advance(nap2.window_us + 1)
        assert [client for client, _ in env.http_completions] == [1]

    @pytest.mark.parametrize("fqdn, url", [
        ("cdn.example", "/v/1"), ("\u00fcn\u00ef.example", "/vid\u00e9o/\u2603"),
        ("", "/v/1"), ("cdn.example", "")], ids=["ascii", "non-ascii", "no-fqdn", "no-url"])
    @pytest.mark.parametrize("resp_bytes", [-1, 0, MAX_RESPONSE_BYTES, MAX_RESPONSE_BYTES + 1])
    def test_a_fetch_is_checked_where_it_is_made(self, env, nap1, nap2, resp_bytes, fqdn, url):
        """A valid fetch opens an exchange of the size it asks for at the
        server, which reads the request as it is. Any other raises before
        any state is kept, also while a fetch of the URL is in flight, which
        it then leaves as it was."""
        if fqdn:
            nap2.http_serve(fqdn)
        if fqdn and url and 0 <= resp_bytes <= MAX_RESPONSE_BYTES:
            nap1.http_get(fqdn, url, resp_bytes)
            assert list(nap2._exchanges.values()) == [resp_bytes]
            return
        with pytest.raises(ValueError, match="HTTP get needs"):
            nap1.http_get(fqdn, url, resp_bytes)
        assert nap1._gets == {} and env.emissions == []
        assert [op for op, client, _ in env.control_log if client == 1] == []
        if fqdn and url:
            nap1.http_get(fqdn, url, 10)
            with pytest.raises(ValueError, match="HTTP get needs"):
                nap1.http_get(fqdn, url, resp_bytes)
            env.advance(nap2.window_us + 1)
            assert [client for client, _ in env.http_completions] == [1]

    @pytest.mark.parametrize("fqdn, url", [
        ("cdn.example", "/v/1"), ("\u00fcn\u00ef.example", "/vid\u00e9o/\u2603"),
        ("", "/v/1"), ("cdn.example", "")], ids=["ascii", "non-ascii", "no-fqdn", "no-url"])
    @pytest.mark.parametrize("resp_bytes", [-1, 0, MAX_RESPONSE_BYTES, MAX_RESPONSE_BYTES + 1])
    @pytest.mark.parametrize("client", [-1, 0, MAX_CLIENT_ID, MAX_CLIENT_ID + 1])
    def test_a_carried_request_reads_back_as_its_fields(self, client, resp_bytes, fqdn, url):
        """The carrier checks only its fields' types, so any ints and strs, in
        range or not, make a request whose size is its encoding's and whose
        JSON reads back as the fields."""
        carried = gateways._HttpRequest(client, fqdn, url, resp_bytes)
        encoded = bytes(carried)
        assert len(carried) == len(encoded)
        assert json.loads(encoded) == {"client": client, "fqdn": fqdn,
                                       "resp_bytes": resp_bytes, "url": url}

    @pytest.mark.parametrize("fqdn, url, resp_bytes, error", [
        ("cdn.example", "/v/1", "lots", TypeError),
        ("cdn.example", "/v/1", None, TypeError),
        ("", "/v/1", 10, ValueError),
        (5, "/v/1", 10, TypeError),
        (b"cdn.example", "/v/1", 10, TypeError),
        ("cdn.example", "", 10, ValueError),
        ("cdn.example", None, 10, TypeError),
        ("cdn.example", b"/v/1", 10, TypeError),
        ("cdn.example", "/v/1", -5, ValueError),
        ("cdn.example", "/v/1", 10**9, ValueError),
        ("cdn.example", "/v/1", MAX_RESPONSE_BYTES + 1, ValueError),
        ("cdn.example", "/v/1", 1e9, TypeError),
        ("cdn.example", "/v/1", 1e3, TypeError),
        ("cdn.example", "/v/1", "7", TypeError),
        ("cdn.example", "/v/1", True, TypeError),
        ("cdn.example", "/v/1", 1.5, TypeError),
    ], ids=["resp_bytes-text", "resp_bytes-null", "fqdn-empty", "fqdn-number", "fqdn-bytes",
            "url-empty", "url-null", "url-bytes", "resp_bytes-negative", "resp_bytes-1GB",
            "resp_bytes-too-large", "resp_bytes-float-1e9", "resp_bytes-1e3",
            "resp_bytes-string-digits", "resp_bytes-true", "resp_bytes-fraction"])
    def test_a_malformed_fetch_raises_and_keeps_no_state(
            self, env, nap1, nap2, fqdn, url, resp_bytes, error):
        """Each field a server could once have been sent malformed is now
        refused where the fetch is made: nothing is published, subscribed or
        kept, and a well-formed fetch of the URL then completes."""
        nap2.http_serve("cdn.example")
        with pytest.raises(error):
            nap1.http_get(fqdn, url, resp_bytes)
        assert nap1._gets == {} and env.emissions == [] and nap2._exchanges == {}
        assert [op for op, client, _ in env.control_log if client == 1] == []
        nap1.http_get("cdn.example", "/v/1", 10)
        env.advance(nap2.window_us + 1)
        assert env.http_completions == [
            (1, HttpResponse("cdn.example", "/v/1", gateways.synth_bytes("cdn.example/v/1", 10)))]

    @pytest.mark.parametrize("tag", ["cdn.example/v/1", "\u00fcn\u00ef.example/vid\u00e9o"])
    @pytest.mark.parametrize("total", [0, 10, SEGMENT_CHUNK, 2 * SEGMENT_CHUNK + 5],
                             ids=["empty", "short", "one-full", "partial-last"])
    def test_a_carried_segment_reads_as_its_frame_and_filler(self, total, tag):
        segments = [gateways._Segment(offset, total, tag, length)
                    for offset, length in body_segments(total)]
        for seg in segments:
            assert len(seg) == 16 + seg.length
            assert bytes(seg) == (struct.pack(">QQ", seg.offset, total)
                                  + gateways.synth_bytes(tag, seg.length, seg.offset))
        assert b"".join([bytes(seg)[16:] for seg in segments]) == gateways.synth_bytes(tag, total)

    def test_a_server_publishes_carriers_of_the_encoded_sizes(self, env, nap1, nap2):
        size = 2 * SEGMENT_CHUNK + 5
        nap2.http_serve("cdn.example")
        nap1.http_get("cdn.example", "/v/1", size)
        env.advance(nap2.window_us + 1)
        request, *segments = [pkt.payload for _, pkt in env.emissions]
        assert type(request) is gateways._HttpRequest
        assert len(request) == len(encode_http_request(1, "cdn.example", "/v/1", size))
        assert [type(seg) for seg in segments] == [gateways._Segment] * 3
        assert [len(seg) for seg in segments] == [16 + SEGMENT_CHUNK] * 2 + [16 + 5]
        assert env.http_completions == [
            (1, HttpResponse("cdn.example", "/v/1", gateways.synth_bytes("cdn.example/v/1", size)))]

    def test_a_response_of_carried_segments_makes_its_chunks_when_read(
            self, env, nap1, nap2, monkeypatch):
        """Each requester is handed the segments out of order and one of them
        twice. Their chunks are made only when a body is read."""
        fqdn, url, size = "cdn.example", "/v/1", 2 * SEGMENT_CHUNK + 5
        resp_name = name_for_http(fqdn, HttpRole.RESPONSE, url)
        segments = [gateways._Segment(offset, size, f"{fqdn}{url}", length)
                    for offset, length in body_segments(size)]
        for nap in (nap1, nap2):
            nap.http_get(fqdn, url, size)
        made, synth = [0], gateways.synth_bytes

        def counting(*args):
            made[0] += 1
            return synth(*args)

        monkeypatch.setattr(gateways, "synth_bytes", counting)
        for seg in (segments[2], segments[0], segments[2], segments[1]):
            for nap in (nap1, nap2):
                nap.on_icn_data(IcnPacket(0, resp_name, seg))
        assert made == [0]
        (_, first), (_, second) = env.http_completions
        assert first == second == HttpResponse(fqdn, url, synth(f"{fqdn}{url}", size))
        assert made == [6] and type(first.body) is bytes and first.body is first.body
        assert [nap.counters for nap in (nap1, nap2)] == [{"duplicates": 1}] * 2

    @pytest.mark.parametrize("copy_of", [
        copy.deepcopy, lambda pkt: pickle.loads(pickle.dumps(pkt))], ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("kind", range(3), ids=["encapsulation", "request", "segment"])
    def test_a_packet_of_each_payload_kind_survives_copy_and_pickle(self, copy_of, kind):
        payload = carried_payloads()[kind]
        pkt = IcnPacket(1, name_for_http("cdn.example", HttpRole.RESPONSE, "/v/1"), payload)
        back = copy_of(pkt)
        assert type(back.payload) is type(payload) and back.wire_size == pkt.wire_size
        assert len(back.payload) == len(payload) and bytes(back.payload) == bytes(payload)
