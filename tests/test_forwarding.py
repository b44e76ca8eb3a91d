"""Link masks, the forwarding decision and the packet codec."""

import copy
import ipaddress
import math
import pickle
import random

import pytest

from conftest import flood, make_topology_doc
from ipicn.forwarding import (
    DEFAULT_TTL,
    FID_BITS,
    LID_SET_BITS,
    MAX_PAYLOAD,
    IcnPacket,
    decode_packet,
    encode_packet,
    forward,
    gen_lid,
    lid_matches,
)
from ipicn.gateways import IP_HEADER_SIZE, IpPacket, _Encapsulated
from ipicn.names import IcnName


class TestGenLid:
    def test_popcount_always_five(self):
        rng = random.Random(3)
        for _ in range(2000):
            assert gen_lid(rng).bit_count() == LID_SET_BITS

    def test_deterministic_per_seed(self):
        a = [gen_lid(random.Random(99)) for _ in range(50)]
        b = [gen_lid(random.Random(99)) for _ in range(50)]
        assert a == b

    def test_same_masks_as_random_sample(self):
        # the masks every report depends on: one per sampled 5-subset
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(500):
                expected = sum(1 << p for p in ref.sample(range(FID_BITS), LID_SET_BITS))
                assert gen_lid(rng) == expected
            assert rng.random() == ref.random()  # same generator state after

    def test_per_bit_frequency_within_three_sigma(self):
        # each draw sets any given bit with p = 5/256; over n draws the
        # per-bit count is Binomial(n, p); seed chosen so all 256 bits sit
        # inside the band (a random seed leaves ~0.7 bits outside)
        n = 10_000
        rng = random.Random(3)
        counts = [0] * FID_BITS
        for _ in range(n):
            lid = gen_lid(rng)
            for bit in range(FID_BITS):
                if lid >> bit & 1:
                    counts[bit] += 1
        p = LID_SET_BITS / FID_BITS
        mean = n * p
        sigma = math.sqrt(n * p * (1 - p))
        assert all(abs(c - mean) <= 3 * sigma for c in counts)


class TestLidMatches:
    def test_zero_fid_never_matches(self):
        rng = random.Random(5)
        for _ in range(100):
            assert not lid_matches(0, gen_lid(rng))

    def test_lid_matches_itself(self):
        rng = random.Random(6)
        for _ in range(100):
            lid = gen_lid(rng)
            assert lid_matches(lid, lid)

    def test_or_of_tree_lids_matches_each(self):
        rng = random.Random(7)
        for _ in range(200):
            lids = [gen_lid(rng) for _ in range(rng.randint(1, 8))]
            fid = 0
            for lid in lids:
                fid |= lid
            assert all(lid_matches(fid, lid) for lid in lids)


@pytest.fixture
def line_graph():
    doc = make_topology_doc([1, 2, 3], [(1, 2), (2, 3)], seed=4)
    return doc.graph


class TestForward:
    def test_zero_fid_forwards_nowhere(self, line_graph):
        pkt = IcnPacket(fid=0, name=IcnName((1,)))
        for node in line_graph.nodes:
            assert forward(line_graph, node, pkt) == []

    def test_line_path_never_reverses(self, line_graph):
        fid = line_graph.link(1, 2).lid | line_graph.link(2, 3).lid
        pkt = IcnPacket(fid=fid, name=IcnName((1,)))
        at_b = forward(line_graph, 2, pkt, in_link=line_graph.link(1, 2))
        assert [(l.src, l.dst) for l in at_b] == [(2, 3)]

    def test_ttl_one_drops(self, line_graph):
        fid = line_graph.link(1, 2).lid
        pkt = IcnPacket(fid=fid, name=IcnName((1,)), ttl=1)
        assert forward(line_graph, 1, pkt) == []

    def test_in_link_must_end_at_node(self, line_graph):
        pkt = IcnPacket(fid=0, name=IcnName((1,)))
        with pytest.raises(ValueError):
            forward(line_graph, 1, pkt, in_link=line_graph.link(1, 2))

    def test_all_ones_fid_bounded_by_ttl(self):
        # ring of 5: an adversarial fid matches every link, but copies die
        # after at most ttl traversals and never double back
        doc = make_topology_doc(
            [1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], seed=8
        )
        g = doc.graph
        pkt = IcnPacket(fid=(1 << FID_BITS) - 1, name=IcnName((1,)), ttl=32)
        arrivals, traversals = flood(g, 1, pkt)
        # two initial copies (one per direction), each chain <= 31 hops
        assert len(traversals) <= 2 * 32
        assert max(arrivals.values()) <= 2 * 32

    def test_delivery_completeness_on_random_trees(self):
        from ipicn.topology import fid_for_tree, shortest_path_tree
        from conftest import random_connected_graph

        rng = random.Random(17)
        for trial in range(30):
            nodes, pairs = random_connected_graph(rng, 12, 8)
            doc = make_topology_doc(nodes, pairs, seed=1000 + trial)
            g = doc.graph
            root = rng.choice(nodes)
            leaves = set(rng.sample(nodes, 3)) - {root}
            tree = shortest_path_tree(g, root, leaves)
            pkt = IcnPacket(fid=fid_for_tree(g, tree), name=IcnName((1,)))
            arrivals, _ = flood(g, root, pkt)
            for leaf in leaves:
                assert arrivals.get(leaf, 0) >= 1


class TestCodec:
    def test_minimal_packet_is_46_bytes(self):
        # 32 fid + 1 ttl + 1 reserved + 1 depth + 1 flag + 2 length = 38,
        # plus one 8-byte path element
        pkt = IcnPacket(fid=0, name=IcnName((0xAB,)))
        buf = encode_packet(pkt)
        assert len(buf) == 46
        assert pkt.wire_size == 46

    def test_round_trip_random_packets(self):
        rng = random.Random(19)
        for _ in range(500):
            depth = rng.randint(1, 16)
            nm = IcnName(
                tuple(rng.getrandbits(64) for _ in range(depth)),
                rng.getrandbits(64) if rng.random() < 0.5 else None,
            )
            pkt = IcnPacket(
                fid=rng.getrandbits(256),
                name=nm,
                payload=rng.randbytes(rng.randint(0, 300)),
                ttl=rng.randint(1, 255),
            )
            buf = encode_packet(pkt)
            assert len(buf) == pkt.wire_size
            assert decode_packet(buf) == pkt

    def test_truncated_buffers_rejected(self):
        pkt = IcnPacket(fid=3, name=IcnName((1, 2), 3), payload=b"xyz")
        buf = encode_packet(pkt)
        for cut in (0, 10, 36, len(buf) - 1):
            with pytest.raises(ValueError):
                decode_packet(buf[:cut])

    def test_trailing_bytes_rejected(self):
        buf = encode_packet(IcnPacket(fid=0, name=IcnName((1,))))
        with pytest.raises(ValueError):
            decode_packet(buf + b"\x00")

    def test_reserved_byte_must_be_zero(self):
        # offset 33 once held a packet kind; only data packets exist now
        buf = bytearray(encode_packet(IcnPacket(fid=0, name=IcnName((1,)), payload=b"p")))
        assert buf[33] == 0
        assert decode_packet(bytes(buf)) == IcnPacket(fid=0, name=IcnName((1,)), payload=b"p")
        for value in range(1, 256):
            buf[33] = value
            with pytest.raises(ValueError, match="unknown packet kind"):
                decode_packet(bytes(buf))

    def test_bad_depth_rejected(self):
        buf = bytearray(encode_packet(IcnPacket(fid=0, name=IcnName((1,)))))
        buf[34] = 17  # depth field
        with pytest.raises(ValueError):
            decode_packet(bytes(buf))
        buf[34] = 0
        with pytest.raises(ValueError):
            decode_packet(bytes(buf))

    def test_payload_cap_enforced(self):
        with pytest.raises(ValueError):
            IcnPacket(fid=0, name=IcnName((1,)), payload=b"x" * 65536)


class TestIcnPacketValue:
    NAME = IcnName((1, 2), 3)

    def test_fields_cannot_be_assigned(self):
        pkt = IcnPacket(5, self.NAME, b"ab")
        for field in ("fid", "name", "payload", "ttl", "wire_size", "other"):
            with pytest.raises(AttributeError):
                setattr(pkt, field, 0)

    def test_both_forms_and_the_defaults_build_one_value(self):
        pkt = IcnPacket(fid=5, name=self.NAME)
        assert (pkt.fid, pkt.name, pkt.payload, pkt.ttl) == (5, self.NAME, b"", DEFAULT_TTL)
        assert pkt == IcnPacket(5, self.NAME, b"", DEFAULT_TTL)

    def test_equality_hash_and_repr_go_by_the_four_fields(self):
        pkt = IcnPacket(5, self.NAME, b"ab", 7)
        same = IcnPacket(fid=5, name=IcnName((1, 2), 3), payload=b"ab", ttl=7)
        assert pkt == same and not pkt != same and hash(pkt) == hash(same)
        assert hash(pkt) == hash((5, self.NAME, b"ab", 7))
        assert repr(pkt) == repr(same) == (
            "IcnPacket(fid=5, name=IcnName(scopes=(1, 2), item=3), payload=b'ab', ttl=7)")
        for other in (IcnPacket(6, self.NAME, b"ab", 7), IcnPacket(5, IcnName((1, 2)), b"ab", 7),
                      IcnPacket(5, self.NAME, b"aB", 7), IcnPacket(5, self.NAME, b"ab", 8)):
            assert pkt != other and not pkt == other

    def test_copies_and_pickles_are_equal_values(self):
        pkt = IcnPacket(5, self.NAME, b"ab", 7)
        for copied in (copy.copy(pkt), copy.deepcopy(pkt), pickle.loads(pickle.dumps(pkt))):
            assert type(copied) is IcnPacket and copied == pkt and copied.wire_size == pkt.wire_size

    def test_never_equal_to_a_plain_tuple(self):
        pkt = IcnPacket(5, self.NAME, b"ab", 7)
        for storage in (tuple(pkt), tuple(pkt)[:4]):
            assert pkt != storage and storage != pkt and not pkt == storage

    @pytest.mark.parametrize("fields, match", [
        ((-1, NAME), "256-bit"),
        ((1 << FID_BITS, NAME), "256-bit"),
        ((0, NAME, b"", 0), "ttl"),
        ((0, NAME, b"", 256), "ttl"),
        ((0, NAME, bytes(MAX_PAYLOAD + 1)), "longer than"),
    ], ids=["fid-negative", "fid-wide", "ttl-0", "ttl-256", "payload"])
    def test_each_range_check_raises(self, fields, match):
        with pytest.raises(ValueError, match=match):
            IcnPacket(*fields)

    def test_the_range_edges_are_accepted(self):
        for fields in ((0, self.NAME, b"", 1), ((1 << FID_BITS) - 1, self.NAME, b"", 255),
                       (0, self.NAME, bytes(MAX_PAYLOAD), DEFAULT_TTL)):
            pkt = IcnPacket(*fields)
            assert (pkt.fid, pkt.name, pkt.payload, pkt.ttl) == fields

    @pytest.mark.parametrize("name", [IcnName((1,)), IcnName((1, 2), 3),
                                      IcnName(tuple(range(16)))], ids=["scope", "item", "deep"])
    @pytest.mark.parametrize("size", [0, 1, 1400])
    def test_wire_size_is_the_encoded_length(self, name, size):
        pkt = IcnPacket(7, name, bytes(size))
        assert pkt.wire_size == len(encode_packet(pkt))

    @pytest.mark.parametrize("size", [0, 5, 1400])
    def test_an_encapsulation_is_sized_without_building_its_payload(self, size):
        reads = []
        src, dst = ipaddress.IPv4Address("10.0.1.5"), ipaddress.IPv4Address("10.0.2.9")
        ip = IpPacket.of_size(src, dst, 17, 1, size, lambda pkt: reads.append(pkt) or bytes(size))
        pkt = IcnPacket(7, self.NAME, _Encapsulated(ip))
        overhead = IcnPacket(7, self.NAME).wire_size  # the header and the name's elements
        assert pkt.wire_size == overhead + IP_HEADER_SIZE + size
        assert reads == []
        assert pkt.wire_size == len(encode_packet(pkt)) and reads == [ip]
