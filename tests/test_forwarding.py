"""Link masks, the forwarding decision and the packet codec."""

import math
import random

import pytest

from conftest import flood, make_topology_doc
from ipicn.forwarding import (
    FID_BITS,
    LID_SET_BITS,
    IcnPacket,
    decode_packet,
    encode_packet,
    forward,
    gen_lid,
    lid_matches,
)
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
