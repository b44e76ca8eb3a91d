"""Stateless mask-inclusion forwarding and the packet wire format.

Every directed link owns a sparse 256-bit mask; a forwarding identifier is
the OR of the masks along a delivery tree. A node forwards a packet on
exactly the outgoing links whose mask is contained in the packet's
identifier, so multicast needs no per-node state. TTL bounds the loops that
mask false positives can otherwise produce.

A packet is an immutable tuple-based value, as cheap to build as a tuple.
It carries its wire size, reckoned once when it is built by `wire_size`,
the one formula control messages are sized by too, without building them.
"""

from __future__ import annotations

import random
import struct
from operator import itemgetter
from typing import TYPE_CHECKING

from .names import MAX_DEPTH, IcnName

if TYPE_CHECKING:
    from .topology import Link, NetworkGraph

FID_BITS = 256
LID_SET_BITS = 5
DEFAULT_TTL = 32
MAX_PAYLOAD = 65535

# fid 32 | ttl 1 | reserved 1 (0) | depth 1 | item-flag 1 | elements 8 each | len 2
_FIXED_OVERHEAD = 32 + 4 + 2


class IcnPacket(tuple):
    """On-wire data unit: forwarding id, name, opaque payload (`bytes`, or a
    value whose `len()` and `bytes()` are those bytes) and TTL. An immutable
    value, equal to another, hashed and shown by (fid, name, payload, ttl),
    and never equal to a plain tuple. It is the tuple of those fields and
    `wire_size`, the packet's bytes on the wire, reckoned once by
    `wire_size()` when the packet is built."""

    __slots__ = ()
    fid: int
    name: IcnName
    payload: bytes
    ttl: int
    wire_size: int

    def __new__(cls, fid: int, name: IcnName, payload: bytes = b"",
                ttl: int = DEFAULT_TTL) -> IcnPacket:
        if not 0 <= fid < (1 << FID_BITS):
            raise ValueError("forwarding id out of 256-bit range")
        if not 1 <= ttl <= 255:
            raise ValueError(f"ttl out of range: {ttl}")
        size = len(payload)
        if size > MAX_PAYLOAD:
            raise ValueError(f"payload longer than {MAX_PAYLOAD} bytes")
        return tuple.__new__(cls, (fid, name, payload, ttl, wire_size(name, size)))

    fid = property(itemgetter(0))
    name = property(itemgetter(1))
    payload = property(itemgetter(2))
    ttl = property(itemgetter(3))
    wire_size = property(itemgetter(4))

    # never equal to a plain tuple, either way round: a tuple subclass's
    # comparisons are tried first
    def __eq__(self, other: object) -> bool:
        return type(other) is IcnPacket and self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    def __repr__(self) -> str:
        return "IcnPacket(fid=%r, name=%r, payload=%r, ttl=%r)" % self[:4]

    def __getnewargs__(self) -> tuple:
        """The constructor's arguments, by which copy and pickle rebuild it."""
        return self[:4]


def wire_size(name: IcnName, payload_len: int) -> int:
    """Bytes on the wire of a packet under `name` with a `payload_len`-byte
    payload: every `IcnPacket`'s `wire_size`, and the size of each control
    message, which is never built."""
    elems = len(name.scopes) if name.item is None else len(name.scopes) + 1
    return _FIXED_OVERHEAD + 8 * elems + payload_len


def gen_lid(rng: random.Random) -> int:
    """Draw a link identifier: a uniform 5-subset of the 256 bit positions.

    Each position is redrawn from `getrandbits` until it is in range and
    not yet set, which consumes the generator exactly as
    `rng.sample(range(FID_BITS), LID_SET_BITS)` does, at a third of its cost.
    """
    draw, width = rng.getrandbits, FID_BITS.bit_length()
    mask = 0
    for _ in range(LID_SET_BITS):
        pos = draw(width)
        while pos >= FID_BITS or mask >> pos & 1:
            pos = draw(width)
        mask |= 1 << pos
    return mask


def lid_matches(fid: int, lid: int) -> bool:
    """Mask-inclusion test: all of the link's bits are set in the fid."""
    return fid & lid == lid


def forward(
    g: "NetworkGraph", node: int, pkt: IcnPacket, in_link: "Link | None" = None
) -> list["Link"]:
    """Outgoing links a packet copy leaves `node` on.

    Matches every outgoing link mask against the packet fid, never returns
    the reverse of the arrival link, and returns nothing once the TTL is
    spent. Emitted copies must carry ttl - 1.
    """
    if in_link is not None and in_link.dst != node:
        raise ValueError("arrival link does not terminate at this node")
    if pkt.ttl <= 1:
        return []
    out = []
    for link in g.out_links(node):
        if in_link is not None and link.dst == in_link.src:
            continue
        if lid_matches(pkt.fid, link.lid):
            out.append(link)
    return out


def encode_packet(pkt: IcnPacket) -> bytes:
    """Serialize to the big-endian wire layout."""
    name = pkt.name
    elems = name.scopes if name.item is None else (*name.scopes, name.item)
    return b"".join((
        pkt.fid.to_bytes(32, "big"),
        struct.pack(">BBBB", pkt.ttl, 0, len(name.scopes), 1 if name.is_item else 0),
        struct.pack(f">{len(elems)}Q", *elems),
        struct.pack(">H", len(pkt.payload)),
        bytes(pkt.payload),
    ))


def decode_packet(buf: bytes) -> IcnPacket:
    """Parse the wire layout; rejects truncation, a non-zero reserved byte,
    bad depth and bad length."""
    if len(buf) < _FIXED_OVERHEAD + 8:
        raise ValueError("buffer shorter than minimal packet")
    fid = int.from_bytes(buf[:32], "big")
    ttl, reserved, depth, item_flag = struct.unpack(">BBBB", buf[32:36])
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"name depth out of range: {depth}")
    if item_flag not in (0, 1):
        raise ValueError(f"bad item flag: {item_flag}")
    if reserved:
        raise ValueError(f"unknown packet kind: {reserved}")
    n_elems = depth + item_flag
    pos = 36
    if len(buf) < pos + 8 * n_elems + 2:
        raise ValueError("buffer truncated in name elements")
    elems = struct.unpack_from(f">{n_elems}Q", buf, pos)
    pos += 8 * n_elems
    (plen,) = struct.unpack(">H", buf[pos : pos + 2])
    pos += 2
    if len(buf) != pos + plen:
        raise ValueError("payload length mismatch")
    name = IcnName(elems[:depth], elems[depth] if item_flag else None)
    return IcnPacket(fid=fid, name=name, payload=buf[pos:], ttl=ttl)
