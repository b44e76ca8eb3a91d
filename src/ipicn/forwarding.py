"""Stateless mask-inclusion forwarding and the packet wire format.

Every directed link owns a sparse 256-bit mask; a forwarding identifier is
the OR of the masks along a delivery tree. A node forwards a packet on
exactly the outgoing links whose mask is contained in the packet's
identifier, so multicast needs no per-node state. TTL bounds the loops that
mask false positives can otherwise produce.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .names import MAX_DEPTH, IcnName, NsId

if TYPE_CHECKING:
    from .topology import Link, NetworkGraph

FID_BITS = 256
LID_SET_BITS = 5
DEFAULT_TTL = 32
MAX_PAYLOAD = 65535

# fid 32 | ttl 1 | kind 1 | depth 1 | item-flag 1 | elements 8 each | len 2
_FIXED_OVERHEAD = 32 + 4 + 2


class PacketKind(enum.IntEnum):
    DATA = 0
    CTRL_PR = 1  # availability publication towards the rendezvous
    CTRL_RT = 2  # rendezvous instructing the topology manager
    CTRL_TP = 3  # forwarding identifier delivery to a publisher
    CTRL_SR = 4  # subscription towards the rendezvous


@dataclass(frozen=True)
class IcnPacket:
    """On-wire unit: forwarding id, TTL, kind, name, opaque payload."""

    fid: int
    kind: PacketKind
    name: IcnName
    payload: bytes = b""
    ttl: int = DEFAULT_TTL

    def __post_init__(self) -> None:
        if not 0 <= self.fid < (1 << FID_BITS):
            raise ValueError("forwarding id out of 256-bit range")
        if not 1 <= self.ttl <= 255:
            raise ValueError(f"ttl out of range: {self.ttl}")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload longer than {MAX_PAYLOAD} bytes")

    @property
    def wire_size(self) -> int:
        elems = len(self.name.scopes) + (1 if self.name.is_item else 0)
        return _FIXED_OVERHEAD + 8 * elems + len(self.payload)


def gen_lid(rng: random.Random) -> int:
    """Draw a link identifier: a uniform 5-subset of the 256 bit positions."""
    mask = 0
    for pos in rng.sample(range(FID_BITS), LID_SET_BITS):
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
    elems = list(name.scopes) + ([name.item] if name.item is not None else [])
    parts = [
        pkt.fid.to_bytes(32, "big"),
        struct.pack(
            ">BBBB", pkt.ttl, pkt.kind, len(name.scopes), 1 if name.is_item else 0
        ),
    ]
    parts.extend(e.value.to_bytes(8, "big") for e in elems)
    parts.append(struct.pack(">H", len(pkt.payload)))
    parts.append(pkt.payload)
    return b"".join(parts)


def decode_packet(buf: bytes) -> IcnPacket:
    """Parse the wire layout; rejects truncation, bad depth and bad length."""
    if len(buf) < _FIXED_OVERHEAD + 8:
        raise ValueError("buffer shorter than minimal packet")
    fid = int.from_bytes(buf[:32], "big")
    ttl, kind_raw, depth, item_flag = struct.unpack(">BBBB", buf[32:36])
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"name depth out of range: {depth}")
    if item_flag not in (0, 1):
        raise ValueError(f"bad item flag: {item_flag}")
    try:
        kind = PacketKind(kind_raw)
    except ValueError:
        raise ValueError(f"unknown packet kind: {kind_raw}") from None
    n_elems = depth + item_flag
    pos = 36
    if len(buf) < pos + 8 * n_elems + 2:
        raise ValueError("buffer truncated in name elements")
    elems = [
        NsId(int.from_bytes(buf[pos + 8 * i : pos + 8 * (i + 1)], "big"))
        for i in range(n_elems)
    ]
    pos += 8 * n_elems
    (plen,) = struct.unpack(">H", buf[pos : pos + 2])
    pos += 2
    if len(buf) != pos + plen:
        raise ValueError("payload length mismatch")
    name = IcnName(
        scopes=tuple(elems[:depth]), item=elems[depth] if item_flag else None
    )
    return IcnPacket(fid=fid, kind=kind, name=name, payload=buf[pos:], ttl=ttl)
