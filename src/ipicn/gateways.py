"""Network attachment points and the border gateway.

A NAP is the ICN client serving legacy IP devices: it subscribes to the
names of its assigned addresses, encapsulates outgoing IP packets under
the matching destination name, buffers them until a forwarding identifier
arrives, and decapsulates inbound data back to plain IP. The HTTP handler
keeps the unicast request/response abstraction while coalescing concurrent
requests for one URL into a single multicast response delivery.

The border gateway relays between the ICN domain and external IP peers:
it holds a standing subscription to the external scope and encapsulates
ingress traffic under internal names.

Every gateway of a simulation shares one `AddressPlan`, which also names
each destination once, the first time a packet is sent to it.

Devices only ever see IpPacket and HttpResponse values; no ICN type
crosses the device boundary. A payload a gateway publishes carries its
message as a value whose `len()` and `bytes()` are those of the message's
encoding, built only if read: an encapsulation carries the sent IpPacket,
an HTTP request its four fields and a response segment its frame and the
place of its filler in the body. The far gateway takes that value as it
is and parses nothing; `decode_ip_packet` is only the codec inverse of
`encode_ip_packet`. A request is checked where it is made (`Nap.http_get`),
so a server reads its fields as they are, and `corrupt` counts only a
response segment whose total differs from its fetch's first segment's,
one of another exchange of the URL. A gateway's `on_icn_data` says
whether a data copy is its own, and its `may_take` whether a copy under
a name could ever be: the environment hands a copy only to gateways that
may take it, and counts the refusals and the gateways it skips.
Gateways only report, keeping no copy: each IP arrival for their own
address or scope, duplicates included, goes to `note_ip_delivered` or
`note_peer_emitted`, each dropped packet (a full pending queue, an
ingress address outside the operator's plan) to `note_ip_dropped`, and
each completed HTTP response to `note_http_complete`. A response holds
the fetch's segments as they arrived; its body is made and joined only
when a device first reads it.
"""

from __future__ import annotations

import functools
import ipaddress
import struct
from collections import Counter, deque
from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .forwarding import DEFAULT_TTL, IcnPacket
from .names import (
    ROOT_HTTP,
    ROOT_IP,
    HttpRole,
    IcnName,
    Locality,
    external_scope,
    http_request_scope,
    name_for_http,
    name_for_ip,
)
from .rendezvous import ClientId
from .topology import MAX_CLIENT_ID, FidDelivery, brief

MAX_IP_PAYLOAD = 65507
PENDING_CAPACITY = 64
DEFAULT_WINDOW_US = 100_000
MAX_RESPONSE_BYTES = 1 << 24  # largest HTTP body a fetch may ask for: 257 segments

# HTTP bodies travel as framed segments: offset u64 | total u64 | chunk.
_SEGMENT_FRAME = struct.Struct(">QQ")
SEGMENT_CHUNK = MAX_IP_PAYLOAD

_REQUEST = HttpRole.REQUEST.value
_EXTERNAL_SCOPES = external_scope().scopes  # the first two scopes of every external name
_INTERNAL_SCOPES = (ROOT_IP, Locality.INTERNAL.value)  # and of every internal one

_IP_HEADER = struct.Struct(">4s4sBQ")
IP_HEADER_SIZE = _IP_HEADER.size  # encapsulation bytes added to each IP payload

# decoded header address: 4 packed bytes -> one shared IPv4Address, for at
# most this many distinct addresses
_address = functools.lru_cache(maxsize=4096)(ipaddress.IPv4Address)


def check_window(window_us: object) -> int:
    """`window_us` if it is an HTTP coalescing window, a non-negative int; else ValueError."""
    if type(window_us) is not int or window_us < 0:
        raise ValueError(f"HTTP window must not be negative or a non-int, got {brief(window_us)}")
    return window_us


class IpPacket(tuple):
    """A plain IP datagram as seen by devices and peers: an immutable
    value, equal to another, hashed and shown by (src, dst, proto, id,
    payload). It is the tuple of those fields with `size`, the payload's
    length, before the payload, so `size` reads without building a payload
    that `of_size` left to a maker."""

    __slots__ = ()
    src: ipaddress.IPv4Address
    dst: ipaddress.IPv4Address
    proto: int
    id: int
    size: int
    payload: bytes

    def __new__(cls, src: ipaddress.IPv4Address, dst: ipaddress.IPv4Address, proto: int,
                id: int, payload: bytes) -> IpPacket:
        return cls.of_size(src, dst, proto, id, len(payload), payload)

    @classmethod
    def of_size(cls, src: ipaddress.IPv4Address, dst: ipaddress.IPv4Address, proto: int,
                id: int, size: int, payload: bytes | Callable[[IpPacket], bytes]) -> IpPacket:
        """A packet with a `size`-byte payload: `payload`, or what that
        maker returns for the packet, made anew at each read."""
        if size > MAX_IP_PAYLOAD:
            raise ValueError(f"IP payload longer than {MAX_IP_PAYLOAD}")
        return tuple.__new__(cls, (src, dst, proto, id, size, payload))

    src = property(itemgetter(0))
    dst = property(itemgetter(1))
    proto = property(itemgetter(2))
    id = property(itemgetter(3))
    size = property(itemgetter(4))

    @property
    def payload(self) -> bytes:
        payload = self[5]
        return payload(self) if callable(payload) else payload

    def _key(self) -> tuple:
        return (*self[:4], self.payload)

    # never equal to a plain tuple, either way round: a tuple subclass's
    # comparisons are tried first
    def __eq__(self, other: object) -> bool:
        return (type(other) is IpPacket and self[:5] == other[:5]
                and self.payload == other.payload)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "IpPacket(src=%r, dst=%r, proto=%r, id=%r, payload=%r)" % self._key()

    def __getnewargs__(self) -> tuple:
        """The constructor's arguments, by which copy and pickle rebuild an
        equal packet; a payload left to a maker is built."""
        return self._key()


class HttpResponse:
    """A completed HTTP exchange as seen by the requesting device, equal to
    another by (fqdn, url, body).

    A NAP hands over the fetch's segments as they arrived, uncopied; `body`
    makes each segment's chunk and joins the chunks into one `bytes` on its
    first read and keeps that, so a run that reads no body makes and joins
    none.
    """

    __slots__ = ("fqdn", "url", "_body")
    fqdn: str
    url: str

    def __init__(self, fqdn: str, url: str, body: bytes) -> None:
        self.fqdn = fqdn
        self.url = url
        self._body: bytes | dict[int, _Segment] = body

    @classmethod
    def _of_segments(cls, fqdn: str, url: str, segments: dict[int, _Segment]) -> HttpResponse:
        """A response whose body is the chunks of `segments` (offset ->
        segment) joined."""
        response = cls(fqdn, url, b"")
        response._body = segments
        return response

    @property
    def body(self) -> bytes:
        body = self._body
        if type(body) is dict:
            segments = [body[offset] for offset in sorted(body)]
            body = self._body = b"".join([
                synth_bytes(s.tag, s.length, s.offset) for s in segments])
        return body

    def __eq__(self, other: object) -> bool:
        if type(other) is not HttpResponse:
            return NotImplemented
        return (self.fqdn, self.url, self.body) == (other.fqdn, other.url, other.body)

    def __hash__(self) -> int:
        return hash((self.fqdn, self.url, self.body))

    def __repr__(self) -> str:
        return f"HttpResponse(fqdn={self.fqdn!r}, url={self.url!r}, body={self.body!r})"


def encode_ip_packet(pkt: IpPacket) -> bytes:
    return _IP_HEADER.pack(pkt.src.packed, pkt.dst.packed, pkt.proto, pkt.id) + pkt.payload


class _Encapsulated:
    """The payload of an IP packet's encapsulation, carrying the packet
    itself: its `len()` and `bytes()` are those of `encode_ip_packet(ip)`,
    which is built only when read."""

    __slots__ = ("ip",)

    def __init__(self, ip: IpPacket) -> None:
        self.ip = ip

    def __len__(self) -> int:
        return IP_HEADER_SIZE + self.ip.size

    def __bytes__(self) -> bytes:
        return encode_ip_packet(self.ip)


class _HttpRequest:
    """The payload of a NAP's HTTP request, carrying its fields: its `len()`
    and `bytes()` are those of `encode_http_request` of them, which is built
    only when read. TypeError if `client` or `resp_bytes` is not an int (a
    bool neither: `json` would write `true` or `1.5`) or `fqdn` or `url` not a str."""

    __slots__ = ("client", "fqdn", "url", "resp_bytes")

    def __init__(self, client: ClientId, fqdn: str, url: str, resp_bytes: int) -> None:
        if not (type(client) is type(resp_bytes) is int and type(fqdn) is type(url) is str):
            raise TypeError(f"HTTP request fields must be ints and strs: {brief(client)}, "
                            f"{brief(fqdn)}, {brief(url)}, {brief(resp_bytes)}")
        self.client = client
        self.fqdn = fqdn
        self.url = url
        self.resp_bytes = resp_bytes

    def __len__(self) -> int:
        return http_request_size(self.client, self.fqdn, self.url, self.resp_bytes)

    def __bytes__(self) -> bytes:
        return ('{"client": %d, "fqdn": %s, "resp_bytes": %d, "url": %s}' % (
            self.client, encode_basestring_ascii(self.fqdn), self.resp_bytes,
            encode_basestring_ascii(self.url))).encode()


def encode_http_request(client: ClientId, fqdn: str, url: str, resp_bytes: int) -> bytes:
    """The request a NAP publishes to fetch `url` from `fqdn`, as `json.dumps(
    request, sort_keys=True)` writes it: ints by their repr, strings by
    `encode_basestring_ascii`. TypeError on a field of another type, as for
    a carried request."""
    return bytes(_HttpRequest(client, fqdn, url, resp_bytes))


# the request of two zeros and two empty strings, less those four fields
_HTTP_REQUEST_FRAME = len(encode_http_request(0, "", "", 0)) - 6


def http_request_size(client: ClientId, fqdn: str, url: str, resp_bytes: int) -> int:
    """`len(encode_http_request(...))` without building the request: the
    fixed JSON frame plus each field as `json` writes it."""
    return (_HTTP_REQUEST_FRAME + len(str(client)) + len(str(resp_bytes))
            + len(encode_basestring_ascii(fqdn)) + len(encode_basestring_ascii(url)))


def decode_ip_packet(buf: bytes) -> IpPacket:
    """The packet `encode_ip_packet` wrote to `buf`, parsed header first.
    ValueError if truncated."""
    if len(buf) < _IP_HEADER.size:
        raise ValueError("truncated IP encapsulation")
    src, dst, proto, pkt_id = _IP_HEADER.unpack_from(buf)
    return IpPacket(
        src=_address(src),
        dst=_address(dst),
        proto=proto,
        id=pkt_id,
        payload=buf[_IP_HEADER.size :],
    )


class AddressPlan:
    """The operator's address plan: which IPv4 addresses are internal. A
    membership test is one set lookup per distinct prefix length.

    The plan also names destinations for every gateway that shares it:
    `name_for` gives and keeps an address's `name_for_ip` name under the
    locality the plan gives it, one entry per distinct address asked about,
    so every later packet to that address takes one lookup, keyed by its
    int: an `IPv4Address` hashes in Python."""

    def __init__(self, prefixes: Iterable[ipaddress.IPv4Network]) -> None:
        by_mask: dict[int, set[int]] = {}
        for p in prefixes:
            by_mask.setdefault(int(p.netmask), set()).add(int(p.network_address))
        self._by_mask = tuple((mask, frozenset(nets)) for mask, nets in by_mask.items())
        self._names: dict[int, IcnName] = {}

    def name_for(self, addr: ipaddress.IPv4Address) -> IcnName:
        """The name packets to `addr` travel under: its internal name if the
        plan holds it, else its external one."""
        value = int(addr)
        name = self._names.get(value)
        if name is None:
            loc = Locality.INTERNAL if value in self else Locality.EXTERNAL
            name = self._names[value] = name_for_ip(addr, loc)
        return name

    def __contains__(self, addr: ipaddress.IPv4Address | int) -> bool:
        value = int(addr)
        for mask, nets in self._by_mask:
            if value & mask in nets:
                return True
        return False


def assign_address(
    addr: ipaddress.IPv4Address | str,
    prefixes: tuple[ipaddress.IPv4Network, ...],
    assigned: Container[int],
) -> ipaddress.IPv4Address:
    """Parse a device address for a NAP: it must lie in the NAP's prefixes
    and its int not be in `assigned` yet. Both modes attach devices by this rule."""
    if not isinstance(addr, ipaddress.IPv4Address):
        addr = ipaddress.IPv4Address(addr)
    if not any(addr in p for p in prefixes):
        raise ValueError(f"{addr} outside this NAP's prefixes")
    if int(addr) in assigned:
        raise ValueError(f"{addr} already assigned")
    return addr


def body_segments(total: int) -> list[tuple[int, int]]:
    """(offset, length) of each segment of a `total`-byte HTTP body; an
    empty body is one empty segment. Both modes split responses by this."""
    return [(o, min(SEGMENT_CHUNK, total - o)) for o in range(0, total, SEGMENT_CHUNK)] or [(0, 0)]


def synth_bytes(tag: str, size: int, offset: int = 0) -> bytes:
    """Deterministic filler content so payload identity is checkable: the
    `size` bytes from `offset` on of `tag|` repeated without end."""
    if size == 0:
        return b""
    pattern = tag.encode() + b"|"
    start = offset % len(pattern)
    return (pattern * ((start + size) // len(pattern) + 1))[start : start + size]


class _Segment:
    """The payload of one segment of a server's response, carrying its frame
    and the place of its chunk in the body: its `len()` and `bytes()` are
    those of the frame and `synth_bytes(tag, length, offset)`, which are
    built only when read."""

    __slots__ = ("offset", "total", "tag", "length")

    def __init__(self, offset: int, total: int, tag: str, length: int) -> None:
        self.offset = offset
        self.total = total
        self.tag = tag
        self.length = length

    def __len__(self) -> int:
        return _SEGMENT_FRAME.size + self.length

    def __bytes__(self) -> bytes:
        return (_SEGMENT_FRAME.pack(self.offset, self.total)
                + synth_bytes(self.tag, self.length, self.offset))


@dataclass
class _GetState:
    fqdn: str
    url: str
    count: int = 1
    buf: dict[int, _Segment] = field(default_factory=dict)
    received: int = 0  # bytes buffered so far
    total: int | None = None  # body size in the first buffered segment's frame


class _IcnClient:
    """Shared publish-side machinery: fid cache, pending buffers, announce.
    A name is published while it has a pending entry: an IP name from its first
    packet on, a one-shot name until its fid arrives, it is flushed and withdrawn.
    ValueError, before any state is kept, for a client id outside
    0..MAX_CLIENT_ID, which a control message could not carry."""

    def __init__(self, env, client: ClientId, node: int) -> None:
        if not 0 <= client <= MAX_CLIENT_ID:
            raise ValueError(f"client id {brief(client)} outside 0..{MAX_CLIENT_ID}")
        self.env = env
        self.client = client
        self.node = node
        self.counters: Counter[str] = Counter()
        self._fids: dict[IcnName, tuple[int, bool]] = {}
        self._pending_ip: dict[IcnName, deque[IpPacket]] = {}
        self._pending_raw: dict[IcnName, list[_HttpRequest | _Segment]] = {}

    def _queue_ip(self, name: IcnName, pkt: IpPacket) -> None:
        queue = self._pending_ip.get(name)
        if queue is None:
            self._pending_ip[name] = deque([pkt], maxlen=PENDING_CAPACITY)
            self.env.publish_availability(self.client, name)
            return
        if len(queue) == PENDING_CAPACITY:
            # deque(maxlen) evicts the oldest entry on append
            self.env.note_ip_dropped(queue[0])
        queue.append(pkt)

    def _publish_once(self, name: IcnName,
                      payloads: Iterable[_HttpRequest | _Segment]) -> None:
        """Publish `payloads` under `name` and withdraw the name once they are
        flushed. Everything is queued before the announce: the availability
        publication can complete the whole fid round trip synchronously,
        flushing the queue on the spot."""
        pending = self._pending_raw.get(name)
        if pending is not None:
            pending.extend(payloads)
            return
        self._pending_raw[name] = list(payloads)
        self.env.publish_availability(self.client, name)

    def _send_encapsulated(self, name: IcnName, pkt: IpPacket) -> None:
        cached = self._fids.get(name)
        if cached is None:
            self._queue_ip(name, pkt)
        else:
            self._emit(name, _Encapsulated(pkt), cached)

    def _emit(self, name: IcnName, payload: _Encapsulated | _HttpRequest | _Segment,
              cached: tuple[int, bool]) -> None:
        fid, local = cached
        pkt = IcnPacket(fid, name, payload, DEFAULT_TTL)
        self.env.transmit(self.client, pkt)
        if local and self.may_take(pkt.name):
            self.on_icn_data(pkt)  # the publisher's own copy: its verdict is not counted

    def on_fid(self, d: FidDelivery) -> None:
        """Cache a delivered forwarding id and flush everything buffered.

        A zero fid without the local flag means no subscribers remain: the
        cache entry goes away and later sends queue again.
        """
        if d.teardown:
            self._fids.pop(d.name, None)
            return
        cached = (d.fid, d.local)
        self._fids[d.name] = cached
        queue = self._pending_ip.get(d.name)
        while queue:
            self._emit(d.name, _Encapsulated(queue.popleft()), cached)
        payloads = self._pending_raw.pop(d.name, None)
        if payloads is not None:
            for payload in payloads:
                self._emit(d.name, payload, cached)
            self.env.unpublish(self.client, d.name)

    def may_take(self, name: IcnName) -> bool:
        """Whether `on_icn_data` could ever take a copy under `name`: False
        only for a name no copy of which it takes in any state."""
        raise NotImplementedError

    def on_icn_data(self, pkt: IcnPacket) -> bool:
        """Take a data copy; False if it is not this gateway's."""
        raise NotImplementedError


class Nap(_IcnClient):
    """Network attachment point for legacy IP devices."""

    def __init__(
        self,
        env,
        client: ClientId,
        node: int,
        prefixes: tuple[ipaddress.IPv4Network, ...],
        operator_plan: AddressPlan,
        window_us: int = DEFAULT_WINDOW_US,
    ) -> None:
        check_window(window_us)
        super().__init__(env, client, node)
        self.window_us = window_us
        self.prefixes = prefixes
        self._inside = AddressPlan(prefixes)  # its own prefixes, for `may_take`
        self.operator_plan = operator_plan
        self.addresses: set[int] = set()  # the ints of its devices' addresses
        # internal name -> attached address, so data under any other name is
        # rejected without reading its payload
        self._device_names: dict[IcnName, ipaddress.IPv4Address] = {}
        self._served: set[int] = set()  # host ids (fqdn hashes) of the FQDNs served here
        # response name -> largest body size asked for in its open window
        self._exchanges: dict[IcnName, int] = {}
        self._gets: dict[IcnName, _GetState] = {}

    # -- device-facing API (IP and HTTP values only) -----------------------

    def attach_device(self, addr: ipaddress.IPv4Address | str) -> None:
        """Assign an address and subscribe to its internal name."""
        addr = assign_address(addr, self.prefixes, self.addresses)
        self.addresses.add(int(addr))
        name = name_for_ip(addr, Locality.INTERNAL)
        self._device_names[name] = addr
        self.env.subscribe(self.client, name)

    def send_ip(self, pkt: IpPacket) -> None:
        """Encapsulate a device packet under its destination's name, as the
        shared address plan names it."""
        if int(pkt.src) not in self.addresses:
            raise ValueError(f"source {pkt.src} not assigned at this NAP")
        self._send_encapsulated(self.operator_plan.name_for(pkt.dst), pkt)

    def http_get(self, fqdn: str, url: str, resp_bytes: int) -> None:
        """Fetch a URL: subscribe to the response, publish the request.
        TypeError if `resp_bytes` is not an int or `fqdn` or `url` not a str,
        ValueError if `fqdn` or `url` is empty or `resp_bytes` outside
        0..MAX_RESPONSE_BYTES; either raises before any state is kept."""
        request = _HttpRequest(self.client, fqdn, url, resp_bytes)
        if not (fqdn and url and 0 <= resp_bytes <= MAX_RESPONSE_BYTES):
            raise ValueError(f"HTTP get needs an fqdn, a url and 0..{MAX_RESPONSE_BYTES} "
                             f"bytes, got {brief(fqdn)}, {brief(url)}, {resp_bytes}")
        resp_name = name_for_http(fqdn, HttpRole.RESPONSE, url)
        state = self._gets.get(resp_name)
        if state is not None:
            # a fetch for this URL is already in flight; share its response
            state.count += 1
            return
        self._gets[resp_name] = _GetState(fqdn=fqdn, url=url)
        self.env.subscribe(self.client, resp_name)
        self._publish_once(name_for_http(fqdn, HttpRole.REQUEST, url), [request])

    def http_serve(self, fqdn: str) -> None:
        """Register as the server for a host: subscribe to its request scope."""
        scope = http_request_scope(fqdn)
        self._served.add(scope.scopes[1])
        self.env.subscribe(self.client, scope)

    # -- ICN-facing handlers ----------------------------------------------

    def may_take(self, name: IcnName) -> bool:
        """True for every HTTP name, as the fetches in flight and the hosts
        served change during a run, and for the internal name of each
        address inside this NAP's prefixes, attached or not."""
        scopes = name.scopes
        if scopes[0] == ROOT_HTTP:
            return True
        if scopes[:2] != _INTERNAL_SCOPES or len(scopes) != 5 or name.item is None:
            return False
        o1, o2, o3 = scopes[2:]
        o4 = name.item
        if o1 | o2 | o3 | o4 > 255:  # no address's octets
            return False
        return (o1 << 24 | o2 << 16 | o3 << 8 | o4) in self._inside

    def on_icn_data(self, pkt: IcnPacket) -> bool:
        root = pkt.name.scopes[0]
        if root == ROOT_IP:
            return self._recv_ip(pkt)
        return root == ROOT_HTTP and self._recv_http(pkt)

    def _recv_ip(self, pkt: IcnPacket) -> bool:
        addr = self._device_names.get(pkt.name)
        if addr is None:
            return False
        ip = pkt.payload.ip
        if ip.dst is not addr and ip.dst != addr:  # identity first: a run parses an address once
            return False
        self.env.note_ip_delivered(self.client, ip)
        return True

    def _recv_http(self, pkt: IcnPacket) -> bool:
        name = pkt.name
        state = self._gets.get(name)
        if state is not None:
            self._recv_response_segment(name, state, pkt.payload)
            return True
        scopes = name.scopes  # a request is /http/<host id>/<request role>~<url id>
        if (len(scopes) == 3 and name.item is not None and scopes[2] == _REQUEST
                and scopes[1] in self._served):
            self._recv_request(pkt.payload)
            return True
        return False

    def _recv_request(self, request: _HttpRequest) -> None:
        fqdn, url, size = request.fqdn, request.url, request.resp_bytes
        resp_name = name_for_http(fqdn, HttpRole.RESPONSE, url)
        open_size = self._exchanges.get(resp_name)
        if open_size is None:
            self._exchanges[resp_name] = size
            self.env.call_at(self.env.now_us() + self.window_us,
                             lambda: self._close_exchange(resp_name, fqdn, url))
        else:
            self._exchanges[resp_name] = max(open_size, size)

    def _close_exchange(self, resp_name: IcnName, fqdn: str, url: str) -> None:
        """Window expiry: publish the response once for every requester; a
        later request for the URL opens a new exchange. Each segment carries
        its place in the body, so no body bytes are built at the server."""
        total = self._exchanges.pop(resp_name)
        tag = f"{fqdn}{url}"
        self._publish_once(resp_name, [
            _Segment(offset, total, tag, length) for offset, length in body_segments(total)])

    def _recv_response_segment(self, name: IcnName, state: _GetState, seg: _Segment) -> None:
        # a segment is buffered as it is, its chunk made when the body is read;
        # one of another total is another exchange's and counts corrupt
        total = seg.total
        if state.total is not None and total != state.total:
            self.counters["corrupt"] += 1
            return
        if seg.offset in state.buf:
            self.counters["duplicates"] += 1
            return
        state.total = total
        state.buf[seg.offset] = seg
        state.received += seg.length
        if state.received < total:
            return
        response = HttpResponse._of_segments(state.fqdn, state.url, state.buf)
        for _ in range(state.count):
            self.env.note_http_complete(self.client, response)
        del self._gets[name]
        self.env.unsubscribe(self.client, name)


class BorderGateway(_IcnClient):
    """Relay between the ICN domain and external IP peers."""

    def __init__(
        self,
        env,
        client: ClientId,
        node: int,
        operator_plan: AddressPlan,
    ) -> None:
        super().__init__(env, client, node)
        self.operator_plan = operator_plan

    def start(self) -> None:
        """Take the standing subscription to the external scope."""
        self.env.subscribe(self.client, external_scope())

    def ingress(self, pkt: IpPacket) -> None:
        """An external sender's packet entering the operator domain: sent
        under its destination's internal name, or dropped if the address
        plan names it external."""
        name = self.operator_plan.name_for(pkt.dst)
        if name.scopes[: 2] == _EXTERNAL_SCOPES:  # outside the plan
            self.env.note_ip_dropped(pkt)
            return
        self._send_encapsulated(name, pkt)

    def may_take(self, name: IcnName) -> bool:
        """True for external IP names only."""
        return name.scopes[: 2] == _EXTERNAL_SCOPES

    def on_icn_data(self, pkt: IcnPacket) -> bool:
        """Externally-destined data leaves over the peering link."""
        if not self.may_take(pkt.name):
            return False
        self.env.note_peer_emitted(self.client, pkt.payload.ip)
        return True
