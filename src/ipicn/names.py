"""Hierarchical ICN namespace and the deterministic IP/HTTP mappings into it.

Names are rooted paths of 64-bit scope identifiers with an optional item
identifier at the leaf. IPv4 addresses map octet-per-scope under a fixed
"ip" root, split into internal and external halves; HTTP messages map under
an "http" root keyed by hashed host and URL.
"""

from __future__ import annotations

import enum
import functools
import ipaddress
import re
from dataclasses import dataclass

MAX_DEPTH = 16

# Root scope constants: "ip" and "http" as big-endian ASCII.
ROOT_IP = 0x6970
ROOT_HTTP = 0x68747470

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 1 << 64

_HEX_ELEM = re.compile(r"[0-9a-f]{1,16}")

# distinct arguments for which the IP and HTTP name mappings each keep their name
_INTERN_SIZE = 4096


class Locality(enum.Enum):
    """Whether an address lives inside or outside the operator network."""

    INTERNAL = 1
    EXTERNAL = 2


class HttpRole(enum.Enum):
    REQUEST = 1
    RESPONSE = 2
    # `name_for_http`'s cache keys on a member: hash it by identity, in C,
    # as it compares (`Enum.__hash__` runs in Python)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class IcnName:
    """A scope path with an optional item identifier, each a 64-bit int.

    A name without an item is scope-level and can cover whole subtrees;
    a name with an item designates one publishable information item.
    """

    scopes: tuple[int, ...]
    item: int | None = None

    def __post_init__(self) -> None:
        if not self.scopes:
            raise ValueError("name needs at least one scope")
        if len(self.scopes) > MAX_DEPTH:
            raise ValueError(f"scope path deeper than {MAX_DEPTH}")
        for ident in self.scopes if self.item is None else (*self.scopes, self.item):
            if not 0 <= ident < _U64:
                raise ValueError(f"identifier out of 64-bit range: {ident}")
        # names key every table on the data path; hash once, with the value
        # the generated dataclass hash would give
        object.__setattr__(self, "_hash", hash((self.scopes, self.item)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_item(self) -> bool:
        return self.item is not None


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) % _U64
    return h


_IP_PREFIX = {loc: (ROOT_IP, loc.value) for loc in Locality}
_HTTP_ROLE = {role: role.value for role in HttpRole}  # another enum's member raises


@functools.lru_cache(maxsize=_INTERN_SIZE)
def name_for_ip(addr: ipaddress.IPv4Address | str, loc: Locality) -> IcnName:
    """Item name for one IPv4 address: one scope per leading octet, the
    final octet as the item.

    Interned: a repeated (addr, loc) returns the one name built for it, so
    tables keyed by it match on identity. A bad argument raises every time."""
    if isinstance(addr, str):
        addr = ipaddress.IPv4Address(addr)
    o1, o2, o3, o4 = addr.packed
    return IcnName(scopes=(*_IP_PREFIX[loc], o1, o2, o3), item=o4)


def subnet_scope(prefix: ipaddress.IPv4Network | str, loc: Locality) -> IcnName:
    """Scope-level name covering a /8, /16 or /24 subnet."""
    net = ipaddress.IPv4Network(prefix)
    if net.prefixlen not in (8, 16, 24):
        raise ValueError(
            f"unsupported subnet granularity /{net.prefixlen}; use /8, /16 or /24"
        )
    octets = net.network_address.packed[: net.prefixlen // 8]
    return IcnName(scopes=(ROOT_IP, loc.value, *octets))


def external_scope() -> IcnName:
    """The scope every externally-destined address name falls under."""
    return IcnName(scopes=_IP_PREFIX[Locality.EXTERNAL])


@functools.lru_cache(maxsize=_INTERN_SIZE)
def name_for_http(fqdn: str, role: HttpRole, url: str) -> IcnName:
    """Item name for an HTTP request or response about (fqdn, url); interned
    like `name_for_ip`. A role not an `HttpRole` raises `KeyError`."""
    if not fqdn or not url:
        raise ValueError("fqdn and url must be non-empty")
    return IcnName(
        scopes=(ROOT_HTTP, fnv1a64(fqdn.encode()), _HTTP_ROLE[role]),
        item=fnv1a64(url.encode()),
    )


def http_request_scope(fqdn: str) -> IcnName:
    """Scope covering every request item name for one host."""
    if not fqdn:
        raise ValueError("fqdn must be non-empty")
    return IcnName(scopes=(ROOT_HTTP, fnv1a64(fqdn.encode()), HttpRole.REQUEST.value))


def is_ancestor(scope: IcnName, name: IcnName) -> bool:
    """True iff `scope`'s path is a (non-strict) prefix of `name`'s scope path.

    Items never count as scopes, so /a/b is not an ancestor of (/a item b).
    """
    if scope.is_item:
        raise ValueError("ancestor test needs a scope-level name")
    return scope.scopes == name.scopes[: len(scope.scopes)]


def covers(sub: IcnName, item: IcnName) -> bool:
    """Whether a subscription name matches a published item name: equal
    item names, or the subscription scope is an ancestor of the item."""
    if sub.is_item:
        return sub == item
    return is_ancestor(sub, item)


def render_name(name: IcnName) -> str:
    """Canonical text form: 16-hex-digit path elements, item prefixed `~`."""
    parts = [f"{s:016x}" for s in name.scopes]
    if name.item is not None:
        parts.append(f"~{name.item:016x}")
    return "/" + "/".join(parts)


def parse_name(text: str) -> IcnName:
    """Parse the textual grammar; inverse of render_name on canonical
    strings, and tolerant of unpadded (1..16 digit) elements."""
    if not text.startswith("/"):
        raise ValueError(f"name must start with '/': {text!r}")
    parts = text[1:].split("/")
    if parts == [""]:
        raise ValueError("empty name path")
    item: int | None = None
    if parts[-1].startswith("~"):
        item = _parse_element(parts[-1][1:])
        parts = parts[:-1]
    if not parts:
        raise ValueError("name needs at least one scope")
    if any(p.startswith("~") for p in parts):
        raise ValueError("'~' only marks the final element")
    if len(parts) > MAX_DEPTH:
        raise ValueError(f"scope path deeper than {MAX_DEPTH}")
    return IcnName(scopes=tuple(_parse_element(p) for p in parts), item=item)


def _parse_element(text: str) -> int:
    if not _HEX_ELEM.fullmatch(text):
        raise ValueError(f"malformed identifier element: {text!r}")
    return int(text, 16)
