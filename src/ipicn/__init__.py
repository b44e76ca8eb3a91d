"""IP-over-ICN: protocol library and deterministic network simulator.

Legacy IP and HTTP traffic is carried over a publish/subscribe
information-centric core: gateways map addresses and URLs to hierarchical
names, a rendezvous function matches publications with subscriptions, a
topology manager computes delivery trees encoded as in-packet link-mask
forwarding identifiers, and a discrete-event harness quantifies the
result against a plain-IP unicast baseline.
"""

from .forwarding import (
    DEFAULT_TTL,
    IcnPacket,
    decode_packet,
    encode_packet,
    forward,
    gen_lid,
    lid_matches,
)
from .gateways import (
    BorderGateway,
    HttpResponse,
    IpPacket,
    Nap,
    decode_ip_packet,
    encode_ip_packet,
)
from .names import (
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
from .rendezvous import ClientId, MatchEvent, Rendezvous
from .simnet import (
    BaselineSimulation,
    ComparisonReport,
    IcnSimulation,
    KpiReport,
    Scenario,
    compare,
    load_scenario,
    run,
    run_ip_baseline,
)
from .topology import (
    DeliveryTree,
    FidDelivery,
    Link,
    NetworkGraph,
    TopologyDoc,
    TopologyError,
    fid_for_tree,
    handle_match,
    load_topology_doc,
    shortest_path_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineSimulation",
    "BorderGateway",
    "ClientId",
    "ComparisonReport",
    "DEFAULT_TTL",
    "DeliveryTree",
    "FidDelivery",
    "HttpResponse",
    "HttpRole",
    "IcnName",
    "IcnPacket",
    "IcnSimulation",
    "IpPacket",
    "KpiReport",
    "Link",
    "Locality",
    "MatchEvent",
    "Nap",
    "NetworkGraph",
    "Rendezvous",
    "Scenario",
    "TopologyDoc",
    "TopologyError",
    "compare",
    "decode_ip_packet",
    "decode_packet",
    "encode_ip_packet",
    "encode_packet",
    "external_scope",
    "fid_for_tree",
    "fnv1a64",
    "forward",
    "gen_lid",
    "handle_match",
    "is_ancestor",
    "lid_matches",
    "load_scenario",
    "load_topology_doc",
    "name_for_http",
    "name_for_ip",
    "parse_name",
    "render_name",
    "run",
    "run_ip_baseline",
    "shortest_path_tree",
    "subnet_scope",
]
