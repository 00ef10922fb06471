"""Service graphs: the operator's view of a network service.

A graph is VNFs plus directed links between their logical ports
(Figure 1(a) of the paper).  Links come in two kinds:

* **total** links (no match constraints) — "everything leaving this port
  goes there"; these compile to the in_port-only rules the p-2-p
  detector recognizes and upgrades to bypass channels;
* **classified** links (extra match fields, e.g. ``l4_dst=80``) — the
  web / non-web split in the paper's example; these compile to
  higher-priority rules and keep their port on the vSwitch path.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

EXTERNAL = "__external__"


@dataclass(frozen=True)
class Endpoint:
    """One attachment point: a VNF's logical port, or an external NIC."""

    vnf: str
    port: str

    @property
    def is_external(self) -> bool:
        return self.vnf == EXTERNAL

    def __str__(self) -> str:
        if self.is_external:
            return "ext:%s" % self.port
        return "%s.%s" % (self.vnf, self.port)


def external(nic_name: str) -> Endpoint:
    return Endpoint(EXTERNAL, nic_name)


@dataclass
class VnfSpec:
    """A VNF to instantiate: name, logical ports, optional app factory.

    ``app_factory(pmds)`` receives ``{logical port name: ethdev}`` and
    returns a started-able app (anything with ``iteration``/``start``).
    """

    name: str
    ports: List[str]
    app_factory: Optional[Callable[[Dict[str, object]], object]] = None


@dataclass
class GraphLink:
    """A directed steering edge."""

    src: Endpoint
    dst: Endpoint
    match_fields: Dict[str, object] = field(default_factory=dict)
    priority: Optional[int] = None  # default chosen by the compiler

    @property
    def is_total(self) -> bool:
        return not self.match_fields


class GraphError(ValueError):
    """Malformed service graph."""


class ServiceGraph:
    """VNFs + links, with validation."""

    def __init__(self, name: str = "service") -> None:
        self.name = name
        self.vnfs: Dict[str, VnfSpec] = {}
        self.links: List[GraphLink] = []
        self.external_ports: List[str] = []

    # -- construction --------------------------------------------------------

    def add_vnf(self, name: str, ports: List[str],
                app_factory=None) -> VnfSpec:
        if name == EXTERNAL:
            raise GraphError("%r is a reserved VNF name" % name)
        if name in self.vnfs:
            raise GraphError("VNF %r already in graph" % name)
        if len(set(ports)) != len(ports):
            raise GraphError("duplicate port names on VNF %r" % name)
        spec = VnfSpec(name=name, ports=list(ports),
                       app_factory=app_factory)
        self.vnfs[name] = spec
        return spec

    def add_external(self, nic_name: str) -> Endpoint:
        if nic_name in self.external_ports:
            raise GraphError("external port %r already declared" % nic_name)
        self.external_ports.append(nic_name)
        return external(nic_name)

    def _resolve(self, endpoint) -> Endpoint:
        if isinstance(endpoint, Endpoint):
            return endpoint
        if isinstance(endpoint, str):
            vnf, _sep, port = endpoint.partition(".")
            if not port:
                raise GraphError(
                    "endpoint %r must be 'vnf.port' or an Endpoint"
                    % endpoint
                )
            return Endpoint(vnf, port)
        raise GraphError("cannot interpret endpoint %r" % (endpoint,))

    def connect(self, src, dst, *, match_fields: Optional[Dict] = None,
                priority: Optional[int] = None,
                bidirectional: bool = False) -> List[GraphLink]:
        """Add a directed link (or a pair with ``bidirectional=True``)."""
        src = self._resolve(src)
        dst = self._resolve(dst)
        for endpoint in (src, dst):
            self._check_endpoint(endpoint)
        links = [GraphLink(src=src, dst=dst,
                           match_fields=dict(match_fields or {}),
                           priority=priority)]
        if bidirectional:
            links.append(GraphLink(src=dst, dst=src,
                                   match_fields=dict(match_fields or {}),
                                   priority=priority))
        self.links.extend(links)
        return links

    def _check_endpoint(self, endpoint: Endpoint) -> None:
        if endpoint.is_external:
            if endpoint.port not in self.external_ports:
                raise GraphError(
                    "external port %r not declared" % endpoint.port
                )
            return
        spec = self.vnfs.get(endpoint.vnf)
        if spec is None:
            raise GraphError("unknown VNF %r" % endpoint.vnf)
        if endpoint.port not in spec.ports:
            raise GraphError(
                "VNF %r has no port %r" % (endpoint.vnf, endpoint.port)
            )

    # -- analysis -----------------------------------------------------------------

    def validate(self) -> None:
        """Reject graphs with conflicting total links from one port."""
        total_sources: Dict[Endpoint, Endpoint] = {}
        for link in self.links:
            if not link.is_total:
                continue
            existing = total_sources.get(link.src)
            if existing is not None and existing != link.dst:
                raise GraphError(
                    "port %s has total links to both %s and %s"
                    % (link.src, existing, link.dst)
                )
            total_sources[link.src] = link.dst

    def p2p_candidate_links(self) -> List[GraphLink]:
        """Total VNF-to-VNF links — the ones the detector should upgrade
        (provided no classified link shares the source port)."""
        classified_sources = {
            link.src for link in self.links if not link.is_total
        }
        return [
            link for link in self.links
            if link.is_total
            and not link.src.is_external
            and not link.dst.is_external
            and link.src not in classified_sources
        ]

    def port_key(self, endpoint: Endpoint) -> str:
        """The dpdkr port name an endpoint compiles to."""
        if endpoint.is_external:
            return endpoint.port
        return "%s.%s" % (endpoint.vnf, endpoint.port)
