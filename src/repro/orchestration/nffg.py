"""NF-FG: the UNIFY network-function forwarding-graph JSON format.

The paper's prototype extends the *un-orchestrator* NFV node
(github.com/netgroup-polito/un-orchestrator), whose northbound input is
an NF-FG document: VNFs with ports, end-points, and the ``big-switch``
flow rules steering traffic between them.  This module implements a
practical subset of that schema in both directions:

* :func:`load_nffg` — NF-FG dict/JSON text -> :class:`ServiceGraph`;
* :func:`dump_nffg` — :class:`ServiceGraph` -> NF-FG dict.

Port references use the NF-FG convention ``vnf:<name>:<port>`` and
``endpoint:<name>``.  Match keys supported: ``ether_type``,
``source_mac``, ``dest_mac``, ``vlan_id``, ``source_ip``, ``dest_ip``,
``protocol`` (``tcp``/``udp``/``icmp`` or a number), ``source_port``,
``dest_port``.  VNF ``type`` selects an application from
:data:`VNF_TYPE_REGISTRY` (forwarder, firewall, monitor, cache).
"""

import json
from typing import Callable, Dict, Optional, Union

from repro.apps import FirewallApp, ForwarderApp, MonitorApp, WebCacheApp
from repro.orchestration.graph import Endpoint, ServiceGraph, external
from repro.packet.headers import (
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    ETH_TYPE_IPV4,
    MacAddress,
    int_to_ipv4,
    ipv4_to_int,
)


class NffgError(ValueError):
    """Malformed NF-FG document."""


def _two_port_factory(app_cls, name):
    def factory(pmds):
        ports = list(pmds.values())
        if len(ports) != 2:
            raise NffgError(
                "VNF type needs exactly 2 ports, got %d" % len(ports)
            )
        return app_cls(name, ports[0], ports[1])
    return factory


VNF_TYPE_REGISTRY: Dict[str, Callable] = {
    "forwarder": lambda name: _two_port_factory(ForwarderApp, name),
    "firewall": lambda name: _two_port_factory(FirewallApp, name),
    "monitor": lambda name: _two_port_factory(MonitorApp, name),
    "cache": lambda name: _two_port_factory(WebCacheApp, name),
}

_PROTO_NAMES = {"tcp": IP_PROTO_TCP, "udp": IP_PROTO_UDP,
                "icmp": IP_PROTO_ICMP}
_PROTO_BY_NUMBER = {value: key for key, value in _PROTO_NAMES.items()}


def _parse_port_ref(text: str) -> Endpoint:
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "vnf":
        return Endpoint(parts[1], parts[2])
    if len(parts) == 2 and parts[0] == "endpoint":
        return external(parts[1])
    raise NffgError("bad port reference %r" % text)


def _format_port_ref(endpoint: Endpoint) -> str:
    if endpoint.is_external:
        return "endpoint:%s" % endpoint.port
    return "vnf:%s:%s" % (endpoint.vnf, endpoint.port)


def _parse_match(match_obj: Dict) -> "tuple[Endpoint, Dict]":
    """Split an NF-FG match into (ingress endpoint, our match fields)."""
    if "port_in" not in match_obj:
        raise NffgError("flow rule match needs port_in")
    src = _parse_port_ref(match_obj["port_in"])
    fields: Dict[str, object] = {}
    for key, value in match_obj.items():
        if key == "port_in":
            continue
        if key == "ether_type":
            fields["eth_type"] = int(value, 0) if isinstance(value, str) \
                else int(value)
        elif key == "source_mac":
            fields["eth_src"] = MacAddress.from_string(value).value
        elif key == "dest_mac":
            fields["eth_dst"] = MacAddress.from_string(value).value
        elif key == "vlan_id":
            fields["vlan_vid"] = int(value)
        elif key in ("source_ip", "dest_ip"):
            field = "ip_src" if key == "source_ip" else "ip_dst"
            text = str(value)
            if "/" in text:
                address, prefix = text.split("/", 1)
                bits = int(prefix)
                mask = ((1 << bits) - 1) << (32 - bits) if bits else 0
                fields[field] = (ipv4_to_int(address) & mask, mask)
            else:
                fields[field] = ipv4_to_int(text)
            fields.setdefault("eth_type", ETH_TYPE_IPV4)
        elif key == "protocol":
            if isinstance(value, str):
                proto = _PROTO_NAMES.get(value.lower())
                if proto is None:
                    raise NffgError("unknown protocol %r" % value)
            else:
                proto = int(value)
            fields["ip_proto"] = proto
            fields.setdefault("eth_type", ETH_TYPE_IPV4)
        elif key in ("source_port", "dest_port"):
            field = "l4_src" if key == "source_port" else "l4_dst"
            fields[field] = int(value)
            fields.setdefault("eth_type", ETH_TYPE_IPV4)
            if "ip_proto" not in fields:
                raise NffgError("%s requires protocol" % key)
        else:
            raise NffgError("unsupported match key %r" % key)
    return src, fields


def load_nffg(document: Union[str, Dict]) -> ServiceGraph:
    """Build a :class:`ServiceGraph` from an NF-FG document."""
    if isinstance(document, str):
        document = json.loads(document)
    try:
        body = document["forwarding-graph"]
    except (TypeError, KeyError):
        raise NffgError("document has no forwarding-graph") from None

    graph = ServiceGraph(body.get("id", "nffg"))
    for vnf in body.get("VNFs", []):
        name = vnf.get("id")
        if not name:
            raise NffgError("VNF without id")
        ports = [port["id"] for port in vnf.get("ports", [])]
        if not ports:
            raise NffgError("VNF %r has no ports" % name)
        app_factory = None
        vnf_type = vnf.get("type")
        if vnf_type is not None:
            maker = VNF_TYPE_REGISTRY.get(vnf_type)
            if maker is None:
                raise NffgError("unknown VNF type %r" % vnf_type)
            app_factory = maker(name)
        graph.add_vnf(name, ports, app_factory=app_factory)
    for endpoint in body.get("end-points", []):
        graph.add_external(endpoint["id"])

    rules = body.get("big-switch", {}).get("flow-rules", [])
    for rule in rules:
        src, fields = _parse_match(rule.get("match", {}))
        actions = rule.get("actions", [])
        outputs = [a["output_to_port"] for a in actions
                   if "output_to_port" in a]
        if len(outputs) != 1:
            raise NffgError(
                "flow rule must have exactly one output_to_port"
            )
        dst = _parse_port_ref(outputs[0])
        graph.connect(src, dst, match_fields=fields,
                      priority=rule.get("priority"))
    graph.validate()
    return graph


def dump_nffg(graph: ServiceGraph) -> Dict:
    """Serialize a :class:`ServiceGraph` back to an NF-FG dict."""
    vnfs = []
    for spec in graph.vnfs.values():
        vnfs.append({
            "id": spec.name,
            "ports": [{"id": port} for port in spec.ports],
        })
    rules = []
    for index, link in enumerate(graph.links):
        match: Dict[str, object] = {
            "port_in": _format_port_ref(link.src)
        }
        for field, value in link.match_fields.items():
            if field == "eth_type":
                match["ether_type"] = "0x%04x" % _value_of(value)
            elif field == "ip_proto":
                number = _value_of(value)
                match["protocol"] = _PROTO_BY_NUMBER.get(number, number)
            elif field == "l4_src":
                match["source_port"] = _value_of(value)
            elif field == "l4_dst":
                match["dest_port"] = _value_of(value)
            elif field == "vlan_vid":
                match["vlan_id"] = _value_of(value)
            elif field in ("ip_src", "ip_dst"):
                key = "source_ip" if field == "ip_src" else "dest_ip"
                if isinstance(value, tuple):
                    address, mask = value
                    prefix = bin(mask).count("1")
                    match[key] = "%s/%d" % (int_to_ipv4(address), prefix)
                else:
                    match[key] = int_to_ipv4(value)
            elif field in ("eth_src", "eth_dst"):
                key = "source_mac" if field == "eth_src" else "dest_mac"
                match[key] = str(MacAddress(_value_of(value)))
        rule = {
            "id": str(index + 1),
            "match": match,
            "actions": [{"output_to_port": _format_port_ref(link.dst)}],
        }
        if link.priority is not None:
            rule["priority"] = link.priority
        rules.append(rule)
    return {
        "forwarding-graph": {
            "id": graph.name,
            "VNFs": vnfs,
            "end-points": [{"id": name} for name in graph.external_ports],
            "big-switch": {"flow-rules": rules},
        }
    }


def _value_of(constraint) -> int:
    if isinstance(constraint, tuple):
        return constraint[0]
    return int(constraint)
