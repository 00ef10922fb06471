"""Traffic profiles: the packet templates a source cycles through.

A template bundles a pre-built packet, its wire length and a
pre-extracted flow key, so per-packet generation in a benchmark costs a
couple of attribute writes instead of a parse.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.packet.builder import make_tcp_packet, make_udp_packet
from repro.packet.flowkey import FlowKey, extract_flow_key
from repro.packet.headers import Tcp
from repro.packet.packet import Packet


@dataclass(frozen=True)
class Template:
    packet: Packet
    wire_length: int
    flow_key: FlowKey  # extracted at in_port=0; re-ported on first lookup


@dataclass(frozen=True)
class TrafficProfile:
    """A weighted set of packet templates."""

    name: str
    templates: Tuple[Template, ...]

    @property
    def mean_frame_size(self) -> float:
        return sum(t.wire_length for t in self.templates) / len(
            self.templates
        )


def _template(packet: Packet) -> Template:
    return Template(
        packet=packet,
        wire_length=packet.wire_length,
        flow_key=extract_flow_key(packet, in_port=0),
    )


def uniform_profile(
    frame_size: int = 64,
    flows: int = 1,
    name: str = "",
    web: bool = False,
) -> TrafficProfile:
    """Fixed-size frames spread over ``flows`` distinct UDP (or TCP/80)
    transport flows."""
    templates: List[Template] = []
    for flow in range(flows):
        if web:
            packet = make_tcp_packet(
                src_port=40000 + flow, dst_port=80, frame_size=frame_size
            )
        else:
            packet = make_udp_packet(
                src_port=1000 + flow, dst_port=2000, frame_size=frame_size
            )
        templates.append(_template(packet))
    return TrafficProfile(
        name=name or "%dB x%d" % (frame_size, flows),
        templates=tuple(templates),
    )


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Normalized Zipf weights: ``w_k ∝ 1 / k^exponent`` for k=1..n.

    The standard skewed-popularity model for flows and ports; with
    ``exponent=1`` the heaviest of 8 items carries ~37% of the total.
    """
    if n < 1:
        raise ValueError("need at least one weight")
    raw = [1.0 / (k ** exponent) for k in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def skewed_profile(
    frame_size: int = 64,
    flows: int = 8,
    exponent: float = 1.0,
    name: str = "",
) -> TrafficProfile:
    """Zipf-skewed flow mix: flow k appears with multiplicity ∝ 1/k^e.

    Multiplicities are granted in 1%-of-total quanta (every flow keeps
    at least one template), so a round-robin source reproduces the skew
    without per-packet sampling.
    """
    weights = zipf_weights(flows, exponent)
    templates: List[Template] = []
    for flow, weight in enumerate(weights):
        packet = make_udp_packet(
            src_port=1000 + flow, dst_port=2000, frame_size=frame_size
        )
        templates.extend([_template(packet)] * max(1, int(weight * 100)))
    return TrafficProfile(
        name=name or "zipf-%g %dB x%d" % (exponent, frame_size, flows),
        templates=tuple(templates),
    )


def hot_port_rates(total_pps: float, n_ports: int,
                   exponent: float = 1.0) -> List[float]:
    """Split an aggregate offered load across ports Zipf-style.

    The scheduler benchmark's load shape: port 0 is the hot port, the
    tail ports trickle.  Returns per-port pps summing to ``total_pps``.
    """
    return [total_pps * w for w in zipf_weights(n_ports, exponent)]


def elephants_mice_profile(
    frame_size: int = 64,
    elephants: int = 2,
    mice: int = 48,
    elephant_share: float = 0.8,
    name: str = "",
) -> TrafficProfile:
    """The canonical datacenter mix: a few elephants carry most bytes,
    a swarm of mice carries most *flows*.

    ``elephant_share`` of the templates belong to the elephants (so a
    round-robin source offers that fraction of packets on them); every
    mouse gets exactly one template.  The shape stresses a state table
    very differently from a uniform mix — a handful of hot entries stay
    pinned while the mice churn through the idle-eviction path.
    """
    if not 0.0 < elephant_share < 1.0:
        raise ValueError("elephant_share must be in (0, 1)")
    templates: List[Template] = []
    # mice = (1 - share) of templates  =>  per-elephant multiplicity.
    per_elephant = max(1, int(round(
        mice * elephant_share / ((1.0 - elephant_share) * elephants)
    )))
    for flow in range(elephants):
        packet = make_tcp_packet(
            src_port=30000 + flow, dst_port=80, frame_size=frame_size
        )
        templates.extend([_template(packet)] * per_elephant)
    for flow in range(mice):
        packet = make_udp_packet(
            src_port=1000 + flow, dst_port=2000, frame_size=frame_size
        )
        templates.append(_template(packet))
    return TrafficProfile(
        name=name or "elephants%d-mice%d %dB" % (elephants, mice,
                                                 frame_size),
        templates=tuple(templates),
    )


def syn_flood_profile(
    frame_size: int = 64,
    attack_sources: int = 256,
    legit_flows: int = 4,
    attack_share: float = 0.75,
    name: str = "",
) -> TrafficProfile:
    """A SYN flood riding on legitimate traffic.

    Attack templates are TCP SYNs from ``attack_sources`` distinct
    source addresses that never complete a handshake; the legitimate
    flows are ordinary UDP.  Under a stateful firewall every SYN tries
    to open a state entry — the bounded-occupancy soak's input.
    """
    templates: List[Template] = []
    attack_templates = max(1, int(
        legit_flows * attack_share / (1.0 - attack_share)
    ))
    for index in range(attack_templates):
        source = index % attack_sources
        packet = make_tcp_packet(
            src_ip=0xC0A80000 + source, dst_ip=0x0A000001,
            src_port=1024 + index, dst_port=80,
            frame_size=frame_size, flags=Tcp.SYN,
        )
        templates.append(_template(packet))
    for flow in range(legit_flows):
        packet = make_udp_packet(
            src_port=1000 + flow, dst_port=2000, frame_size=frame_size
        )
        templates.append(_template(packet))
    return TrafficProfile(
        name=name or "synflood-%dsrc %dB" % (attack_sources, frame_size),
        templates=tuple(templates),
    )


def imix_profile(flows_per_size: int = 1) -> TrafficProfile:
    """The classic simple-IMIX mix: 64B x7, 570B x4, 1518B x1."""
    templates: List[Template] = []
    for frame_size, weight in ((64, 7), (570, 4), (1518, 1)):
        for flow in range(flows_per_size):
            packet = make_udp_packet(
                src_port=1000 + flow, dst_port=3000 + frame_size,
                frame_size=frame_size,
            )
            templates.extend([_template(packet)] * weight)
    return TrafficProfile(name="imix", templates=tuple(templates))


IMIX_PROFILE = imix_profile()
