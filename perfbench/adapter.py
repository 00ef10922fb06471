"""The one file that imports ``repro``: four workloads behind one shape.

Each workload is built from seeded inputs and exposes ``setup()``,
``measure()`` and ``collect()``; everything it reads comes from public
constructors, public counters and one ``node.obs.registry.collect()``
scrape.  ``install_trace`` is the traced run's table of public callables.
README.md lists every ``repro`` symbol used here, so an API refactor of
the program is a one-file change to the benchmark.
"""

import contextlib
import functools
import random
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.openflow.wire
import repro.packet
import repro.packet.flowkey
import repro.traffic.profiles
from repro.core.bypass import LinkState
from repro.core.detector import P2PLinkDetector
from repro.core.pmd import DualChannelPmd
from repro.experiments.chain import ChainExperiment
from repro.mem.mempool import Mempool
from repro.mem.ring import Ring
from repro.metrics.latency import LatencyRecorder
from repro.obs.cycles import StageAccounting, seconds_to_cycles
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.orchestration.node import NfvNode
from repro.packet.builder import make_udp_packet
from repro.packet.flowkey import extract_flow_key
from repro.packet.mbuf import Mbuf
from repro.sim.engine import Environment
from repro.sim.pollloop import PollLoop
from repro.traffic.generator import SourceApp
from repro.traffic.profiles import Template, TrafficProfile
from repro.traffic.sink import SinkApp
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.datapath import Datapath
from repro.vswitch.emc import ExactMatchCache
from repro.vswitch.megaflow import MegaflowCache
from repro.vswitch.smc import SignatureMatchCache
from repro.vswitch.vswitchd import VSwitchd

from perfbench import spec

FRAME_SIZE = 64   # the size where per-packet cost dominates
Clock = Tuple[float, float]


def now() -> Clock:
    """(host CPU seconds, wall seconds); the process is single-threaded."""
    return time.process_time(), time.perf_counter()


# -- seeded inputs -------------------------------------------------------------


def _five_tuple(rng: random.Random) -> dict:
    return dict(
        src_ip=0x0A000000 | rng.getrandbits(24),
        dst_ip=0x0B000000 | rng.getrandbits(24),
        src_port=rng.randrange(1024, 65536),
        dst_port=rng.randrange(1024, 65536),
    )


def _flow_profile(seed: int, flows: int = 4) -> TrafficProfile:
    """``flows`` seeded UDP flows; a source cycles through them in order,
    so the seed fixes both the 5-tuples and the packet sequence."""
    rng = random.Random(seed)
    templates = []
    for _ in range(flows):
        packet = make_udp_packet(frame_size=FRAME_SIZE, **_five_tuple(rng))
        templates.append(Template(
            packet=packet, wire_length=packet.wire_length,
            flow_key=extract_flow_key(packet, in_port=0),
        ))
    return TrafficProfile("perfbench-seed%d" % seed, tuple(templates))


# -- the workload shape ---------------------------------------------------------


class Workload:
    """One repetition: construct, ``setup()``, ``measure()``, ``collect()``.

    Construction is untimed preparation of the inputs.  Set-up runs from
    construction of the system to the point where the first packet can
    be offered and ends when ``_setup_done()`` is called: at the end of
    ``setup()``, except for the chains, which call it from inside
    ``measure()`` because ``ChainExperiment.run`` settles the control
    plane itself.
    """

    name = ""
    sizes: Dict[str, Dict[str, float]] = {}

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.size = self.sizes["quick" if quick else "full"]
        self.setup_done_at: Optional[Clock] = None

    def _setup_done(self) -> None:
        self.setup_done_at = now()

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def collect(self) -> dict:
        """``accepted``/``delivered`` packet counts of the measured phase,
        ``modelled`` and ``layers`` metric values, ``checks`` (name ->
        passed) and free-form ``notes``."""
        raise NotImplementedError


# -- reading a node from outside --------------------------------------------------


def _scrape(node: NfvNode) -> Tuple[Dict[str, float], float, float]:
    """One registry scrape: sample sums by name, the modelled busy
    seconds of the OVS PMD loops, and the host seconds the scrape took."""
    started = time.process_time()
    samples = node.obs.registry.collect()
    scrape_s = time.process_time() - started
    sums: Dict[str, float] = defaultdict(float)
    pmd_busy_s = 0.0
    for sample in samples:
        sums[sample.name] += sample.value
        if (sample.name == "repro_pollloop_busy_seconds"
                and sample.labels["loop"].startswith("ovs.pmd")):
            pmd_busy_s += sample.value
    return sums, pmd_busy_s, scrape_s


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _datapath_layers(datapath: Datapath, busy_sim_s: float,
                     packets: int) -> Dict[str, float]:
    """Counter-based layer metrics of one ``Datapath``; ``busy_sim_s``
    is the modelled time the switch cores spent on ``packets``."""
    emc, smc, megaflow = datapath.emc, datapath.smc, datapath.megaflow
    return {
        "vswitch.datapath.packets": datapath.packets_processed,
        "vswitch.datapath.sim_cycles_per_pkt":
            _ratio(seconds_to_cycles(busy_sim_s), packets),
        "vswitch.datapath.batch_fill": datapath.avg_batch_fill,
        "vswitch.datapath.upcall_share":
            _ratio(datapath.miss_upcalls, datapath.packets_processed),
        "vswitch.emc.lookups": emc.hits + emc.misses,
        "vswitch.emc.hit_rate": emc.hit_rate,
        "vswitch.emc.invalidations": emc.precise_evictions,
        "vswitch.smc.hit_rate": smc.hit_rate,
        "vswitch.megaflow.lookups": megaflow.hits + megaflow.misses,
        "vswitch.megaflow.hit_rate": megaflow.hit_rate,
        "vswitch.megaflow.entries": len(megaflow),
        "vswitch.megaflow.invalidations": megaflow.invalidations,
        "vswitch.classifier.lookups": datapath.classifier.lookups,
        "vswitch.classifier.subtables": datapath.classifier.subtable_count,
    }


def _node_layers(node: NfvNode, sources: List[SourceApp],
                 delivered: int) -> Tuple[Dict[str, float], float]:
    """Counter-based layer metrics of a running node, and
    ``poll_iters_per_pkt``."""
    sums, pmd_busy_s, scrape_s = _scrape(node)
    iterations = sums["repro_pollloop_iterations_total"]
    switched = 0
    for _loop, stages in node.switch.pmd_cycle_report().loop_rows():
        switched += stages.packets.get("rx_normal", 0)
    layers = _datapath_layers(node.switch.datapath, pmd_busy_s, switched)
    via_bypass = sums["repro_pmd_channel_tx_via_bypass"]
    layers.update({
        "sim.pollloop.iterations": iterations,
        "sim.pollloop.busy_sim_s": sums["repro_pollloop_busy_seconds"],
        "sim.pollloop.idle_sim_s": sums["repro_pollloop_idle_seconds"],
        "mem.ring.enqueue_failures": sums["repro_ring_enqueue_failures"],
        "mem.ring.partial_enqueues": sums["repro_ring_partial_enqueues"],
        "core.pmd.bypass_tx_share": _ratio(
            via_bypass, via_bypass + sums["repro_pmd_channel_tx_via_normal"]),
        "core.pmd.tx_stall_rejects":
            sums["repro_pmd_channel_tx_stall_rejects"],
        "traffic.source.tx_rejects": sum(s.tx_failures for s in sources),
        "obs.registry.scrape_s": scrape_s,
    })
    if node.manager is not None:
        layers["core.detector.analyses"] = node.manager.detector.analyses
        layers["core.bypass.retries"] = node.manager.resilience.retries
    return layers, _ratio(iterations, delivered)


def _link_metrics(node: NfvNode) -> Tuple[Dict[str, float],
                                           Dict[str, float]]:
    """Modelled establishment/teardown timings of the run's bypass
    links (medians over links), and their per-stage breakdown."""
    history = node.manager.history
    established = [link for link in history if link.t_active > 0.0]
    removed = [link for link in history
               if link.state is LinkState.REMOVED and link.t_removed > 0.0]
    modelled: Dict[str, float] = {}
    layers: Dict[str, float] = {
        "core.bypass.links_established": len(established),
    }
    if established:
        # From the link's request to the sender using the bypass; the
        # wait behind earlier links (one agent worker) is in sim_detect_ms.
        modelled["sim_bypass_setup_ms"] = 1e3 * statistics.median(
            link.t_active - link.setup_request.t_requested
            for link in established)
        stages = defaultdict(list)
        for link in established:
            request = link.setup_request
            stages["core.bypass.sim_detect_ms"].append(
                request.t_requested - link.t_detected)
            stages["core.bypass.sim_rpc_ms"].append(
                request.t_rpc_done - request.t_requested)
            stages["hypervisor.sim_hotplug_ms"].append(
                request.t_zones_plugged - request.t_rpc_done)
            stages["dpdk.virtio_serial.sim_rx_configure_ms"].append(
                request.t_rx_configured - request.t_zones_plugged)
            stages["dpdk.virtio_serial.sim_tx_configure_ms"].append(
                request.t_tx_configured - request.t_rx_configured)
        for name, values in stages.items():
            layers[name] = 1e3 * statistics.median(values)
    if removed:
        modelled["sim_bypass_teardown_ms"] = 1e3 * statistics.median(
            link.t_removed - link.t_teardown_started for link in removed)
    return modelled, layers


# -- the two saturated chains -------------------------------------------------------


@contextlib.contextmanager
def _after_first_settle(callback: Callable[[], None]):
    """Call ``callback`` once, when ``NfvNode.settle_control_plane`` first
    returns: the only hook the untraced runs install.  It splits a chain's
    set-up (build, control plane settled, bypasses up) from its traffic."""
    original = NfvNode.settle_control_plane
    pending = [callback]

    def settle(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if pending:
            pending.pop()()

    NfvNode.settle_control_plane = settle
    try:
        yield
    finally:
        NfvNode.settle_control_plane = original


class _Chain(Workload):
    """3-VM memory-only chain, bidirectional saturating sources."""

    bypass = False
    sizes = {"full": {"duration": 0.012, "drain": 0.001},
             "quick": {"duration": 0.003, "drain": 0.001}}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.profile = _flow_profile(self.seed)

    def setup(self) -> None:
        self.experiment = ChainExperiment(
            num_vms=3, bypass=self.bypass, memory_only=True,
            duration=self.size["duration"], profile=self.profile,
        )
        self.experiment.build()

    def measure(self) -> None:
        with _after_first_settle(self._setup_done):
            self.result = self.experiment.run(drain=self.size["drain"])

    def collect(self) -> dict:
        experiment, result = self.experiment, self.result
        node = experiment.node
        expected_links = 4 if self.bypass else 0
        delivered = result.delivered_total
        layers, iters_per_pkt = _node_layers(
            node, experiment.sources, delivered)
        modelled = {
            "sim_throughput_mpps": result.throughput_mpps,
            "poll_iters_per_pkt": iters_per_pkt,
        }
        checks = {
            "drained": result.drained and all(
                source.pool.in_use == 0 for source in experiment.sources),
            "active_bypasses": result.active_bypasses == expected_links,
        }
        if self.bypass:
            link_modelled, link_layers = _link_metrics(node)
            modelled.update(link_modelled)
            layers.update(link_layers)
            checks["link_history"] = (
                [link.state for link in node.manager.history]
                == [LinkState.ACTIVE] * expected_links)
        return {
            "accepted": sum(s.generated for s in experiment.sources),
            "delivered": delivered,
            "policy_dropped": result.policy_dropped,
            "modelled": modelled,
            "layers": layers,
            "checks": checks,
            "notes": {"window_sim_s": result.duration},
        }


class VanillaSat(_Chain):
    name = spec.VANILLA


class BypassSat(_Chain):
    name = spec.BYPASS
    bypass = True


# -- handover under load --------------------------------------------------------------


class _SeqCheckedPort:
    """An ethdev seen through a tap that checks ``mbuf.seq`` strictly
    increases on the way into the sink (which frees the burst)."""

    def __init__(self, port, sink: "OrderCheckingSink") -> None:
        self._port = port
        self._sink = sink

    def rx_burst(self, max_count: int):
        mbufs = self._port.rx_burst(max_count)
        sink = self._sink
        for mbuf in mbufs:
            if mbuf.seq <= sink.last_seq:
                sink.out_of_order += 1
            sink.last_seq = mbuf.seq
        return mbufs

    def __getattr__(self, attr):
        return getattr(self._port, attr)


class OrderCheckingSink(SinkApp):
    """A ``SinkApp`` that counts packets arriving out of source order."""

    def __init__(self, name: str, port, **kwargs) -> None:
        super().__init__(name, _SeqCheckedPort(port, self), **kwargs)
        self.last_seq = -1
        self.out_of_order = 0


class HandoverLoad(Workload):
    """vm1 streams to vm2 over a bypass while the controller diverts
    TCP/80 to vm3 (ordered teardown under traffic), then withdraws the
    rule (re-establishment under traffic)."""

    name = spec.HANDOVER
    RATE_PPS = 0.5e6
    DIVERT_PRIORITY = 0x9000
    # teardown_s/establish_s outlast the modelled teardown (~64 ms) and
    # establishment (~101 ms), so --quick can only shorten the rest.
    sizes = {
        "full": {"settle_s": 0.12, "stream_s": 0.02, "teardown_s": 0.09,
                 "establish_s": 0.13, "drain_s": 0.01},
        "quick": {"settle_s": 0.12, "stream_s": 0.005, "teardown_s": 0.07,
                  "establish_s": 0.105, "drain_s": 0.0025},
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.profile = _flow_profile(self.seed)

    def setup(self) -> None:
        self.env = env = Environment()
        self.node = node = NfvNode(env=env)
        node.create_vm("vm1", ["src0"])
        node.create_vm("vm2", ["dst0"])
        node.create_vm("vm3", ["div0"])
        node.switch.start()
        node.install_p2p_rule("src0", "dst0")
        node.settle_control_plane(extra_time=self.size["settle_s"])
        self.source = SourceApp(
            "src", node.vms["vm1"].pmd("src0"), profile=self.profile,
            rate_pps=self.RATE_PPS)
        self.sink = OrderCheckingSink("sink", node.vms["vm2"].pmd("dst0"))
        self.divert_sink = SinkApp("sink.divert",
                                   node.vms["vm3"].pmd("div0"))
        self.phase_bypasses = [node.active_bypasses]
        self._setup_done()

    def _advance(self, seconds: float) -> None:
        self.env.run(until=self.env.now + seconds)
        self.phase_bypasses.append(self.node.active_bypasses)

    def measure(self) -> None:
        env, node, size = self.env, self.node, self.size
        started = env.now
        for app in (self.sink, self.divert_sink, self.source):
            node.obs.register_poll_loop(app.start(env))
        self._advance(size["stream_s"])
        divert = Match(in_port=node.ofport("src0"), eth_type=0x0800,
                       ip_proto=6, l4_dst=80)
        node.controller.install_flow(
            divert, [OutputAction(node.ofport("div0"))],
            priority=self.DIVERT_PRIORITY)
        self._advance(size["teardown_s"])
        node.controller.delete_flow(divert, strict=True,
                                    priority=self.DIVERT_PRIORITY)
        self._advance(size["establish_s"])
        self.source.stop()
        self._advance(size["drain_s"])
        self.measured_sim_s = env.now - started

    def collect(self) -> dict:
        node, source, sink = self.node, self.source, self.sink
        delivered = sink.received + self.divert_sink.received
        layers, iters_per_pkt = _node_layers(node, [source], delivered)
        modelled, link_layers = _link_metrics(node)
        layers.update(link_layers)
        latency = sink.latency
        modelled.update({
            "sim_throughput_mpps":
                delivered / self.measured_sim_s / 1e6,
            "sim_latency_p50_us": latency.p50 * 1e6,
            "sim_latency_p99_us": latency.p99 * 1e6,
            "poll_iters_per_pkt": iters_per_pkt,
        })
        reservoir = min(latency.count, latency.reservoir_size)
        return {
            "accepted": source.generated,
            "delivered": delivered,
            "policy_dropped": 0,
            "modelled": modelled,
            "layers": layers,
            "checks": {
                "drained": source.pool.in_use == 0,
                "in_order": sink.out_of_order == 0,
                # up after set-up, still up while streaming, down after
                # the divert rule, up again after its removal and drain
                "active_bypasses": self.phase_bypasses == [1, 1, 0, 1, 1],
                "link_history":
                    [link.state for link in node.manager.history]
                    == [LinkState.REMOVED, LinkState.ACTIVE],
                # p99 needs >= 10 reservoir samples beyond it
                "latency_samples": reservoir >= 1000,
            },
            "notes": {
                "latency_reservoir": reservoir,
                "latency_population": latency.count,
                "offered_rate_pps": self.RATE_PPS,
                # open loop: bursts the stalled sender refused were due
                # and never sent; this is how late the generator ran
                "generator_rejected_pkts": source.tx_failures,
                "generator_late_sim_s": source.tx_failures / self.RATE_PPS,
            },
        }


# -- the switch alone, on its miss and flowmod path -----------------------------------


class SwitchMissChurn(Workload):
    """Synchronous ``VSwitchd`` without an ``Environment``: half the
    packets from 64 hot flows, half ever-new 5-tuples, under rule churn.

    The SMC is off, as real OVS ships and as ``megaflow_rule_scale``
    runs: the simulated SMC keeps no key tag.
    """

    name = spec.CHURN
    BURST = 32
    HOT_FLOWS = 64
    FILLER_RULES = 128
    CHURN_EVERY = 16
    sizes = {"full": {"bursts": 3000}, "quick": {"bursts": 750}}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Fresh mbufs per repetition: the datapath caches the flow key on
        # the mbuf, and a reused one would carry it into the next run.
        self.bursts = [
            [self._mbuf(packet) for packet in burst]
            for burst in _churn_packets(
                self.seed, int(self.size["bursts"]), self.BURST,
                self.HOT_FLOWS)
        ]

    @staticmethod
    def _mbuf(packet) -> Mbuf:
        mbuf = Mbuf()
        mbuf.packet = packet
        mbuf.wire_length = packet.wire_length
        return mbuf

    def setup(self) -> None:
        self.switch = switch = VSwitchd(name="perfbench")
        switch.datapath.smc_enabled = False
        self.rx = switch.add_dpdkr_port("rx")
        self.tx = switch.add_dpdkr_port("tx")
        table = switch.bridge.table
        # Never-matching filler over four eth_src mask widths (four
        # subtables) outranking the forwarding rule: the traffic's source
        # MAC starts 02, the fillers' 0A.
        full = (1 << 48) - 1
        for index in range(self.FILLER_RULES):
            shift = (0, 8, 16, 24)[index % 4]
            mask = (full << shift) & full
            value = (0x0A_00_00_00_00_00 | index << shift) & mask
            table.add(FlowEntry(Match(eth_src=(value, mask)), [],
                                priority=20))
        table.add(FlowEntry(Match(in_port=self.rx.ofport),
                            [OutputAction(self.tx.ofport)], priority=10))
        self._setup_done()

    def measure(self) -> None:
        switch, table = self.switch, self.switch.bridge.table
        to_switch = self.rx.rings.to_switch
        from_switch = self.tx.rings.to_guest
        # Overlaps every hot flow, so each add and delete invalidates
        # their cached entries; same output, so forwarding never changes.
        churn = Match(in_port=self.rx.ofport, eth_type=0x0800, ip_proto=17)
        actions = [OutputAction(self.tx.ofport)]
        sim_cost = 0.0
        offered = left_on_tx = 0
        for index, burst in enumerate(self.bursts):
            if index and index % self.CHURN_EVERY == 0:
                table.add(FlowEntry(churn, actions, priority=30))
                sim_cost += switch.step_dataplane()
                table.delete(churn, strict=True, priority=30)
            to_switch.enqueue_bulk(burst)
            offered += len(burst)
            sim_cost += switch.step_dataplane()
            left_on_tx += len(from_switch.dequeue_burst(len(burst)))
        self.sim_cost, self.offered, self.left_on_tx = (
            sim_cost, offered, left_on_tx)

    def collect(self) -> dict:
        datapath = self.switch.datapath
        layers = _datapath_layers(datapath, self.sim_cost,
                                  datapath.packets_processed)
        rings = (self.rx.rings.to_switch, self.rx.rings.to_guest,
                 self.tx.rings.to_switch, self.tx.rings.to_guest)
        layers["mem.ring.enqueue_failures"] = sum(
            ring.enqueue_failures for ring in rings)
        layers["mem.ring.partial_enqueues"] = sum(
            ring.partial_enqueues for ring in rings)
        return {
            "accepted": self.offered,
            "delivered": self.left_on_tx,
            "policy_dropped": 0,
            "modelled": {
                "sim_throughput_mpps":
                    self.left_on_tx / self.sim_cost / 1e6,
            },
            "layers": layers,
            "checks": {
                "all_left_on_tx":
                    self.left_on_tx == self.offered
                    == self.tx.tx_packets == self.rx.rx_packets,
                "drained": all(ring.is_empty for ring in rings),
                "no_upcalls": datapath.miss_upcalls == 0,
            },
            "notes": {"flowmods": 2 * ((len(self.bursts) - 1)
                                       // self.CHURN_EVERY)},
        }


@functools.lru_cache(maxsize=1)
def _churn_packets(seed: int, bursts: int, burst_size: int,
                   hot_flows: int) -> list:
    """The packet sequence of ``switch_miss_churn``: alternately one of
    ``hot_flows`` recurring flows and a 5-tuple never seen before.
    Building it is the slow part, so repetitions share one copy."""
    rng = random.Random(seed)
    hot = [make_udp_packet(frame_size=FRAME_SIZE, **_five_tuple(rng))
           for _ in range(hot_flows)]
    return [
        [hot[rng.randrange(hot_flows)] if slot % 2 == 0
         else make_udp_packet(frame_size=FRAME_SIZE, **_five_tuple(rng))
         for slot in range(burst_size)]
        for _ in range(bursts)
    ]


WORKLOADS = {
    cls.name: cls
    for cls in (VanillaSat, BypassSat, HandoverLoad, SwitchMissChurn)
}


# -- the traced run ---------------------------------------------------------------------

# (layer, owner, public callables): what the traced run wraps, at class
# or module level.  Layer names are spec.TRACED_LAYERS.
TRACE_TABLE = (
    ("sim.engine", Environment, ("step",)),
    ("vswitch.datapath", VSwitchd, ("step_dataplane",)),
    ("vswitch.datapath", Datapath,
     ("process_ports", "classify", "execute_actions", "flush_outputs")),
    ("vswitch.emc", ExactMatchCache,
     ("lookup", "insert", "invalidate_all", "invalidate_entry",
      "invalidate_matching", "flush")),
    ("vswitch.smc", SignatureMatchCache,
     ("probe", "account", "insert", "flush")),
    ("vswitch.megaflow", MegaflowCache,
     ("lookup", "insert", "invalidate_entry", "invalidate_matching",
      "flush")),
    ("vswitch.classifier", TupleSpaceClassifier,
     ("lookup", "lookup_hinted", "add_entry", "remove_entry")),
    ("openflow.table", FlowTable, ("add", "modify", "delete")),
    ("packet.flowkey", repro.packet.flowkey, ("extract_flow_key",)),
    ("packet.flowkey", repro.packet, ("extract_flow_key",)),
    ("packet.flowkey", repro.traffic.profiles, ("extract_flow_key",)),
    ("mem.ring", Ring,
     ("enqueue", "dequeue", "enqueue_bulk", "dequeue_bulk",
      "enqueue_burst", "dequeue_burst")),
    ("mem.mempool", Mempool,
     ("get", "get_bulk", "try_get", "put", "assign")),
    ("core.pmd", DualChannelPmd, ("rx_burst", "tx_burst")),
    ("core.detector", P2PLinkDetector, ("analyze_port", "refresh_all")),
    ("openflow.wire", repro.openflow.wire, ("encode", "decode")),
    ("obs.cycles", StageAccounting, ("add",)),
    ("metrics.latency", LatencyRecorder, ("record",)),
)


def _loop_layer(loop_name: str) -> Optional[str]:
    """The layer a poll loop's iteration callable belongs to."""
    if loop_name.startswith("ovs.pmd"):
        return "vswitch.datapath"
    if loop_name.startswith(("src", "sink")):
        return "traffic"
    if loop_name.endswith(".app"):
        return "apps.forwarder"
    return None   # housekeeping loops stay inside sim.engine's self time


def install_trace(tracer) -> Dict[str, int]:
    """Patch ``TRACE_TABLE`` and every ``PollLoop``'s iteration callable
    (named by loop) into ``tracer``; returns live counts of poll
    iterations run and of those that found nothing to do.
    ``tracer.restore()`` undoes all of it."""
    for layer, owner, attrs in TRACE_TABLE:
        for attr in attrs:
            tracer.wrap(layer, owner, attr)
    polls = {"iterations": 0, "idle": 0}
    original_init = PollLoop.__init__

    def traced_init(self, env, name, iteration, *args, **kwargs):
        def counted() -> float:
            cost = iteration()
            polls["iterations"] += 1
            if not cost:
                polls["idle"] += 1
            return cost

        layer = _loop_layer(name)
        original_init(
            self, env, name,
            counted if layer is None
            else tracer.traced(layer, "loop:%s" % name, counted),
            *args, **kwargs)

    tracer.patch(PollLoop, "__init__", traced_init)
    return polls


def traced_layers(summary: Dict[str, dict], names: Dict[str, dict],
                  polls: Dict[str, int], delivered: int) -> Dict[str, float]:
    """Layer metrics only the traced run can give: span and poll counts
    (``summary``/``names`` are ``Tracer.summary()``, ``polls`` is what
    ``install_trace`` returned)."""
    def calls(table: Dict[str, dict], key: str) -> int:
        return table.get(key, {}).get("calls", 0)

    events = calls(names, "Environment.step")
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_pkt": _ratio(events, delivered),
        "sim.pollloop.idle_iterations": polls["idle"],
        "sim.pollloop.idle_share":
            _ratio(polls["idle"], polls["iterations"]),
        "vswitch.datapath.calls": calls(names, "Datapath.process_ports"),
        # time inside the switch's entry points, callees included
        "vswitch.datapath.total_s": sum(
            row["total_s"] for name, row in names.items()
            if name.startswith(("loop:ovs.pmd", "VSwitchd.step_dataplane"))),
        "openflow.table.mods": calls(summary, "openflow.table"),
        "packet.flowkey.extractions": calls(summary, "packet.flowkey"),
        "mem.ring.ops": calls(summary, "mem.ring"),
        "mem.mempool.ops": calls(summary, "mem.mempool"),
        "core.pmd.rx_calls": calls(names, "DualChannelPmd.rx_burst"),
        "core.pmd.tx_calls": calls(names, "DualChannelPmd.tx_burst"),
        "openflow.wire.messages":
            calls(names, "repro.openflow.wire.encode"),
        "obs.cycles.adds": calls(summary, "obs.cycles"),
    }
