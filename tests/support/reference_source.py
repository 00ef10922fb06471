"""The build-then-free source, kept as the oracle the ask-first
``SourceApp`` is checked against; and the per-burst TX resolver, the
oracle of the dual-channel PMD's bound TX path.

Until the source asked its port first (``EthDev.tx_room``),
``SourceApp.iteration`` allocated every packet the pacer allowed,
stamped each one, offered the whole burst to ``tx_burst`` and freed what
the port refused — at saturation three mbufs built and freed for each
one delivered.  ``BuildThenFreeSource.iteration`` is that method as it
stood, against the names production keeps (``_allowance``, ``pool``,
``_next_template``, ``_seq``, ``_credit``, ``generated``,
``tx_failures``): it never calls ``tx_room``, so every refusal is
counted by ``tx_burst`` itself, which is what the new source's books
must read like.
"""

from repro.core.pmd import TxState
from repro.traffic.generator import SourceApp


class BuildThenFreeSource(SourceApp):
    def iteration(self) -> float:
        env = self._env
        now = env.now if env is not None else 0.0
        count = self._allowance(now)
        if count <= 0:
            return 0.0
        if count > self.burst_size:
            count = self.burst_size
        pool = self.pool
        available = pool.available
        if count > available:
            count = available
        if count <= 0:
            return 0.0
        mbufs = pool.get_bulk(count)
        tracer = self.tracer
        templates = self.profile.templates
        cycle = len(templates)
        index = self._next_template
        seq = self._seq
        for mbuf in mbufs:
            if index >= cycle:
                index = 0
            template = templates[index]
            index += 1
            mbuf.packet = template.packet
            mbuf.wire_length = template.wire_length
            mbuf.userdata = template.flow_key
            mbuf.seq = seq
            seq += 1
            mbuf.ts_injected = now
            if tracer is not None:
                tracer.ingress(mbuf, source=self.name)
        self._next_template = index
        self._seq = seq
        port = self.port
        sent = port.tx_burst(mbufs)
        if sent < count:
            for rejected in mbufs[sent:]:
                self.tx_failures += 1
                rejected.free()
        self.generated += sent
        if self.rate_pps is not None:
            self._credit -= count
        costs = self.costs
        return costs.burst_overhead + count * (
            costs.vm_forward + port.tx_extra_cost
        )


def resolve_tx(pmd):
    """``(ring, tx_extra_cost)`` of a burst ``pmd`` would send now,
    worked out from its state at the burst, as ``DualChannelPmd`` did
    before it bound its TX path: the ring is None while the port refuses
    every burst (killed); PENDING_BYPASS sends on the normal
    channel until that has drained and then flips — computed here, not
    made.  The extra cost is the bypass's alone: the shared-stats update
    when accounting is on, then the channel program."""
    state = pmd.tx_state
    ring = None
    if not pmd.killed:
        if state is TxState.PENDING_BYPASS:
            if pmd.rings.to_switch.is_empty:
                state = TxState.BYPASS
            else:
                ring = pmd.rings.to_switch
        if state is TxState.NORMAL:
            ring = pmd.rings.to_switch
        elif state is TxState.BYPASS:
            ring = pmd.bypass_tx_ring
    extra = 0.0
    if state is TxState.BYPASS:
        if pmd.accounting_enabled:
            extra += pmd.stats_update_cost
        if pmd.bypass_xfsm is not None:
            extra += pmd.xfsm_exec_cost
    return ring, extra
