"""The build-then-free source, kept as the oracle the ask-first
``SourceApp`` is checked against.

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
            mbuf.ts_created = now
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
