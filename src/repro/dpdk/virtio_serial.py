"""virtio-serial: the host <-> guest control channel.

The compute agent uses this to reconfigure the in-guest PMD (attach /
detach a bypass channel) without touching the network path.  Delivery is
in-order, one engine process per message, after a configurable one-way
latency.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.faults import SERIAL_TO_GUEST, SERIAL_TO_HOST, FaultMode, FaultPlan
from repro.sim.engine import Environment


@dataclass
class ControlMessage:
    """One message on the control channel."""

    command: str
    args: Dict[str, Any] = field(default_factory=dict)


Handler = Callable[[ControlMessage], Optional[ControlMessage]]


class VirtioSerial:
    """A bidirectional, in-order host/guest message channel.

    ``guest_handler`` / ``host_handler`` are invoked on delivery; a
    handler's non-None return value is sent back as an in-order reply on
    the opposite direction (request/response is how the agent confirms the
    PMD really switched channels before reporting success to OVS).
    """

    def __init__(
        self,
        name: str,
        env: Environment,
        one_way_latency: float = 0.009,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.name = name
        self.env = env
        self.one_way_latency = one_way_latency
        self.faults = faults
        self.guest_handler: Optional[Handler] = None
        self.host_handler: Optional[Handler] = None
        self.to_guest_log: List[ControlMessage] = []
        self.to_host_log: List[ControlMessage] = []
        self.dropped_messages = 0
        # Set by kill(): the device is gone (VM crashed).  Everything
        # sent afterwards — including messages already in flight when
        # the crash hit — vanishes; senders recover via their timeouts.
        self.dead = False

    def kill(self) -> None:
        """The backing device died mid-conversation (VM crash)."""
        self.dead = True

    # -- sending ------------------------------------------------------------

    def host_send(self, message: ControlMessage) -> None:
        """Host -> guest; delivered after the one-way latency."""
        if self.dead:
            self.dropped_messages += 1
            return
        self.to_guest_log.append(message)
        self._deliver(message, to_guest=True)

    def guest_send(self, message: ControlMessage) -> None:
        """Guest -> host."""
        if self.dead:
            self.dropped_messages += 1
            return
        self.to_host_log.append(message)
        self._deliver(message, to_guest=False)

    # -- plumbing ---------------------------------------------------------------

    def _deliver(self, message: ControlMessage, *, to_guest: bool) -> None:
        extra_delay = 0.0
        if self.faults is not None:
            point = SERIAL_TO_GUEST if to_guest else SERIAL_TO_HOST
            action = self.faults.fire(point)
            if action is not None:
                if action.mode in (FaultMode.DROP, FaultMode.CRASH):
                    # The message vanishes in transit; the sender only
                    # recovers through its own timeout.
                    self.dropped_messages += 1
                    return
                if action.mode is FaultMode.DELAY:
                    extra_delay = action.delay
                elif action.mode is FaultMode.ERROR:
                    # Corrupted in transit: the receiver sees an explicit
                    # error carrying the same request id, so request/
                    # response correlation still works and the sender
                    # gets a prompt NACK instead of a silent loss.
                    message = ControlMessage("error", {
                        "request_id": message.args.get("request_id"),
                        "reason": action.message,
                    })
        self.env.process(
            self._delayed_dispatch(message, to_guest, extra_delay),
            name="%s.deliver" % self.name,
        )

    def _delayed_dispatch(self, message: ControlMessage, to_guest: bool,
                          extra_delay: float = 0.0):
        yield self.env.timeout(self.one_way_latency + extra_delay)
        if self.dead:
            # The VM crashed while this message was on the wire.
            self.dropped_messages += 1
            return
        try:
            self._dispatch(message, to_guest=to_guest)
        except Exception as error:  # noqa: BLE001 - NACK, don't crash
            # The receiver rejected the command — typically a straggler
            # referring to state (a zone, an attachment) that was rolled
            # back while the message was in flight.  Surface a NACK to
            # the sender; crashing the channel would take the simulated
            # host down with it.
            if message.command == "error":
                # An error reply that itself failed to deliver ends
                # here — NACKing a NACK would ping-pong forever.
                self.dropped_messages += 1
                return
            reply = ControlMessage("error", {
                "request_id": message.args.get("request_id"),
                "reason": str(error),
            })
            if to_guest:
                self.guest_send(reply)
            else:
                self.host_send(reply)

    def _dispatch(self, message: ControlMessage, *, to_guest: bool) -> None:
        handler = self.guest_handler if to_guest else self.host_handler
        if handler is None:
            raise RuntimeError(
                "virtio-serial %r: no %s handler attached"
                % (self.name, "guest" if to_guest else "host")
            )
        reply = handler(message)
        if reply is not None:
            if to_guest:
                self.guest_send(reply)
            else:
                self.host_send(reply)
