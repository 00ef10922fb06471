"""What a parked poll loop waits on.

A busy-poll loop (:class:`repro.sim.pollloop.PollLoop`) whose owner can
vouch for its idle polls leaves the event queue — it *parks* — until
something those polls read or publish changes.  Whatever can change it
is a :class:`Waitable`: a ring (an enqueue), the fault plan (a spec
added), the bounded upcall queue (an upcall admitted), a guest PMD (its
channels reconfigured, its VM killed).  Loops register on it and it
wakes the registered loops that are asleep.

A waiter is any object with two members:

* ``sleeping`` — True while it is parked until woken, and not yet
  woken;
* ``wake()`` — end that park.  Called only while ``sleeping`` is set.

A registration persists: it outlives the wake-up and every later park,
so an owner registers a loop the first time it parks on something and
from then on only tests ``loop in waitable.waiters`` (no call).  A
stale registration — the loop no longer reads the object — costs at
most a needless wake-up, which is always exact: a woken loop just polls.

This module imports nothing, so any layer can be waited on.
"""


class Waitable:
    """Mixin: :meth:`watch` registers a waiter, :meth:`wake_waiters`
    wakes the registered waiters that sleep.

    ``waiters`` is the tuple of registrations, oldest first; a producer
    on a per-packet path reads it inline — ``for waiter in
    self.waiters: if waiter.sleeping: waiter.wake()`` — instead of
    calling :meth:`wake_waiters`.  ``max_waiters`` (None: no bound)
    caps it: a full one drops its oldest registration for the new one,
    waking that waiter if it sleeps, since it may still read this
    object.  A ring has one polling consumer, so it keeps one.
    """

    waiters = ()
    max_waiters = None

    def watch(self, waiter) -> None:
        """Register ``waiter`` until it is displaced (never, without a
        ``max_waiters``); registering it again changes nothing."""
        waiters = self.waiters
        if waiter in waiters:
            return
        limit = self.max_waiters
        if limit is not None and len(waiters) >= limit:
            displaced = waiters[0]
            waiters = waiters[1:]
            if displaced.sleeping:
                displaced.wake()
        self.waiters = waiters + (waiter,)

    def wake_waiters(self) -> None:
        """What the registered waiters read changed: wake those asleep."""
        for waiter in self.waiters:
            if waiter.sleeping:
                waiter.wake()
