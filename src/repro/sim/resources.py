"""Shared-resource primitive for the event engine.

:class:`Resource` is a counted resource (e.g. a GPU, a disk head, a host
thread slot).  Processes ``request()`` a slot, yield the returned event,
and must ``release()`` when done; call-driven code passes a function to
``request_call()`` instead.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["Resource"]


class Resource:
    """A resource with ``capacity`` identical slots, FIFO grant order."""

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event | Callable[[Resource], Any]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        ev = self.engine.event()
        self.request_call(ev)
        return ev

    def request_call(self, waiter: Event | Callable[[Resource], Any]) -> None:
        """Call-style :meth:`request`: ``waiter(self)`` runs as an engine
        call once a slot is granted (an :class:`Event` waiter is succeeded
        instead).

        The call is scheduled where the request event's firing would be, so
        event and call waiters share one FIFO queue and interleave exactly.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self._grant(waiter)
        else:
            self._waiters.append(waiter)

    def release(self) -> None:
        """Free one slot; grants the longest-waiting request if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            self._grant(self._waiters.popleft())
        else:
            self._in_use -= 1

    def _grant(self, waiter: Event | Callable[[Resource], Any]) -> None:
        if isinstance(waiter, Event):
            waiter.succeed(self)
        else:
            self.engine.call(waiter, self)

    def cancel(self, waiter: Event | Callable[[Resource], Any]) -> None:
        """Withdraw a pending request, or release the slot granted to it.

        ``waiter`` is the event :meth:`request` returned or the function
        given to :meth:`request_call`.  Needed when the requester is
        interrupted: a request left in the waiter queue would be granted to
        a dead process later and leak the slot for good (deadlocking every
        other user).
        """
        try:
            self._waiters.remove(waiter)
        except ValueError:
            self.release()  # no longer queued: it was granted

    def use(self, duration: float):
        """Generator helper: acquire, hold for ``duration``, release.

        Interrupt-safe: an exception thrown in while waiting for the grant
        withdraws the request; one thrown in while holding releases the
        slot — either way no capacity is leaked.
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            self.cancel(req)
            raise
        try:
            yield self.engine.timeout(duration)
        finally:
            self.release()
