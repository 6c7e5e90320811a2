"""Single-heap engine: the differential reference for the same-time FIFO.

:class:`repro.sim.engine.Engine` used to keep every entry, due now or
later, in one heap of ``(time, priority, sequence, fn, arg)`` tuples, and
broke equal-time ties on the sequence counter.  It now runs the calls due
at the current time from a FIFO beside a heap of future entries, in the
same order.  This module keeps the single-heap engine and its events
verbatim, so a test can run one program on both engines and compare every
step's clock and effect, the step count and :meth:`Engine.peek` exactly.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

# Heap entries sort by (time, priority, sequence); every entry has this one.
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (not model failures)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with callbacks and an optional value.

    Lifecycle: *pending* -> ``succeed``/``fail`` (becomes *triggered*) ->
    processed by the engine loop (callbacks run, becomes *processed*).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, *, delay: float = 0.0) -> "Event":
        """Trigger successfully, scheduling callbacks after ``delay``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._ok = True
        self._value = value
        engine = self.engine
        engine._seq += 1
        heapq.heappush(
            engine._heap, (engine._now + delay, NORMAL, engine._seq, engine._fire, self)
        )
        return self

    def fail(self, exc: BaseException, *, delay: float = 0.0) -> "Event":
        """Trigger as failed; waiting processes receive ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self.succeed(exc, delay=delay)
        self._ok = False  # nothing runs between the push and this
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the engine does not crash on it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(engine)
        self.delay = delay
        self._ok = True
        self._value = value
        engine.call(engine._fire, self, delay)


class Process(Event):
    """A running generator; also an event that fires when it finishes."""

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(engine)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulation time.
        engine.call(self._send)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self._detach()
        self.engine.call(self._throw, Interrupt(cause))

    # -- internal ----------------------------------------------------------
    def _detach(self) -> None:
        """Stop waiting on the current target; its wakeup is dropped."""
        target = self._waiting_on
        if target is not None and self._resume in (target.callbacks or ()):
            target.callbacks.remove(self._resume)
        self._waiting_on = None

    def _resume(self, event: Event) -> None:
        if event is not self._waiting_on:
            return  # a wakeup an interrupt cancelled while it was queued
        self._waiting_on = None
        if event._ok:
            self._step(self._generator.send, event._value)
        else:
            event._defused = True
            self._step(self._generator.throw, event._value)

    def _send(self, value: Any) -> None:
        self._step(self._generator.send, value)

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            # It finished first: interrupted from inside its own step, it
            # returned without yielding again (or an earlier interrupt
            # ended it).  There is nothing left to interrupt.
            return
        self._detach()  # a wait begun since interrupt(), e.g. by the boot
        self._step(self._generator.throw, exc)

    def _step(self, advance: Callable[[Any], Event], arg: Any) -> None:
        try:
            target = advance(arg)
        except StopIteration as stop:
            super().succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - model code may raise anything
            super().fail(exc)
            return
        if not isinstance(target, Event):
            super().fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected an Event"
                )
            )
            return
        if target.engine is not self.engine:
            super().fail(SimulationError("yielded event belongs to another engine"))
            return
        self._waiting_on = target
        if target.callbacks is None:
            # Already processed: resume immediately (at the current time).
            self.engine.call(self._resume, target)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        self._remaining = 0
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev, immediate=True)
            else:
                self._remaining += 1
                ev.callbacks.append(self._on_child)
        self._finalize_empty()

    def _finalize_empty(self) -> None:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        self._check(event, immediate=False)

    def _check(self, event: Event, *, immediate: bool) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered; value is a list."""

    __slots__ = ()

    def _finalize_empty(self) -> None:
        if self._remaining == 0 and self._ok is None:
            self.succeed([ev._value for ev in self.events])

    def _check(self, event: Event, *, immediate: bool) -> None:
        if not event._ok:
            event._defused = True
            if self._ok is None:
                self.fail(event._value)
            return
        if not immediate:
            self._remaining -= 1
        if self._remaining == 0 and self._ok is None:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when the first child event triggers; value is that value."""

    __slots__ = ()

    def _finalize_empty(self) -> None:
        if not self.events and self._ok is None:
            self.succeed(None)

    def _check(self, event: Event, *, immediate: bool) -> None:
        if self._ok is not None:
            if not event._ok:
                event._defused = True
            return
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)


class Engine:
    """The event loop: a heap of timed calls, run one at a time."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Callable[[Any], Any], Any]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def call(self, fn: Callable[[Any], Any], arg: Any = None, delay: float = 0.0) -> None:
        """Run ``fn(arg)`` ``delay`` seconds from now, after every entry
        already scheduled for that time (FIFO at equal times).

        An exception raised by ``fn`` propagates out of :meth:`run` as is.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, NORMAL, self._seq, fn, arg))

    def _fire(self, event: Event) -> None:
        """Run a triggered event's callbacks; an unhandled failure raises."""
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise event._value

    # -- running ----------------------------------------------------------
    def step(self) -> None:
        """Run the single next heap entry."""
        if not self._heap:
            raise SimulationError("cannot step: no scheduled events")
        when, _prio, _seq, fn, arg = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past (engine bug)")
        self._now = when
        fn(arg)

    def run(self, until: Event | float | None = None) -> Any:
        """Run until ``until`` (an event, an absolute time, or exhaustion).

        Returns the event's value if ``until`` is an event.
        """
        if isinstance(until, Event):
            stop_event = until
            if stop_event.engine is not self:
                raise SimulationError("run(until=...) event from another engine")
            while stop_event.callbacks is not None:
                if not self._heap:
                    raise SimulationError(
                        "deadlock: event queue empty but run-until event "
                        f"{stop_event!r} never triggered"
                    )
                self.step()
            if not stop_event.ok:
                raise stop_event._value
            return stop_event._value
        if until is not None:
            horizon = float(until)
            if not horizon >= self._now:
                raise ValueError(f"until={horizon} must be a time >= now={self._now}")
            while self._heap and self._heap[0][0] <= horizon:
                self.step()
            self._now = horizon
            return None
        while self._heap:
            self.step()
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")
