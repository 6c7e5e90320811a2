"""The one watchdog / retry / repair loop behind every guarded collective.

The paper's trainer runs one synchronous collective per iteration, so a
single fault stalls the whole machine.  Every fault defense wraps that
step in the generator :func:`guard`: race each attempt against the
watchdog; on a ``RankFailure`` roll back and repair *surgically* (drop
the victim, relaunch over the survivors, charge no retry); on a stall or
an attributable failure (a shuffle CRC error) roll back, diagnose and
retry with geometric backoff until :class:`RetryPolicy` gives up with
:class:`CollectiveTimeout`; anything else (a fleet preemption) rolls
back and propagates.  What differs between planes is an :class:`Attempt`;
the bindings are :func:`~repro.mpi.schedule.run_guarded`,
:func:`~repro.data.guard.run_shuffle_guarded` and the trainer's
gradient sum (private engines, driven by :func:`drive`), and
:class:`~repro.fleet.collective.FleetAttempt` (the shared fleet engine,
run with ``yield from``).  DESIGN §4f tabulates the attempt hooks per
plane.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Generator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.sim.engine import Event, Interrupt

if TYPE_CHECKING:
    from repro.mpi.schedule import FailureDiagnosis

__all__ = [
    "Attempt",
    "CollectiveTelemetry",
    "CollectiveTimeout",
    "RankFailure",
    "RetryPolicy",
    "drive",
    "guard",
]

R = TypeVar("R")


class RankFailure(RuntimeError):
    """Fail-stop: a learner process died and will not come back."""

    def __init__(self, rank: int, when: float = 0.0) -> None:
        super().__init__(f"rank {rank} failed at t={when:.6f}s")
        self.rank = rank
        self.when = when


class CollectiveTimeout(RuntimeError):
    """A collective did not complete within the detection deadline.

    Carries the last :class:`FailureDiagnosis` (when progress tracking ran)
    so the message names the suspected victim rank and step, not just the
    elapsed time.
    """

    def __init__(
        self,
        timeout: float,
        iteration: int,
        attempts: int,
        diagnosis: FailureDiagnosis | None = None,
    ) -> None:
        msg = (
            f"collective at iteration {iteration} timed out "
            f"({timeout:g}s simulated) after {attempts} attempt(s)"
        )
        if diagnosis is not None:
            msg += f"; {diagnosis}"
        super().__init__(msg)
        self.timeout = timeout
        self.iteration = iteration
        self.attempts = attempts
        self.diagnosis = diagnosis


@dataclass(frozen=True)
class RetryPolicy:
    """How a guarded collective detects and retries transient faults.

    ``timeout`` is the watchdog deadline of one attempt in simulated
    seconds; ``max_retries`` bounds the retries after the first attempt;
    retry *k* (from 0) backs off ``backoff * 2**k`` simulated seconds.
    """

    timeout: float = 60.0
    max_retries: int = 3
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if not self.timeout > 0:  # the negated form also rejects NaN
            raise ValueError(f"retry timeout must be > 0, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if not self.backoff >= 0:
            raise ValueError(f"retry backoff must be >= 0, got {self.backoff!r}")


@dataclass
class CollectiveTelemetry:
    """What one guarded collective cost: time, retries, faults observed.

    ``diagnoses`` collects one :class:`FailureDiagnosis` per retry;
    ``repaired_ranks`` lists the *group rank at failure time* of every
    victim surgically repaired around (in repair order — callers replay
    the pops against their own slot bookkeeping).
    """

    sim_time: float = 0.0
    retries: int = 0
    backoff: float = 0.0
    fault_events: list[Any] = field(default_factory=list)
    diagnoses: list[Any] = field(default_factory=list)
    repaired_ranks: list[int] = field(default_factory=list)

    @property
    def repairs(self) -> int:
        """Surgical repairs performed (permanent rank losses)."""
        return len(self.repaired_ranks)


class Attempt(ABC, Generic[R]):
    """One plane's side of a guarded collective; :func:`guard` drives it.

    The guard calls, per attempt: :meth:`next_victim` until it returns
    ``None``, :meth:`solo` when one rank is left, else :meth:`launch`;
    then :meth:`commit` on success, or :meth:`rollback` followed by
    :meth:`drop` (a ``RankFailure``) or :meth:`diagnose` (anything else).
    """

    #: Sleep retry backoff in shared simulated time instead of only
    #: accounting it (a private engine is discarded after each attempt).
    sleeps_backoff = False

    def __init__(self, *, fault_injector: Any = None, iteration: int = 0) -> None:
        self.fault_injector = fault_injector
        self.iteration = iteration
        self._mark = 0

    @property
    @abstractmethod
    def size(self) -> int:
        """Live ranks in the group."""

    def next_victim(self) -> int | None:
        """A rank lost since the last attempt, to drop before launching."""
        return None

    @abstractmethod
    def drop(self, rank: int) -> None:
        """Remove a permanently failed rank from the group."""

    @abstractmethod
    def solo(self) -> R:
        """The result for a lone survivor (no collective to run)."""

    @abstractmethod
    def launch(self) -> Event:
        """Start one attempt; returns its completion event."""

    @abstractmethod
    def diagnose(self, failure: Exception | None) -> FailureDiagnosis | None:
        """Attribute a failed attempt.

        ``failure`` is ``None`` for a watchdog stall (always diagnosed);
        otherwise it is the exception the attempt raised, and ``None``
        means it is not retryable and propagates.
        """

    @abstractmethod
    def rollback(self) -> None:
        """Abandon the attempt and restore every rank's pre-attempt state."""

    @abstractmethod
    def commit(self) -> R:
        """Make a completed attempt's result final and return it."""

    def arm(self, engine: Any, world: Any, procs: Sequence[Any]) -> None:
        """Arm the fault injector (if any) against a launched attempt."""
        if self.fault_injector is not None:
            self._mark = len(self.fault_injector.events)
            self.fault_injector.arm(engine, world, procs, self.iteration)

    def fault_events(self) -> list[Any]:
        """Injected faults that fired since the last :meth:`arm`."""
        if self.fault_injector is None:
            return []
        return list(self.fault_injector.events_since(self._mark))


def guard(
    attempt: Attempt[R],
    retry: RetryPolicy,
    telemetry: CollectiveTelemetry,
) -> Generator[Event, Any, R]:
    """Generator: run ``attempt`` to completion under ``retry``.

    Yields the watchdog gate (and, for attempts that sleep it, the
    backoff timeout); returns the committed result.  ``telemetry`` is
    updated in place, in the order sim time, fault events, diagnosis,
    retries, backoff — also when an exception escapes, so callers can
    account partial attempts.
    """
    backoff = retry.backoff
    attempts = 0
    while True:
        victim = attempt.next_victim()
        while victim is not None:
            telemetry.repaired_ranks.append(victim)
            attempt.drop(victim)
            victim = attempt.next_victim()
        if attempt.size == 1:
            return attempt.solo()
        done = attempt.launch()
        engine = done.engine
        gate = engine.any_of([done, engine.timeout(retry.timeout)])
        # A waiter interrupted away from the gate (a fleet preemption)
        # leaves the gate's later failure unobserved: mark it handled now.
        gate.defuse()
        start = engine.now
        failure: Exception | None = None
        try:
            yield gate
        except Exception as exc:
            failure = exc
        telemetry.sim_time += engine.now - start
        telemetry.fault_events.extend(attempt.fault_events())
        if failure is None and done.triggered:
            return attempt.commit()
        attempt.rollback()
        cause = failure.cause if isinstance(failure, Interrupt) else None
        if isinstance(cause, RankFailure):
            telemetry.repaired_ranks.append(cause.rank)
            attempt.drop(cause.rank)
            continue
        diagnosis = attempt.diagnose(failure)
        if failure is not None and diagnosis is None:
            raise failure
        telemetry.diagnoses.append(diagnosis)
        attempts += 1
        telemetry.retries += 1
        if attempts > retry.max_retries:
            raise CollectiveTimeout(
                retry.timeout, attempt.iteration, attempts, diagnosis
            ) from failure
        telemetry.backoff += backoff
        telemetry.sim_time += backoff
        if attempt.sleeps_backoff:
            yield engine.timeout(backoff)
        backoff *= 2


def drive(steps: Generator[Event, Any, R]) -> R:
    """Run a guard whose attempts each own a private engine.

    Each yielded event runs to completion on its own engine; a failure
    raised there is thrown back into the guard.
    """
    try:
        event = next(steps)
        while True:
            try:
                event.engine.run(event)
            except Exception as exc:
                event = steps.throw(exc)
            else:
                event = steps.send(None)
    except StopIteration as stop:
        return stop.value
