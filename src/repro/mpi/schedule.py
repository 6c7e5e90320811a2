"""Collective schedule IR: compile collectives to point-to-point DAGs.

Every collective in :mod:`repro.mpi.collectives` is a *compiler* that emits
a :class:`Schedule` — a rank-annotated DAG of four primitive step types —
and one :class:`ScheduleExecutor` runs any schedule on the existing sim
engine and :class:`~repro.mpi.world.MPIWorld` channels.  This follows the
DAG model of synchronous SGD communication (Shi et al., arXiv:1805.03812):
once the communication pattern is explicit data, timing, profiling, fault
retry and overlap analysis are written once at the executor layer instead
of once per algorithm.

Step types
----------
* :class:`SendStep` — post an eager send of a buffer range to a peer.  A
  send completes locally the moment it is posted (MPI ``isend``); channel
  FIFO order is preserved because steps on one rank are chained by
  dependency edges in program order.
* :class:`RecvReduceStep` — receive the matching message and accumulate it
  into a buffer range (charging the rank's reduce CPU).
* :class:`CopyStep` — receive the matching message and overwrite a buffer
  range (charging the copy CPU).  With ``buf=None`` the message is consumed
  without touching memory (barrier tokens).
* :class:`ReduceLocalStep` — add one local buffer range into another
  without any communication (charging the reduce CPU).
* :class:`ComputeStep` — occupy the rank's GPU for a priced duration
  (layer forward/backward segments).  With ``buf`` set the step *produces*
  that gradient range when it finishes (optionally materialized by copying
  from ``src_buf``); with ``buf=None`` it is pure occupancy.
* :class:`OptimStep` — the parameter update for one gradient range: reads
  ``buf[lo:hi]`` when it starts, occupies the GPU, and (optionally) writes
  the result into ``dst_buf``.  The verifier's semantic pass proves the
  range is fully reduced before the read.

Dependency edges (``deps``) connect steps *on the same rank* only;
cross-rank ordering comes exclusively from message matching on
``(src, dst, key)``, exactly like MPI.  Compilers annotate steps with a
``note`` (segment/chunk metadata) so :func:`format_schedule` can render a
human-readable pipeline.

Executor-layer services
-----------------------
* :class:`ScheduleExecutor` — runs each rank's steps as dependency strands
  (call-driven state machines, not processes) plus one *proxy* process
  per rank; fault injectors interrupt the proxies exactly as they
  interrupted generator rank-programs.  Each strand records step begin and
  finish times in the run's one record (:class:`ExecutionProgress`); the
  bytes, messages and compute seconds of a run are read off the schedule.
* :func:`run_guarded` — one compiled collective under the shared
  watchdog/retry/repair loop (:mod:`repro.mpi.guard`), on a fresh
  private world per attempt.
* :func:`validate_schedule` — the schedule lint: acyclic (including
  cross-rank message edges), every receive matched by a send, balanced
  per-rank step counts, consistent element ranges.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Any, Callable, Iterable

from repro.mpi.analytic import (
    DEFAULT_DEADLINE_GRACE,
    DEFAULT_DEADLINE_SLACK,
    AlphaBetaModel,
)
from repro.mpi.datatypes import Buffer, SizeBuffer
from repro.mpi.guard import (
    Attempt,
    CollectiveTelemetry,
    CollectiveTimeout,
    RankFailure,
    RetryPolicy,
    drive,
    guard,
)
from repro.mpi.world import Communicator
from repro.sim.engine import Event, Interrupt, Process, SimulationError
from repro.sim.resources import Resource

__all__ = [
    "CollectiveTelemetry",
    "CollectiveTimeout",
    "ComputeStep",
    "CopyStep",
    "ExecutionProgress",
    "ExecutorAttempt",
    "FailureDiagnosis",
    "OptimStep",
    "RankFailure",
    "StalledStep",
    "attribute_stall",
    "diagnose_execution",
    "RecvReduceStep",
    "ReduceLocalStep",
    "Schedule",
    "ScheduleBuilder",
    "ScheduleError",
    "ScheduleExecutor",
    "SendStep",
    "format_schedule",
    "memoize_compiler",
    "run_guarded",
    "validate_schedule",
]


class ScheduleError(ValueError):
    """A schedule failed validation (cycle, unmatched message, bad range)."""


# -- IR -----------------------------------------------------------------------

def _record(cls):
    """Finish a ``@dataclass(frozen=True, slots=True)`` step class.

    Its ``__init__`` keeps the dataclass's parameters and defaults but writes
    each field through the field's slot descriptor rather than through
    ``object.__setattr__``: building a step costs about 40% less.
    Assigning or deleting any attribute raises ``FrozenInstanceError``, as
    it does on a frozen dataclass without slots (the slotted one raises
    ``TypeError`` for a name that is not a field).
    """
    params, body = [], []
    env: dict[str, Any] = {}
    for f in fields(cls):
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_record
@dataclass(frozen=True, slots=True)
class _Step:
    """Common step fields: identity, owning rank, same-rank dependencies."""

    sid: int
    rank: int
    deps: tuple[int, ...]
    note: str


@_record
@dataclass(frozen=True, slots=True)
class SendStep(_Step):
    """Post an eager send of ``buf[lo:hi]`` to ``dst`` under ``key``."""

    dst: int = 0
    key: object = None
    buf: str | None = "data"
    lo: int = 0
    hi: int = 0


@_record
@dataclass(frozen=True, slots=True)
class RecvReduceStep(_Step):
    """Receive from ``src`` under ``key`` and add into ``buf[lo:hi]``."""

    src: int = 0
    key: object = None
    buf: str = "data"
    lo: int = 0
    hi: int = 0


@_record
@dataclass(frozen=True, slots=True)
class CopyStep(_Step):
    """Receive from ``src`` under ``key`` and overwrite ``buf[lo:hi]``.

    With ``buf=None`` the message is consumed without a memory write
    (zero-byte synchronization tokens).
    """

    src: int = 0
    key: object = None
    buf: str | None = "data"
    lo: int = 0
    hi: int = 0


@_record
@dataclass(frozen=True, slots=True)
class ReduceLocalStep(_Step):
    """Add local ``src_buf[src_lo:src_hi]`` into ``buf[lo:hi]``."""

    buf: str = "data"
    lo: int = 0
    hi: int = 0
    src_buf: str = "data"
    src_lo: int = 0
    src_hi: int = 0


@_record
@dataclass(frozen=True, slots=True)
class ComputeStep(_Step):
    """Occupy ``rank``'s GPU for ``seconds`` (layer fwd/bwd segment).

    With ``buf`` set the step produces ``buf[lo:hi]`` when the compute
    finishes — the gradient for that bucket becomes available only then.
    When ``src_buf`` is also set the executor materializes the production
    by copying ``src_buf[lo:hi]`` into ``buf[lo:hi]`` (staged memory mode,
    used by the verifier's dynamic oracle); with ``src_buf=None`` the write
    is abstract (data mode: the gradient already lives in the buffer, so
    execution is a timing-only no-op and numerics are untouched).
    """

    seconds: float = 0.0
    buf: str | None = None
    lo: int = 0
    hi: int = 0
    src_buf: str | None = None


@_record
@dataclass(frozen=True, slots=True)
class OptimStep(_Step):
    """The parameter update for gradient range ``buf[lo:hi]``.

    Reads the gradient range at the moment it *starts* (so an update
    racing an in-flight reduction really does consume stale values), then
    occupies the GPU for ``seconds``.  With ``dst_buf`` set the updated
    parameters are written there when the compute finishes; with
    ``dst_buf=None`` the step is read-only (data mode).
    """

    seconds: float = 0.0
    buf: str = "data"
    lo: int = 0
    hi: int = 0
    dst_buf: str | None = None


Step = (
    SendStep | RecvReduceStep | CopyStep | ReduceLocalStep | ComputeStep | OptimStep
)


@dataclass(frozen=True)
class Schedule:
    """A compiled collective: an immutable DAG of steps over ``n_ranks``.

    ``count``/``itemsize`` describe the main (``"data"``) buffer the
    schedule was compiled for; the executor checks bound buffers against
    them.  Schedules are safely shared across executors and cached by
    :func:`memoize_compiler`.
    """

    name: str
    n_ranks: int
    steps: tuple[Step, ...]
    count: int | None = None
    itemsize: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def rank_steps(self, rank: int) -> list[Step]:
        """``rank``'s steps in sid order."""
        return list(self._by_rank.get(rank, ()))

    @functools.cached_property
    def _by_rank(self) -> dict[int, list[Step]]:
        """Every rank's steps, indexed once per (immutable) schedule."""
        by_rank: dict[int, list[Step]] = {}
        for s in self.steps:
            by_rank.setdefault(s.rank, []).append(s)
        return by_rank

    # The structural analysis below is computed at most once per schedule
    # object and shared by the lint, the happens-before graph and the
    # bounds pass.  Caching on a frozen schedule of frozen steps is sound;
    # a failed analysis raises and caches nothing, so it raises again.

    @functools.cached_property
    def _message_pairs(self) -> tuple[tuple[int, int], ...]:
        """(send sid, recv sid) per matched message: see :func:`_message_edges`."""
        return tuple(_message_edges(self))

    @functools.cached_property
    def _canonical_order(self) -> tuple[int, ...]:
        """The min-sid happens-before linearization: see :func:`_min_sid_order`."""
        return _min_sid_order(self)

    @functools.cached_property
    def _lint_summary(self) -> dict[str, Any]:
        """The summary of a passed lint: see :func:`validate_schedule`."""
        return _lint(self)

    def step_counts(self) -> dict[str, int]:
        """Number of steps per step-type name (for profiles and displays)."""
        counts: dict[str, int] = {}
        for s in self.steps:
            counts[type(s).__name__] = counts.get(type(s).__name__, 0) + 1
        return counts


def _norm_deps(deps: int | Iterable[int | None] | None) -> tuple[int, ...]:
    if type(deps) is int:  # the common case, checked first
        return (deps,)
    if deps is None:
        return ()
    if isinstance(deps, int):
        return (deps,)
    return tuple(sorted({d for d in deps if d is not None}))


class ScheduleBuilder:
    """Appends steps in dependency order; emitting methods return the sid.

    Builders are append-only: a step may only depend on already-emitted
    steps of the same rank, which makes same-rank dependency cycles
    impossible by construction (cross-rank message cycles are caught by
    :func:`validate_schedule`).
    """

    def __init__(
        self,
        n_ranks: int,
        *,
        name: str = "schedule",
        count: int | None = None,
        itemsize: int | None = None,
    ):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.name = name
        self.count = count
        self.itemsize = itemsize
        self._steps: list[Step] = []

    def _admit(self, rank: int, deps: tuple[int, ...]) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ScheduleError(f"rank {rank} out of range [0, {self.n_ranks})")
        steps = self._steps
        n_steps = len(steps)
        for d in deps:
            if not 0 <= d < n_steps:
                raise ScheduleError(f"dep {d} references a step not yet emitted")
            if steps[d].rank != rank:
                raise ScheduleError(
                    f"dep {d} crosses ranks ({steps[d].rank} -> {rank}); "
                    "cross-rank ordering must use message matching"
                )

    def send(self, rank, dst, key, lo=0, hi=0, *, deps=None, buf="data", note=""):
        deps = _norm_deps(deps)
        self._admit(rank, deps)
        sid = len(self._steps)
        self._steps.append(SendStep(sid, rank, deps, note, dst, key, buf, lo, hi))
        return sid

    def recv_reduce(self, rank, src, key, lo, hi, *, deps=None, buf="data", note=""):
        deps = _norm_deps(deps)
        self._admit(rank, deps)
        sid = len(self._steps)
        self._steps.append(RecvReduceStep(sid, rank, deps, note, src, key, buf, lo, hi))
        return sid

    def copy(self, rank, src, key, lo=0, hi=0, *, deps=None, buf="data", note=""):
        deps = _norm_deps(deps)
        self._admit(rank, deps)
        sid = len(self._steps)
        self._steps.append(CopyStep(sid, rank, deps, note, src, key, buf, lo, hi))
        return sid

    def recv(self, rank, src, key, *, deps=None, note=""):
        """Consume a message without writing memory (synchronization token)."""
        return self.copy(rank, src, key, 0, 0, deps=deps, buf=None, note=note)

    def reduce_local(
        self, rank, lo, hi, src_lo, src_hi, *,
        buf="data", src_buf="data", deps=None, note="",
    ):
        deps = _norm_deps(deps)
        self._admit(rank, deps)
        sid = len(self._steps)
        self._steps.append(
            ReduceLocalStep(sid, rank, deps, note, buf, lo, hi, src_buf, src_lo, src_hi)
        )
        return sid

    def compute(
        self, rank, seconds, *,
        buf=None, lo=0, hi=0, src_buf=None, deps=None, note="",
    ):
        """GPU occupancy for a fwd/bwd segment; ``buf`` marks production."""
        deps = _norm_deps(deps)
        self._admit(rank, deps)
        sid = len(self._steps)
        self._steps.append(
            ComputeStep(sid, rank, deps, note, seconds, buf, lo, hi, src_buf)
        )
        return sid

    def optim(
        self, rank, seconds, lo, hi, *,
        buf="data", dst_buf=None, deps=None, note="",
    ):
        """Parameter update reading gradient ``buf[lo:hi]`` at start."""
        deps = _norm_deps(deps)
        self._admit(rank, deps)
        sid = len(self._steps)
        self._steps.append(
            OptimStep(sid, rank, deps, note, seconds, buf, lo, hi, dst_buf)
        )
        return sid

    def build(self, *, validate: bool = False) -> Schedule:
        schedule = Schedule(
            name=self.name,
            n_ranks=self.n_ranks,
            steps=tuple(self._steps),
            count=self.count,
            itemsize=self.itemsize,
        )
        if validate:
            try:
                validate_schedule(schedule)
            except ScheduleError as exc:
                raise ScheduleError(
                    f"schedule {self.name!r} failed validation: {exc}"
                ) from exc
        return schedule


# -- lint ---------------------------------------------------------------------

def _message_edges(schedule: Schedule) -> list[tuple[int, int]]:
    """Pair sends with receives; returns (send_sid, recv_sid) edges.

    Matching follows the runtime exactly: per ``(src, dst, key)`` triple,
    the *i*-th posted send pairs with the *i*-th posted receive (channel
    FIFO plus per-key mailbox FIFO).  Raises :class:`ScheduleError` on any
    unmatched or inconsistent message.
    """
    sends: dict[tuple[int, int, object], list[SendStep]] = {}
    recvs: dict[tuple[int, int, object], list[Step]] = {}
    for s in schedule.steps:
        if isinstance(s, SendStep):
            sends.setdefault((s.rank, s.dst, s.key), []).append(s)
        elif isinstance(s, (RecvReduceStep, CopyStep)):
            recvs.setdefault((s.src, s.rank, s.key), []).append(s)
    edges: list[tuple[int, int]] = []
    for triple, send_list in sends.items():
        recv_list = recvs.pop(triple, [])
        if len(recv_list) != len(send_list):
            src, dst, key = triple
            raise ScheduleError(
                f"{len(send_list)} send(s) {src}->{dst} key={key!r} but "
                f"{len(recv_list)} matching receive(s)"
            )
        for snd, rcv in zip(send_list, recv_list):
            if rcv.buf is not None and (rcv.hi - rcv.lo) != (snd.hi - snd.lo):
                raise ScheduleError(
                    f"element count mismatch on {triple}: send step {snd.sid} "
                    f"carries {snd.hi - snd.lo}, receive step {rcv.sid} "
                    f"expects {rcv.hi - rcv.lo}"
                )
            edges.append((snd.sid, rcv.sid))
    if recvs:
        (src, dst, key), orphans = next(iter(recvs.items()))
        raise ScheduleError(
            f"receive step {orphans[0].sid} at rank {dst} expects a message "
            f"from {src} key={key!r} but no send posts it"
        )
    return edges


def validate_schedule(schedule: Schedule) -> dict[str, Any]:
    """Lint a schedule; raises :class:`ScheduleError` on any violation.

    Checks: step ids are dense and deps are same-rank backward references;
    compute durations are finite and non-negative; buffer ranges are sane;
    every receive is matched by exactly one send (and vice versa) with
    consistent element counts; per-rank send/receive counts balance
    pairwise; and the full happens-before graph — same-rank dependency
    edges plus send->receive message edges — is acyclic, which rules out
    deadlock under eager sends.

    The lint runs once per schedule: a schedule that passed is not linted
    again, and one that failed raises on every call.

    Returns a summary dict (step counts, per-rank balance) for reporting.
    """
    summary = schedule._lint_summary
    return {
        **summary,
        "step_counts": dict(summary["step_counts"]),
        "sends_per_rank": list(summary["sends_per_rank"]),
        "recvs_per_rank": list(summary["recvs_per_rank"]),
    }


def _lint(schedule: Schedule) -> dict[str, Any]:
    """The lint behind :func:`validate_schedule`, uncached; reports the
    first violation in step order, then pairing, cycle and balance."""
    steps = schedule.steps
    n_ranks = schedule.n_ranks
    count = schedule.count
    sent = [0] * n_ranks
    received = [0] * n_ranks
    for i, s in enumerate(steps):
        if s.sid != i:
            raise ScheduleError(f"step at position {i} has sid {s.sid}")
        rank = s.rank
        if not 0 <= rank < n_ranks:
            raise ScheduleError(f"step {i} rank {rank} out of range")
        for d in s.deps:
            if not 0 <= d < i:
                raise ScheduleError(f"step {i} dep {d} is not a backward reference")
            if steps[d].rank != rank:
                raise ScheduleError(f"step {i} dep {d} crosses ranks")
        if isinstance(s, (ComputeStep, OptimStep)) and not 0 <= s.seconds < math.inf:
            kind = "negative" if s.seconds < 0 else "non-finite"
            raise ScheduleError(f"step {i} has {kind} duration {s.seconds!r}")
        for lo, hi in _ranges_of(s):
            if not 0 <= lo <= hi:
                raise ScheduleError(f"step {i} has invalid range [{lo}, {hi})")
            if count is not None and hi > count:
                raise ScheduleError(
                    f"step {i} range [{lo}, {hi}) exceeds count {count}"
                )
        if isinstance(s, SendStep):
            peer, verb = s.dst, "sends to"
            sent[rank] += 1
        elif isinstance(s, (RecvReduceStep, CopyStep)):
            peer, verb = s.src, "receives from"
            received[rank] += 1
        else:
            continue
        if peer is not None and not 0 <= peer < n_ranks:
            raise ScheduleError(f"step {i} peer rank {peer} out of range")
        if peer == rank:
            # A rank messaging itself never matches: the executor's
            # send and receive strands would deadlock silently.
            raise ScheduleError(f"step {i} rank {rank} {verb} itself")

    pairs = schedule._message_pairs
    schedule._canonical_order  # raises on a dependency/message cycle
    if sum(sent) != sum(received):
        raise ScheduleError(
            f"unbalanced step counts: {sum(sent)} sends vs {sum(received)} receives"
        )
    return {
        "n_steps": len(steps),
        "n_messages": len(pairs),
        "step_counts": schedule.step_counts(),
        "sends_per_rank": sent,
        "recvs_per_rank": received,
    }


def _min_sid_order(schedule: Schedule) -> tuple[int, ...]:
    """The canonical linearization of a schedule's happens-before graph.

    Kahn's algorithm with a min-sid heap over dependency and message
    edges: of all topological orders, the lexicographically smallest, so
    every pass that walks it visits steps in the same order.  Raises
    :class:`ScheduleError` on a cycle.
    """
    steps = schedule.steps
    n = len(steps)
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for s in steps:
        if s.deps:
            indeg[s.sid] = len(s.deps)
            for d in s.deps:
                succs[d].append(s.sid)
    for snd, rcv in schedule._message_pairs:
        succs[snd].append(rcv)
        indeg[rcv] += 1
    heap = [i for i in range(n) if not indeg[i]]  # ascending: already a heap
    order: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        u = pop(heap)
        order.append(u)
        for v in succs[u]:
            indeg[v] -= 1
            if not indeg[v]:
                push(heap, v)
    if len(order) != n:
        stuck = [i for i in range(n) if indeg[i] > 0]
        raise ScheduleError(
            f"schedule has a dependency/message cycle involving steps {stuck[:8]}"
        )
    return tuple(order)


def _ranges_of(s: Step) -> list[tuple[int, int]]:
    if isinstance(s, ReduceLocalStep):
        return [(s.lo, s.hi), (s.src_lo, s.src_hi)]
    if isinstance(s, OptimStep):
        return [(s.lo, s.hi)]
    if s.buf is None:
        return []
    return [(s.lo, s.hi)]


def format_schedule(schedule: Schedule, *, max_steps: int | None = None) -> str:
    """Human-readable rendering of a schedule, grouped by rank."""
    counts = ", ".join(
        f"{v} {k}" for k, v in sorted(schedule.step_counts().items())
    )
    lines = [
        f"schedule {schedule.name!r}: {schedule.n_ranks} ranks, "
        f"{schedule.n_steps} steps ({counts or 'empty'})"
    ]
    shown = 0
    for rank in range(schedule.n_ranks):
        steps = schedule.rank_steps(rank)
        lines.append(f"rank {rank}: {len(steps)} steps")
        for s in steps:
            if max_steps is not None and shown >= max_steps:
                lines.append(f"  ... ({schedule.n_steps - shown} more steps)")
                return "\n".join(lines)
            lines.append("  " + _format_step(s))
            shown += 1
    return "\n".join(lines)


def _format_step(s: Step) -> str:
    deps = f" after {list(s.deps)}" if s.deps else ""
    note = f"  # {s.note}" if s.note else ""
    span = f"[{s.lo}:{s.hi})" if getattr(s, "buf", None) is not None else "(token)"
    if isinstance(s, ComputeStep):
        produced = f" -> {s.buf}{span}" if s.buf is not None else ""
        src = f" from {s.src_buf}" if s.src_buf is not None else ""
        body = f"compute {s.seconds * 1e3:.3f}ms{produced}{src}"
    elif isinstance(s, OptimStep):
        dst = f" -> {s.dst_buf}{span}" if s.dst_buf is not None else ""
        body = f"optim {s.seconds * 1e3:.3f}ms reads {s.buf}{span}{dst}"
    elif isinstance(s, SendStep):
        body = f"send -> r{s.dst} key={s.key!r} {s.buf or ''}{span}"
    elif isinstance(s, RecvReduceStep):
        body = f"recv+reduce <- r{s.src} key={s.key!r} {s.buf}{span}"
    elif isinstance(s, CopyStep):
        body = f"recv+copy <- r{s.src} key={s.key!r} {s.buf or ''}{span}"
    else:
        body = (
            f"reduce-local {s.src_buf}[{s.src_lo}:{s.src_hi}) "
            f"-> {s.buf}[{s.lo}:{s.hi})"
        )
    return f"{s.sid:>4} {body}{deps}{note}"


# -- execution ----------------------------------------------------------------

class ExecutionProgress:
    """The one record of an executor run: when each step began and ended.

    ``start[sid]`` is the time step ``sid`` began (its dependencies were
    met) and ``end[sid]`` the time it finished, ``None`` until then; the
    lint makes sids dense, so both are plain lists.  A step with a start
    and no end is in flight; a send's start and end are its post time.
    The strands write both lists directly, adding **no simulation
    events**, so a tracked run is time-identical to an untracked one (the
    Figure 5 goldens stay bit-exact).  Per-rank step counts are read off
    the schedule only when asked for.
    """

    __slots__ = ("schedule", "start", "end")

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.start: list[float | None] = [None] * schedule.n_steps
        self.end: list[float | None] = [None] * schedule.n_steps

    @property
    def steps_total(self) -> list[int]:
        """Each rank's number of steps."""
        return [len(self.schedule.rank_steps(r)) for r in range(self.schedule.n_ranks)]

    @property
    def steps_done(self) -> list[int]:
        """Each rank's number of finished steps."""
        end = self.end
        return [
            sum(end[s.sid] is not None for s in self.schedule.rank_steps(r))
            for r in range(self.schedule.n_ranks)
        ]


@dataclass(frozen=True)
class StalledStep:
    """One blocked receive observed at diagnosis time."""

    rank: int                 # group rank whose strand is blocked
    sid: int                  # the blocked step
    kind: str                 # step-class name
    waiting_on: int           # peer the step is receiving from
    note: str                 # compiler annotation (segment/chunk metadata)
    since: float              # when the step started waiting
    waited: float             # seconds in flight at diagnosis time
    overdue: float            # waited minus the analytic per-step deadline


@dataclass(frozen=True)
class FailureDiagnosis:
    """Schedule-level attribution of a stuck collective attempt.

    ``cause`` is one of:

    * ``"message-loss"`` — a blocked receive whose matching send already
      completed: the payload left the sender eagerly but never arrived
      (dropped or delayed on the wire).  ``suspect_link`` is the wire.
    * ``"silent-rank"`` — the cascade of unposted sends traces back to a
      rank with no blocked receive of its own: it stopped making progress
      without waiting on anyone (crashed or wedged).
    * ``"stalled-cycle"`` — the blocked-on graph closes a cycle (only
      possible for schedules that fail :func:`validate_schedule`).
    * ``"compute-stall"`` — no receive is blocked but a
      :class:`ComputeStep`/:class:`OptimStep` is stuck past ``grace``
      times its own priced duration: a wedged GPU, not a lost message.
    * ``"no-progress"`` — no step is in flight at all.
    """

    now: float
    n_ranks: int
    steps_done: tuple[int, ...]
    steps_total: tuple[int, ...]
    stalled: tuple[StalledStep, ...]
    cause: str
    suspect_rank: int | None = None
    suspect_link: tuple[int, int] | None = None
    suspect_sid: int | None = None
    suspect_kind: str | None = None

    @property
    def stalled_ranks(self) -> tuple[int, ...]:
        """Group ranks that have not finished all their steps."""
        return tuple(
            r for r in range(self.n_ranks)
            if self.steps_done[r] < self.steps_total[r]
        )

    @property
    def suspect_step(self) -> str | None:
        """Human-readable label of the step the stall was observed at."""
        if self.suspect_kind is None:
            return None
        return f"{self.suspect_kind} #{self.suspect_sid}"

    def __str__(self) -> str:
        behind = self.stalled_ranks
        progress = ", ".join(
            f"r{r} {self.steps_done[r]}/{self.steps_total[r]}"
            for r in behind[:4]
        )
        head = (
            f"{len(behind)}/{self.n_ranks} ranks behind"
            + (f" ({progress}{', ...' if len(behind) > 4 else ''})" if behind else "")
        )
        if self.suspect_rank is None:
            return f"{head}; no suspect ({self.cause})"
        link = (
            f" on link {self.suspect_link[0]}->{self.suspect_link[1]}"
            if self.suspect_link is not None
            else ""
        )
        step = f" at {self.suspect_step}" if self.suspect_step else ""
        return f"{head}; suspect rank {self.suspect_rank} ({self.cause}){link}{step}"


def diagnose_execution(
    schedule: Schedule,
    progress: ExecutionProgress,
    now: float,
    *,
    model: AlphaBetaModel | None = None,
    grace: float | None = None,
    slack: float | None = None,
) -> FailureDiagnosis:
    """Attribute a stalled run to a suspect rank/link from progress state.

    Blocked receives past their analytic per-step deadline
    (:meth:`AlphaBetaModel.step_deadline`) are the evidence; attribution
    (:func:`attribute_stall`) distinguishes a payload lost on the wire
    (matching send completed) from a sender that never posted (cascade
    traced to its root).  Message matching here is *tolerant* — orphan
    receives (schedules that would fail the lint) simply stay unmapped
    instead of raising, because the diagnoser runs on whatever schedule
    actually got stuck.
    """
    model = model if model is not None else AlphaBetaModel()
    grace = DEFAULT_DEADLINE_GRACE if grace is None else grace
    slack = DEFAULT_DEADLINE_SLACK if slack is None else slack
    itemsize = schedule.itemsize if schedule.itemsize else 1

    def _nbytes(step: Step) -> int:
        if not isinstance(step, ReduceLocalStep) and step.buf is None:
            return 0
        return (step.hi - step.lo) * itemsize

    blocked: list[StalledStep] = []
    compute_stalled: list[StalledStep] = []
    for step in schedule.steps:
        since = progress.start[step.sid]
        if since is None or progress.end[step.sid] is not None:
            continue
        if isinstance(step, (ComputeStep, OptimStep)):
            # A compute step's deadline is its own priced duration (plus
            # grace); one stuck past that is a wedged GPU, not a lost
            # message — no wire is involved.
            waited = now - since
            deadline = grace * step.seconds + slack
            if waited > deadline:
                compute_stalled.append(
                    StalledStep(
                        rank=step.rank,
                        sid=step.sid,
                        kind=type(step).__name__,
                        waiting_on=step.rank,
                        note=step.note,
                        since=since,
                        waited=waited,
                        overdue=waited - deadline,
                    )
                )
            continue
        if not isinstance(step, (RecvReduceStep, CopyStep)):
            continue
        waited = now - since
        deadline = model.step_deadline(
            type(step).__name__, _nbytes(step), grace=grace, slack=slack
        )
        blocked.append(
            StalledStep(
                rank=step.rank,
                sid=step.sid,
                kind=type(step).__name__,
                waiting_on=step.src,
                note=step.note,
                since=since,
                waited=waited,
                overdue=waited - deadline,
            )
        )
    blocked.sort(key=lambda s: (s.since, s.sid))
    compute_stalled.sort(key=lambda s: (s.since, s.sid))

    if not blocked and compute_stalled:
        pick = compute_stalled[0]
        return FailureDiagnosis(
            cause="compute-stall",
            suspect_rank=pick.rank,
            suspect_sid=pick.sid,
            suspect_kind=pick.kind,
            now=now,
            n_ranks=schedule.n_ranks,
            steps_done=tuple(progress.steps_done),
            steps_total=tuple(progress.steps_total),
            stalled=tuple(compute_stalled),
        )

    # Tolerant runtime message matching: per (src, dst, key) triple the
    # i-th posted send pairs with the i-th posted receive.
    sends: dict[tuple[int, int, object], list[int]] = {}
    recvs: dict[tuple[int, int, object], list[int]] = {}
    for s in schedule.steps:
        if isinstance(s, SendStep):
            sends.setdefault((s.rank, s.dst, s.key), []).append(s.sid)
        elif isinstance(s, (RecvReduceStep, CopyStep)):
            recvs.setdefault((s.src, s.rank, s.key), []).append(s.sid)
    recv_to_send: dict[int, int] = {}
    for triple, recv_list in recvs.items():
        for snd, rcv in zip(sends.get(triple, []), recv_list):
            recv_to_send[rcv] = snd

    def posted(s: StalledStep) -> bool:
        snd = recv_to_send.get(s.sid)
        return snd is not None and progress.end[snd] is not None

    return attribute_stall(
        blocked,
        [s for s in blocked if s.overdue > 0] or blocked,
        posted,
        now=now,
        n_ranks=schedule.n_ranks,
        steps_done=tuple(progress.steps_done),
        steps_total=tuple(progress.steps_total),
    )


def attribute_stall(
    blocked: list[StalledStep],
    hot: list[StalledStep],
    posted: Callable[[StalledStep], bool],
    *,
    now: float,
    n_ranks: int,
    steps_done: tuple[int, ...],
    steps_total: tuple[int, ...],
) -> FailureDiagnosis:
    """The blocked-receive attribution walk of every stall diagnoser.

    ``blocked`` holds the receives blocked at diagnosis time, in the
    caller's order (oldest first); ``hot`` is the part of it to search
    first, and ``posted(s)`` says whether the send that receive ``s``
    waits on left its sender.  With nothing blocked the stall is ``"no-progress"`` (suspect:
    the first rank behind).  The first ``hot`` receive whose send was
    posted is ``"message-loss"`` on that wire.  Otherwise the chain of
    blocked receives is followed back from ``hot[0]`` until it reaches a
    rank that is not itself waiting on anyone (``"silent-rank"``), or
    closes a cycle (``"stalled-cycle"``).
    """
    base = dict(
        now=now,
        n_ranks=n_ranks,
        steps_done=steps_done,
        steps_total=steps_total,
        stalled=tuple(blocked),
    )
    if not blocked:
        behind = [r for r in range(n_ranks) if steps_done[r] < steps_total[r]]
        return FailureDiagnosis(
            cause="no-progress",
            suspect_rank=behind[0] if behind else None,
            **base,
        )
    for s in hot:
        if posted(s):
            return FailureDiagnosis(
                cause="message-loss",
                suspect_rank=s.waiting_on,
                suspect_link=(s.waiting_on, s.rank),
                suspect_sid=s.sid,
                suspect_kind=s.kind,
                **base,
            )
    by_rank: dict[int, StalledStep] = {}
    for s in blocked:  # oldest first: keeps each rank's earliest receive
        by_rank.setdefault(s.rank, s)
    pick = hot[0]
    suspect = pick.waiting_on
    seen = {pick.rank}
    while suspect not in seen and suspect in by_rank:
        seen.add(suspect)
        pick = by_rank[suspect]
        suspect = pick.waiting_on
    return FailureDiagnosis(
        cause="stalled-cycle" if suspect in seen else "silent-rank",
        suspect_rank=suspect,
        suspect_link=(suspect, pick.rank),
        suspect_sid=pick.sid,
        suspect_kind=pick.kind,
        **base,
    )


def _bind(bufmap: dict[str, Buffer], name: str | None, lo: int, hi: int) -> Buffer | None:
    if name is None:
        return None
    try:
        base = bufmap[name]
    except KeyError:
        raise ScheduleError(f"schedule references unbound buffer {name!r}") from None
    return base.view(lo, hi)


def _partition_strands(steps):
    """Partition one rank's steps (sid order) into maximal linear chains.

    A step *fuses* onto the strand whose current tail is among its deps
    (preferring the most recently produced tail); any remaining deps become
    cross-strand waits.  Each strand then runs as one :class:`_Strand`, so
    chained steps execute back-to-back with no zero-delay completion hop in
    between.  This reproduces the process structure of the hand-written
    generator collectives (e.g. one ring-reduce and one ring-broadcast
    process per rank) and therefore their exact resource-grant ordering at
    equal timestamps — a requirement for bit-identical Figure 5/6 timings.

    Fusion never crosses the GPU/network resource boundary: a fused strand
    is one linear chain, so chaining a network step behind a compute step
    (or vice versa) would serialize the two resources even where the DAG
    lets them overlap.  Compute and communication stay in separate strands
    and overlap falls out of the dependency structure.  Schedules without
    compute steps partition exactly as before.

    Returns a list of strands; each strand is a list of
    ``(step, cross_dep_sids)`` pairs, the cross deps a tuple (the step's
    own ``deps`` when it starts a strand, the shared ``()`` when there are
    none).  (``tests/mpi/partition_reference.py`` keeps the
    comprehension-based version, with lists, this loop must equal.)
    """
    strands: list[list[tuple[Step, tuple[int, ...]]]] = []
    # sid of a strand's last step -> (that strand, whether it is on the GPU)
    tails: dict[int, tuple[list[tuple[Step, tuple[int, ...]]], bool]] = {}
    for step in steps:
        gpu = isinstance(step, (ComputeStep, OptimStep))
        deps = step.deps
        link = -1  # the largest same-class tail among the deps
        for d in deps:
            if d > link:
                tail = tails.get(d)
                if tail is not None and tail[1] is gpu:
                    link = d
        if link < 0:
            strand = []
            strands.append(strand)
            cross = tuple(deps)
        else:
            strand = tails.pop(link)[0]
            cross = tuple([d for d in deps if d != link]) if len(deps) > 1 else ()
        strand.append((step, cross))
        tails[step.sid] = (strand, gpu)
    return strands


#: What a strand waits on when it is not a dependency event (see _Strand).
_RECV, _HOLD = "recv", "hold"


class _Strand(Event):
    """One dependency strand of one rank, run as a chain of engine calls.

    It runs its steps back-to-back.  Where a step must wait, it registers
    the rest of itself as a plain call: a message through
    :meth:`MPIWorld.recv_call`, a CPU/GPU slot through
    :meth:`Resource.request_call`, the end of a hold as a call ``seconds``
    later.  Each call is scheduled where the event a generator strand
    would have yielded would fire, and a cross-strand wait is a callback on the
    producing step's ``done`` event, so the strand is time-, order- and
    step-count-identical to the process it replaces (DESIGN §4o).

    It is an :class:`Event` that succeeds when its last step finishes.
    :meth:`interrupt` follows :meth:`Process.interrupt`: the current wait
    is dropped at once, then a call at the current time fails the strand,
    withdrawing a pending CPU/GPU request or releasing a held slot.
    """

    __slots__ = (
        "name", "_world", "_members", "_cpu", "_gpu", "_entries", "_bufmap",
        "_tag", "_done", "_start", "_end", "_pos", "_dep", "_waiting",
        "_res", "_seconds", "_grad",
    )

    def __init__(self, comm, rank, entries, bufmap, tag, done, progress):
        engine = comm.engine
        super().__init__(engine)
        world = comm.world
        wrank = comm.members[rank]
        self.name = f"sx{entries[0][0].sid}-r{rank}"
        self._world = world
        self._members = comm.members
        self._cpu = world.cpus[wrank]
        self._gpu = world.gpus[wrank]
        self._entries = entries
        self._bufmap = bufmap
        self._tag = tag
        self._done = done
        self._start = progress.start
        self._end = progress.end
        self._pos = 0        # index of the current step in ``entries``
        self._dep = 0        # cross-strand deps of that step waited on so far
        self._waiting = None  # a dep event, _RECV, a resource, _HOLD or None
        self._res = None     # the resource requested or held, for cleanup
        self._seconds = 0.0  # duration of the hold being requested
        self._grad = None    # the gradient an OptimStep read when it started
        engine.call(self._boot)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Fail the strand with :class:`Interrupt` at the current time."""
        if self._ok is not None:
            raise SimulationError(f"cannot interrupt finished strand {self.name}")
        self._waiting = None  # drop the current wait: its wakeup is ignored
        self.engine.call(self._throw, Interrupt(cause))

    # -- waits and wakeups -------------------------------------------------
    def _throw(self, exc: Interrupt) -> None:
        if self._ok is not None:
            return  # it finished (or failed) before the interrupt landed
        self._waiting = None  # a wait begun since interrupt(), e.g. by the boot
        self._die(exc)

    def _die(self, exc: BaseException) -> None:
        if self._res is not None:
            # Withdraw the request, or release the slot it was granted.
            self._res.cancel(self._granted)
        self.fail(exc)
        self._clear()

    def _clear(self) -> None:
        """Drop every reference a finished strand no longer needs."""
        self._world = self._members = self._cpu = self._gpu = None
        self._entries = self._bufmap = self._done = None
        self._start = self._end = self._res = self._grad = None

    def _boot(self, _arg: None) -> None:
        try:
            self._run()
        except BaseException as exc:  # noqa: BLE001 - model code may raise anything
            self._die(exc)

    def _resume(self, event: Event) -> None:
        if event is not self._waiting:
            return  # a wakeup an interrupt cancelled while it was queued
        self._waiting = None
        self._boot(None)

    def _on_message(self, msg: Any) -> None:
        if self._waiting is not _RECV:
            return  # an abandoned receive still consumes its message
        self._waiting = None
        try:
            step = self._entries[self._pos][0]
            view = _bind(self._bufmap, step.buf, step.lo, step.hi)
            if type(step) is RecvReduceStep:
                view.add_(msg.payload)
                self._hold(self._cpu, view.nbytes / self._world.reduce_bandwidth)
            elif view is not None:
                view.copy_(msg.payload)
                self._hold(self._cpu, view.nbytes / self._world.copy_bandwidth)
            else:  # a synchronization token: nothing to write
                self._finish_step()
                self._run()
        except BaseException as exc:  # noqa: BLE001
            self._die(exc)

    def _hold(self, res: Resource, seconds: float) -> None:
        """Request ``res``, hold it for ``seconds``, then finish the step."""
        self._res = res
        self._seconds = seconds
        res.request_call(self._granted)
        self._waiting = res

    def _granted(self, res: Resource) -> None:
        if res is not self._waiting:
            return  # granted to an interrupted strand: _die released it
        self._waiting = _HOLD
        try:
            self.engine.call(self._released, None, self._seconds)
        except BaseException as exc:  # noqa: BLE001
            self._die(exc)

    def _released(self, _arg: None) -> None:
        if self._waiting is not _HOLD:
            return  # the hold of an interrupted strand: _die released it
        self._waiting = None
        try:
            res, self._res = self._res, None
            res.release()
            step = self._entries[self._pos][0]
            kind = type(step)
            if kind is ComputeStep:
                if step.buf is not None and step.src_buf is not None:
                    # Staged memory mode: materialize the produced range.
                    view = _bind(self._bufmap, step.buf, step.lo, step.hi)
                    src = _bind(self._bufmap, step.src_buf, step.lo, step.hi)
                    view.copy_(src.extract())
            elif kind is OptimStep:
                grad, self._grad = self._grad, None
                if step.dst_buf is not None:  # the update
                    dst = _bind(self._bufmap, step.dst_buf, step.lo, step.hi)
                    dst.copy_(grad)
            self._finish_step()
            self._run()
        except BaseException as exc:  # noqa: BLE001
            self._die(exc)

    # -- running -----------------------------------------------------------
    def _finish_step(self) -> None:
        step = self._entries[self._pos][0]
        self._end[step.sid] = self.engine.now
        ev = self._done.get(step.sid)
        if ev is not None:
            ev.succeed()
        self._pos += 1
        self._dep = 0

    def _run(self) -> None:
        """Run steps until one has to wait or the strand ends.

        A step waits on its cross-strand deps one by one (an already
        processed dep is a call one hop later, as for a process), then
        starts; a send finishes at once, every other step waits for a
        message or a CPU/GPU hold.
        """
        engine = self.engine
        entries = self._entries
        bufmap = self._bufmap
        members = self._members
        world = self._world
        while self._pos < len(entries):
            step, cross = entries[self._pos]
            if self._dep < len(cross):
                ev = self._done[cross[self._dep]]
                self._dep += 1
                if ev.callbacks is None:
                    engine.call(self._resume, ev)
                else:
                    ev.callbacks.append(self._resume)
                self._waiting = ev
                return
            self._start[step.sid] = engine.now
            kind = type(step)
            # A step's message travels under the wire tag ("sx", tag, key).
            if kind is SendStep:
                view = _bind(bufmap, step.buf, step.lo, step.hi)
                if view is None:
                    view = SizeBuffer(0)
                world.isend(
                    members[step.rank], members[step.dst],
                    ("sx", self._tag, step.key), view,
                )
                self._finish_step()
                continue
            if kind is RecvReduceStep or kind is CopyStep:
                world.recv_call(
                    members[step.rank], members[step.src],
                    ("sx", self._tag, step.key), self._on_message,
                )
                self._waiting = _RECV
            elif kind is ReduceLocalStep:
                dst = _bind(bufmap, step.buf, step.lo, step.hi)
                src = _bind(bufmap, step.src_buf, step.src_lo, step.src_hi)
                dst.add_(src.extract())
                self._hold(self._cpu, dst.nbytes / world.reduce_bandwidth)
            elif kind is ComputeStep:
                self._hold(self._gpu, step.seconds)
            elif kind is OptimStep:
                # The gradient is read when the update *starts*: a schedule
                # that lets the optimizer race an in-flight reduction really
                # consumes the stale values (so dropped-dependency mutants
                # miscompute).
                self._grad = _bind(bufmap, step.buf, step.lo, step.hi).extract()
                self._hold(self._gpu, step.seconds)
            else:  # pragma: no cover - new step types must be handled here
                raise ScheduleError(f"unknown step type {type(step).__name__}")
            return
        self.succeed()
        self._clear()


def _as_bufmap(buf: Buffer | dict[str, Buffer] | None) -> dict[str, Buffer]:
    if buf is None:
        return {}
    if isinstance(buf, dict):
        return buf
    return {"data": buf}


def _check_binding(schedule: Schedule, bufmap: dict[str, Buffer]) -> None:
    if schedule.count is not None and "data" in bufmap:
        b = bufmap["data"]
        if b.count != schedule.count:
            raise ScheduleError(
                f"buffer holds {b.count} elements but schedule "
                f"{schedule.name!r} was compiled for {schedule.count}"
            )


def _rank_proxy(engine, strands):
    """One rank's interruption point: it finishes when its strands do.

    The strands' ``AllOf`` is pre-defused.  A proxy interrupted directly (a
    fault injector's crash, a fleet node kill) stops waiting on it, and
    when the guard then abandons the attempt that ``AllOf`` fails with no
    waiter; pre-defused, the failure is dropped instead of crashing the
    engine.  A waiting proxy defuses the failure anyway, so nothing else
    changes (DESIGN §4h rule 1).
    """
    if strands:
        strands_done = engine.all_of(strands)
        strands_done.defuse()
        yield strands_done


class ScheduleExecutor:
    """Runs one compiled schedule across all ranks of a communicator.

    The executor starts one call-driven :class:`_Strand` per dependency
    strand (maximal linear chain of steps) up front plus one lightweight
    *proxy* process per rank.  The proxies are the interruption points for
    fault injection (``FaultInjector.arm(engine, world, executor.rank_procs,
    it)``) — killing a proxy fails the whole run exactly like killing a
    generator rank-program used to.

    Each strand records its steps' begin and finish times in
    :attr:`progress` (the run's one record, see
    :class:`ExecutionProgress`), so executors can share one world, even
    under one wire tag, without seeing each other's traffic.  What a run
    sends and computes is a fact of :attr:`schedule`: the executor keeps
    no count of it.
    """

    def __init__(
        self,
        comm: Communicator,
        schedule: Schedule,
        buffers: list[Buffer | dict[str, Buffer] | None],
        *,
        tag: object = None,
    ):
        if schedule.n_ranks != comm.size:
            raise ScheduleError(
                f"schedule {schedule.name!r} is for {schedule.n_ranks} ranks; "
                f"communicator has {comm.size}"
            )
        if len(buffers) != comm.size:
            raise ScheduleError(
                f"need {comm.size} rank buffers, got {len(buffers)}"
            )
        self.comm = comm
        self.schedule = schedule
        self.tag = tag
        self.bufmaps = [_as_bufmap(b) for b in buffers]
        for bufmap in self.bufmaps:
            _check_binding(schedule, bufmap)
        #: Per-step progress the attribution layer diagnoses stalls from.
        self.progress = ExecutionProgress(schedule)
        self.rank_procs: list[Process] = []
        #: Every strand started by :meth:`launch`.  Callers sharing one
        #: engine across collectives (the fleet scheduler) interrupt these
        #: to abandon a timed-out attempt instead of abandoning the whole
        #: engine.
        self.strands: list[_Strand] = []
        self._done = None

    def launch(self):
        """Start all strands and proxy processes; returns the completion event."""
        if self._done is not None:
            raise ScheduleError("executor already launched")
        engine = self.comm.engine
        for rank in range(self.comm.size):
            strands = self._start_strands(rank)
            self.strands.extend(strands)
            self.rank_procs.append(
                engine.process(_rank_proxy(engine, strands), name=f"sxr{rank}")
            )
        self._done = engine.all_of(self.rank_procs)
        return self._done

    def _start_strands(self, rank: int) -> list[_Strand]:
        """Start one strand per dependency chain owned by ``rank``."""
        engine = self.comm.engine
        chains = _partition_strands(self.schedule.rank_steps(rank))
        # One event per step another strand of this rank waits on.
        done: dict[int, Event] = {}
        for entries in chains:
            for _step, cross in entries:
                for d in cross:
                    done.setdefault(d, engine.event())
        return [
            _Strand(
                self.comm, rank, entries, self.bufmaps[rank], self.tag,
                done, self.progress,
            )
            for entries in chains
        ]

    def run(self) -> float:
        """Launch (if needed) and run the engine to completion; returns elapsed."""
        engine = self.comm.engine
        start = engine.now
        done = self._done if self._done is not None else self.launch()
        engine.run(done)
        return engine.now - start

    def diagnose(
        self,
        *,
        model: AlphaBetaModel | None = None,
        grace: float | None = None,
        slack: float | None = None,
    ) -> FailureDiagnosis:
        """Attribute the current stall (see :func:`diagnose_execution`)."""
        return diagnose_execution(
            self.schedule, self.progress, self.comm.engine.now,
            model=model, grace=grace, slack=slack,
        )


# -- guarded execution (watchdog / retry / surgical repair) -------------------

class ExecutorAttempt(Attempt[list[Buffer]]):
    """Guard attempt for a compiled collective over per-rank buffers.

    Every rank's input is snapshotted once and restored on rollback, so a
    retried attempt starts from pristine inputs even when the failed one
    had already merged partial ``RecvReduceStep`` results (a re-run from
    the dirty buffers would double-reduce them).  Each launch compiles
    ``compiler(n, count, itemsize, **compile_kwargs)`` (cached) for the
    current group on a fresh world of its own; dropping a victim removes
    its buffer and snapshot.
    """

    def __init__(
        self,
        compiler: Callable[..., Schedule],
        buffers: list[Buffer],
        *,
        compile_kwargs: dict[str, Any] | None = None,
        topology: str = "star",
        tag: object = None,
        fault_injector=None,
        iteration: int = 0,
    ):
        super().__init__(fault_injector=fault_injector, iteration=iteration)
        self.compiler = compiler
        self.compile_kwargs = compile_kwargs or {}
        self.buffers = list(buffers)
        self.snapshots = [b.extract() for b in self.buffers]
        self.topology = topology
        self.tag = tag
        self.executor: ScheduleExecutor | None = None

    @property
    def size(self) -> int:
        return len(self.buffers)

    def drop(self, rank: int) -> None:
        del self.buffers[rank]
        del self.snapshots[rank]

    def solo(self) -> list[Buffer]:
        return self.buffers

    commit = solo

    def launch(self) -> Event:
        from repro.mpi.runner import build_world  # local import: avoids a cycle

        engine, world, comm = build_world(self.size, topology=self.topology)
        done = self.execute(comm)
        self.arm(engine, world, self.executor.rank_procs)
        return done

    def execute(self, comm: Communicator) -> Event:
        """Compile for the current group and launch on ``comm``."""
        first = self.buffers[0]
        schedule = self.compiler(
            self.size, first.count, first.itemsize, **self.compile_kwargs
        )
        self.executor = ScheduleExecutor(comm, schedule, self.buffers, tag=self.tag)
        return self.executor.launch()

    def diagnose(self, failure: Exception | None) -> FailureDiagnosis | None:
        return self.executor.diagnose() if failure is None else None

    def rollback(self) -> None:
        for buf, snap in zip(self.buffers, self.snapshots):
            buf.copy_(snap)


def run_guarded(
    compiler: Callable[..., Schedule],
    make_buffers: Callable[[], list[Buffer]],
    *,
    retry: RetryPolicy,
    topology: str = "star",
    tag: object = None,
    fault_injector=None,
    iteration: int = 0,
    telemetry: CollectiveTelemetry | None = None,
    **compile_kwargs,
) -> tuple[list[Buffer], CollectiveTelemetry]:
    """Run one compiled collective under :func:`~repro.mpi.guard.guard`.

    ``make_buffers()`` is called once.  Each attempt builds a fresh world
    on ``topology``, compiles the collective for the live group, arms
    ``fault_injector`` against the executor's rank proxies and races
    completion against ``retry.timeout``.  A watchdog stall is diagnosed
    from the executor's progress state and retried with backoff accounted
    in simulated time; a ``RankFailure`` drops the victim and recompiles
    for the survivors (``telemetry.repaired_ranks``).

    Returns ``(buffers, telemetry)`` for the survivors of the successful
    attempt; ``telemetry`` is updated in place even when an exception is
    raised, so callers can account partial attempts.
    """
    telemetry = telemetry if telemetry is not None else CollectiveTelemetry()
    attempt = ExecutorAttempt(
        compiler, make_buffers(), compile_kwargs=compile_kwargs,
        topology=topology, tag=tag, fault_injector=fault_injector,
        iteration=iteration,
    )
    return drive(guard(attempt, retry, telemetry)), telemetry


# -- compiler caching ---------------------------------------------------------

def memoize_compiler(fn: Callable[..., Schedule]) -> Callable[..., Schedule]:
    """Cache compiled schedules by argument value.

    Schedules are immutable, so one compilation serves every rank, every
    retry and every trainer iteration with the same shape.  Calls with
    unhashable arguments (e.g. an explicit ``trees`` list) bypass the cache
    and compile directly.
    """
    cache: dict = {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:
            return fn(*args, **kwargs)
        if key not in cache:
            cache[key] = fn(*args, **kwargs)
        return cache[key]

    wrapper.cache = cache  # type: ignore[attr-defined]
    return wrapper
