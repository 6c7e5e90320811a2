"""Per-step stall bookkeeping as it was before runs kept one timed record.

:class:`~repro.mpi.schedule.ExecutionProgress` used to track in-flight steps
in a dict and finished ones in a set, and the shuffle's
:class:`~repro.data.shuffle.ShuffleProgress` kept a set of posted keys; each
diagnoser had its own copy of the blocked-receive attribution walk.  Both
records now keep begin/finish (or post/receive) times and the diagnosers
share :func:`~repro.mpi.schedule.attribute_stall`.  The classes and
functions here are the earlier versions, kept verbatim as the oracle
``test_diagnosis_differential`` compares the rewired ones against.
"""

from __future__ import annotations

from repro.mpi.analytic import (
    DEFAULT_DEADLINE_GRACE,
    DEFAULT_DEADLINE_SLACK,
    AlphaBetaModel,
)
from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    FailureDiagnosis,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    SendStep,
    StalledStep,
    Step,
)


class ExecutionProgress:
    """Per-rank, per-step progress bookkeeping for one executor run.

    Pure-Python accounting updated synchronously from inside the strands
    — it adds **no simulation events**, so a tracked run is
    time-identical to an untracked one (the Figure 5 goldens stay
    bit-exact).  ``in_flight`` maps the sid of every started-but-unfinished
    step to ``(step, start_time)``; ``completed`` holds finished sids so the
    diagnoser can tell a lost message (matching send completed) from an
    unposted one (sender itself stalled).
    """

    def __init__(self, schedule: Schedule):
        n = schedule.n_ranks
        self.steps_total = [0] * n
        for s in schedule.steps:
            self.steps_total[s.rank] += 1
        self.steps_done = [0] * n
        self.last_advance = [0.0] * n
        self.in_flight: dict[int, tuple[Step, float]] = {}
        self.completed: set[int] = set()

    def begin(self, step: Step, now: float) -> None:
        self.in_flight[step.sid] = (step, now)

    def finish(self, step: Step, now: float) -> None:
        self.in_flight.pop(step.sid, None)
        self.completed.add(step.sid)
        self.steps_done[step.rank] += 1
        self.last_advance[step.rank] = now


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
    distinguishes a payload lost on the wire (matching send completed) from
    a sender that never posted (cascade traced to its root).  Message
    matching here is *tolerant* — orphan receives (schedules that would
    fail the lint) simply stay unmapped instead of raising, because the
    diagnoser runs on whatever schedule actually got stuck.
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
    for step, since in progress.in_flight.values():
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

    base = dict(
        now=now,
        n_ranks=schedule.n_ranks,
        steps_done=tuple(progress.steps_done),
        steps_total=tuple(progress.steps_total),
        stalled=tuple(blocked),
    )

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

    if not blocked:
        behind = [
            r for r in range(schedule.n_ranks)
            if progress.steps_done[r] < progress.steps_total[r]
        ]
        return FailureDiagnosis(
            cause="no-progress",
            suspect_rank=behind[0] if behind else None,
            **base,
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

    hot = [s for s in blocked if s.overdue > 0] or blocked

    lost = [s for s in hot if recv_to_send.get(s.sid) in progress.completed]
    if lost:
        pick = lost[0]
        return FailureDiagnosis(
            cause="message-loss",
            suspect_rank=pick.waiting_on,
            suspect_link=(pick.waiting_on, pick.rank),
            suspect_sid=pick.sid,
            suspect_kind=pick.kind,
            **base,
        )

    # The matching send was never posted: follow the chain of blocked
    # receives backwards until it reaches a rank that is not itself
    # waiting on anyone — that rank went silent.
    by_rank: dict[int, StalledStep] = {}
    for s in blocked:  # sorted: keeps each rank's earliest blocked receive
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


class ShuffleProgress:
    """Per-rank progress bookkeeping for one shuffle attempt.

    Pure-Python accounting updated synchronously from inside the rank
    programs — it adds **no simulation events**, so a tracked shuffle is
    time-identical to an untracked one.  It mirrors the executor layer's
    :class:`~repro.mpi.schedule.ExecutionProgress` at message granularity:
    ``waiting`` maps each blocked rank to the (sender, message key) it is
    receiving on, and ``sends`` records every posted message key, so the
    diagnoser (:func:`repro.data.guard.diagnose_shuffle`) can tell a lost
    message from a sender that never posted.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.steps_done = [0] * n_ranks
        self.last_advance = [0.0] * n_ranks
        self.finished = [False] * n_ranks
        #: rank -> (src, message key, since) for the receive it is blocked on.
        self.waiting: dict[int, tuple[int, object, float]] = {}
        #: Message keys posted so far (eager sends complete locally).
        self.sends: set = set()

    def sent(self, rank: int, dst: int, key: object) -> None:
        self.sends.add(key)

    def begin_recv(self, rank: int, src: int, key: object, now: float) -> None:
        self.waiting[rank] = (src, key, now)

    def end_recv(self, rank: int, now: float) -> None:
        self.waiting.pop(rank, None)
        self.steps_done[rank] += 1
        self.last_advance[rank] = now

    def finish(self, rank: int, now: float) -> None:
        self.waiting.pop(rank, None)
        self.finished[rank] = True
        self.last_advance[rank] = now


def _steps_total(progress: ShuffleProgress) -> tuple[int, ...]:
    """Message steps each rank has done plus one pending unless finished."""
    return tuple(
        done + (0 if fin else 1)
        for done, fin in zip(progress.steps_done, progress.finished)
    )


def diagnose_shuffle(progress: ShuffleProgress, now: float) -> FailureDiagnosis:
    """Attribute a stalled shuffle attempt from its progress bookkeeping.

    Same attribution logic as :func:`repro.mpi.schedule.diagnose_execution`
    at message granularity: each blocked receive whose matching send was
    posted is ``"message-loss"`` on that wire; otherwise the chain of
    blocked receives is walked backwards to the rank that stopped making
    progress without waiting on anyone (``"silent-rank"``), or to a cycle.
    """
    blocked: list[StalledStep] = []
    for rank in sorted(progress.waiting):
        src, key, since = progress.waiting[rank]
        blocked.append(
            StalledStep(
                rank=rank,
                sid=progress.steps_done[rank],
                kind="ShuffleRecv",
                waiting_on=src,
                note=str(key),
                since=since,
                waited=now - since,
                overdue=now - since,
            )
        )
    blocked.sort(key=lambda s: (s.since, s.rank))

    base = dict(
        now=now,
        n_ranks=progress.n_ranks,
        steps_done=tuple(progress.steps_done),
        steps_total=_steps_total(progress),
        stalled=tuple(blocked),
    )

    if not blocked:
        behind = [
            r for r in range(progress.n_ranks) if not progress.finished[r]
        ]
        return FailureDiagnosis(
            cause="no-progress",
            suspect_rank=behind[0] if behind else None,
            **base,
        )

    for s in blocked:
        _, key, _ = progress.waiting[s.rank]
        if key in progress.sends:
            return FailureDiagnosis(
                cause="message-loss",
                suspect_rank=s.waiting_on,
                suspect_link=(s.waiting_on, s.rank),
                suspect_sid=s.sid,
                suspect_kind=s.kind,
                **base,
            )

    # No lost payload: follow the chain of blocked receives backwards until
    # it reaches a rank that is not itself waiting on anyone.
    by_rank = {s.rank: s for s in blocked}
    pick = blocked[0]
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
