"""The happens-before graph of a schedule, shared by every verifier pass.

Happens-before combines two edge families, exactly mirroring the runtime:

* same-rank dependency edges (``step.deps``), and
* message edges — a send happens-before the receive it matches, paired
  per ``(src, dst, key)`` channel in posted (sid) order, the same pairing
  :func:`repro.mpi.schedule.validate_schedule` lints.

On top of the edge lists the graph carries the schedule's deterministic
linearization (Kahn's algorithm with a min-sid heap, computed once per
schedule and shared with the lint — every run of the verifier visits
steps in the same order) and full reachability as one bitmask per step,
which turns "is there a happens-before path a -> b?" into a single
shift-and-test.  Reachability is what lets the race and determinism
passes decide *concurrency* rather than merely adjacency.  It is built
per graph and never cached on the schedule: for a 9,872-step DAG the
masks take about 13 MB.
"""

from __future__ import annotations

from repro.mpi.schedule import CopyStep, RecvReduceStep, Schedule, SendStep

__all__ = ["HBGraph"]


class HBGraph:
    """Happens-before edges, topological order and reachability.

    The message pairing and the canonical order are the schedule's own,
    computed once per schedule and shared with the lint and the bounds
    pass.  Raises :class:`~repro.mpi.schedule.ScheduleError` on unmatched
    messages or cycles, with the lint's message.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        n = len(schedule.steps)
        self.message_pairs: tuple[tuple[int, int], ...] = schedule._message_pairs
        self.order: tuple[int, ...] = schedule._canonical_order
        self.recv_to_send: dict[int, int] = {r: s for s, r in self.message_pairs}
        self.send_to_recv: dict[int, int] = {s: r for s, r in self.message_pairs}

        #: per ``(src, dst, key)`` channel: send sids and recv sids in
        #: posted (sid) order — the pairing the lint and runtime use.
        self.channels: dict[tuple[int, int, object], tuple[list[int], list[int]]] = {}
        for s in schedule.steps:
            if isinstance(s, SendStep):
                self.channels.setdefault((s.rank, s.dst, s.key), ([], []))[0].append(s.sid)
            elif isinstance(s, (RecvReduceStep, CopyStep)):
                self.channels.setdefault((s.src, s.rank, s.key), ([], []))[1].append(s.sid)

        self.succs: list[list[int]] = [[] for _ in range(n)]
        for s in schedule.steps:
            for d in s.deps:
                self.succs[d].append(s.sid)
        for snd, rcv in self.message_pairs:
            self.succs[snd].append(rcv)

        #: position of each step in the canonical linearization.
        self.position = [0] * n
        for pos, sid in enumerate(self.order):
            self.position[sid] = pos
        self._desc: list[int] | None = None

    @property
    def descendants(self) -> list[int]:
        """Bitmask per step: bit ``v`` set iff there is an HB path to ``v``
        (the step itself included)."""
        if self._desc is None:
            desc = [0] * len(self.schedule.steps)
            for u in reversed(self.order):
                mask = 1 << u
                for v in self.succs[u]:
                    mask |= desc[v]
                desc[u] = mask
            self._desc = desc
        return self._desc

    def happens_before(self, a: int, b: int) -> bool:
        """True iff there is a happens-before path from step a to step b."""
        return a != b and bool((self.descendants[a] >> b) & 1)

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither step is ordered before the other."""
        return (
            a != b
            and not self.happens_before(a, b)
            and not self.happens_before(b, a)
        )
