"""The schedule analyses as they were before each schedule cached its own:
the differential reference for :func:`repro.mpi.schedule.validate_schedule`,
:class:`repro.mpi.verify.hb.HBGraph` and
:func:`repro.mpi.verify.bounds.analyze_bounds`.

Here every call recomputes everything: the lint pairs the messages and
runs its own Kahn pass with a FIFO queue, the graph pairs them again and
linearizes with a min-sid heap, and the bounds pass builds a fresh graph
when none is given.  The cached versions must give the same summaries,
pairs, order, bounds and first-violation ``ScheduleError`` text.  The one
difference by design: the lint here accepts NaN and infinite compute
durations, which the cached lint rejects.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.mpi.analytic import AlphaBetaModel
from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    ScheduleError,
    SendStep,
    Step,
    _message_edges,
)
from repro.mpi.verify.bounds import ResourceBounds, _nbytes


def _ranges_of(s: Step) -> list[tuple[int, int]]:
    if isinstance(s, ReduceLocalStep):
        return [(s.lo, s.hi), (s.src_lo, s.src_hi)]
    if isinstance(s, OptimStep):
        return [(s.lo, s.hi)]
    if s.buf is None:
        return []
    return [(s.lo, s.hi)]


def _peers_of(s: Step) -> list[int | None]:
    if isinstance(s, SendStep):
        return [s.dst]
    if isinstance(s, (RecvReduceStep, CopyStep)):
        return [s.src]
    return []


def reference_validate_schedule(schedule: Schedule) -> dict[str, Any]:
    """The uncached lint: raises :class:`ScheduleError` on any violation."""
    n_steps = len(schedule.steps)
    for i, s in enumerate(schedule.steps):
        if s.sid != i:
            raise ScheduleError(f"step at position {i} has sid {s.sid}")
        if not 0 <= s.rank < schedule.n_ranks:
            raise ScheduleError(f"step {i} rank {s.rank} out of range")
        for d in s.deps:
            if not 0 <= d < i:
                raise ScheduleError(f"step {i} dep {d} is not a backward reference")
            if schedule.steps[d].rank != s.rank:
                raise ScheduleError(f"step {i} dep {d} crosses ranks")
        if isinstance(s, (ComputeStep, OptimStep)) and s.seconds < 0:
            raise ScheduleError(f"step {i} has negative duration {s.seconds!r}")
        for lo, hi in _ranges_of(s):
            if not 0 <= lo <= hi:
                raise ScheduleError(f"step {i} has invalid range [{lo}, {hi})")
            if schedule.count is not None and hi > schedule.count:
                raise ScheduleError(
                    f"step {i} range [{lo}, {hi}) exceeds count {schedule.count}"
                )
        for peer in _peers_of(s):
            if peer is not None and not 0 <= peer < schedule.n_ranks:
                raise ScheduleError(f"step {i} peer rank {peer} out of range")
            if peer == s.rank:
                verb = "sends to" if isinstance(s, SendStep) else "receives from"
                raise ScheduleError(f"step {i} rank {s.rank} {verb} itself")

    edges = _message_edges(schedule)

    adj: list[list[int]] = [[] for _ in range(n_steps)]
    indeg = [0] * n_steps
    for s in schedule.steps:
        for d in s.deps:
            adj[d].append(s.sid)
            indeg[s.sid] += 1
    for snd, rcv in edges:
        adj[snd].append(rcv)
        indeg[rcv] += 1
    queue = deque(i for i in range(n_steps) if indeg[i] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen != n_steps:
        stuck = [i for i in range(n_steps) if indeg[i] > 0]
        raise ScheduleError(
            f"schedule has a dependency/message cycle involving steps {stuck[:8]}"
        )

    sent = [0] * schedule.n_ranks
    received = [0] * schedule.n_ranks
    for s in schedule.steps:
        if isinstance(s, SendStep):
            sent[s.rank] += 1
        elif isinstance(s, (RecvReduceStep, CopyStep)):
            received[s.rank] += 1
    if sum(sent) != sum(received):
        raise ScheduleError(
            f"unbalanced step counts: {sum(sent)} sends vs {sum(received)} receives"
        )
    return {
        "n_steps": n_steps,
        "n_messages": len(edges),
        "step_counts": schedule.step_counts(),
        "sends_per_rank": sent,
        "recvs_per_rank": received,
    }


class ReferenceHBGraph:
    """The happens-before graph's construction, recomputing its pairing and
    its canonical order per graph."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        n = len(schedule.steps)
        self.message_pairs: list[tuple[int, int]] = _message_edges(schedule)
        self.recv_to_send: dict[int, int] = {r: s for s, r in self.message_pairs}
        self.send_to_recv: dict[int, int] = {s: r for s, r in self.message_pairs}

        self.channels: dict[tuple[int, int, object], tuple[list[int], list[int]]] = {}
        for s in schedule.steps:
            if isinstance(s, SendStep):
                self.channels.setdefault((s.rank, s.dst, s.key), ([], []))[0].append(s.sid)
            elif isinstance(s, (RecvReduceStep, CopyStep)):
                self.channels.setdefault((s.src, s.rank, s.key), ([], []))[1].append(s.sid)

        self.preds: list[list[int]] = [list(s.deps) for s in schedule.steps]
        self.succs: list[list[int]] = [[] for _ in range(n)]
        for s in schedule.steps:
            for d in s.deps:
                self.succs[d].append(s.sid)
        for snd, rcv in self.message_pairs:
            self.preds[rcv].append(snd)
            self.succs[snd].append(rcv)

        self.order = self._topological_order()
        self.position = [0] * n
        for pos, sid in enumerate(self.order):
            self.position[sid] = pos

    def _topological_order(self) -> list[int]:
        n = len(self.schedule.steps)
        indeg = [len(p) for p in self.preds]
        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in self.succs[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, v)
        if len(order) != n:
            stuck = [i for i in range(n) if indeg[i] > 0]
            raise ScheduleError(
                f"happens-before cycle involving steps {stuck[:8]}"
            )
        return order


def reference_analyze_bounds(
    schedule: Schedule,
    hb: ReferenceHBGraph | None = None,
    *,
    model: AlphaBetaModel | None = None,
) -> ResourceBounds:
    """Critical path and in-flight peaks in two walks of a fresh graph."""
    hb = hb if hb is not None else ReferenceHBGraph(schedule)
    model = model if model is not None else AlphaBetaModel()
    itemsize = schedule.itemsize if schedule.itemsize else 1

    n = len(schedule.steps)
    weight = [0.0] * n
    gpu_seconds: dict[int, float] = {}
    for s in schedule.steps:
        if isinstance(s, (RecvReduceStep, ReduceLocalStep)):
            weight[s.sid] = _nbytes(s, itemsize) * model.gamma
        elif isinstance(s, (ComputeStep, OptimStep)):
            weight[s.sid] = s.seconds
            gpu_seconds[s.rank] = gpu_seconds.get(s.rank, 0.0) + s.seconds
    finish = [0.0] * n
    via = [-1] * n
    channel_done: dict[tuple[int, int, object], float] = {}
    for sid in hb.order:
        step = schedule.steps[sid]
        best, best_pred = 0.0, -1
        for p in step.deps:
            if finish[p] > best:
                best, best_pred = finish[p], p
        snd_sid = hb.recv_to_send.get(sid)
        if snd_sid is not None:
            snd = schedule.steps[snd_sid]
            channel = (snd.rank, snd.dst, snd.key)
            arrival = max(finish[snd_sid], channel_done.get(channel, 0.0))
            arrival += _nbytes(snd, itemsize) * model.beta
            channel_done[channel] = arrival
            if arrival > best:
                best, best_pred = arrival, snd_sid
        finish[sid] = best + weight[sid]
        via[sid] = best_pred
    if n:
        tail = max(range(n), key=lambda i: finish[i])
        path = [tail]
        while via[path[-1]] >= 0:
            path.append(via[path[-1]])
        path.reverse()
        critical = finish[tail]
    else:
        path, critical = [], 0.0
    if gpu_seconds:
        critical = max(critical, max(gpu_seconds.values()))

    bounds = ResourceBounds(
        critical_path_s=critical,
        critical_path_sids=tuple(path),
    )
    link_now: dict[tuple[int, int], int] = {}
    rank_now: dict[int, int] = {}
    for sid in hb.order:
        step = schedule.steps[sid]
        if isinstance(step, SendStep):
            nbytes = _nbytes(step, itemsize)
            link = (step.rank, step.dst)
            link_now[link] = link_now.get(link, 0) + nbytes
            rank_now[step.rank] = rank_now.get(step.rank, 0) + nbytes
            bounds.total_wire_bytes += nbytes
            bounds.peak_link_bytes[link] = max(
                bounds.peak_link_bytes.get(link, 0), link_now[link]
            )
            bounds.peak_rank_bytes[step.rank] = max(
                bounds.peak_rank_bytes.get(step.rank, 0), rank_now[step.rank]
            )
        elif sid in hb.recv_to_send:
            snd = schedule.steps[hb.recv_to_send[sid]]
            nbytes = _nbytes(snd, itemsize)
            link_now[(snd.rank, snd.dst)] -= nbytes
            rank_now[snd.rank] -= nbytes
    bounds.leaked_bytes = sum(link_now.values())
    return bounds
