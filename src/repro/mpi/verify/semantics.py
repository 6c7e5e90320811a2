"""Semantic abstract interpretation of a schedule.

The interpreter executes the happens-before DAG symbolically: every
buffer element carries a *multiset of contribution tokens* instead of
numbers.  Tokens are in offset form, ``(origin rank, origin buffer, d)``
held by element ``i`` meaning origin index ``i + d`` (see
:mod:`repro.mpi.verify.contracts`), so a whole range of elements that
hold the same contributions shares one multiset.  Each ``(rank, buf)``
state is a sorted list of **runs** ``[a, b)``, and every step works on
runs, never on single elements:

* a read takes the runs overlapping ``[lo, hi)``, clipped at both ends;
* a message or local move shifts every offset by ``src_lo - dst_lo`` so
  each token keeps naming the same origin index;
* ``RecvReduceStep`` and ``ReduceLocalStep`` union the payload into the
  overlapping runs (recording a **duplicate arrival** whenever a token
  that is already present arrives again); ``CopyStep``, a producing
  ``ComputeStep`` (a snapshot of ``src_buf`` when staged, fresh own-rank
  tokens when abstract) and an ``OptimStep``'s ``dst_buf`` overwrite them
  (recording a **destroyed token** for every token the write kills);
* sends snapshot their range when they execute (eager ``isend``);
* adjacent runs merge only when their multisets are equal *and* list
  their tokens in the same order — token order decides which token a
  grouped finding quotes and how findings with the same first index tie,
  so it is part of the value.

An ``OptimStep`` checks its gradient range against the contract's
expectation *at the moment it reads* (the ``unreduced-optim-read``
defect: the parameter update consumed a partially-reduced gradient, even
if the reduction completes later).  After the run, each run is checked
against the contract's expected multiset.  Runs that match prove every
element they cover; a run that fails is cut at the boundaries of the log
entries that touch it, and each piece is classified as a block:

* ``double-reduce`` — an expected token present with multiplicity > 1
  (the duplicate-arrival log names the steps where it arrived again);
* ``misrouted-contribution`` — a token that should never reach this
  element (retargeted reduce, widened range);
* ``overwrite-after-reduce`` — an expected token is missing *and* the
  destroyed-token log shows a write killed it;
* ``missing-contribution`` — an expected token simply never arrived.

Findings are grouped per (rank, buffer, kind, origin rank, steps) and
reported with their element span, exactly as an element-by-element walk
would report them; the cost grows with the number of runs, not with the
buffer length.

The result is exact — not an approximation — **provided** the schedule
is race-free and match-deterministic: then every execution order the
runtime may choose yields the same abstract values the canonical
linearization computes.  The race and determinism passes establish
exactly that precondition, which is why
:func:`repro.mpi.verify.verify_schedule` always runs them together.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    SendStep,
)
from repro.mpi.verify.contracts import Contract, Multiset, Token
from repro.mpi.verify.hb import HBGraph
from repro.mpi.verify.report import Issue, cap_issues

__all__ = ["SemanticResult", "interpret_schedule"]

#: Elements ``[a, b)`` that all hold one offset-form multiset.
Run = tuple[int, int, Multiset]


@dataclass
class SemanticResult:
    """Outcome of one abstract interpretation run."""

    issues: list[Issue]
    #: rank -> buffer name -> final runs, sorted and covering the buffer.
    states: dict[int, dict[str, list[Run]]]
    #: (sid, rank, buf, (lo, hi), token): a token already present in
    #: ``buf[lo:hi)`` arrived again (offset form, destination elements).
    dup_events: list[tuple[int, int, str, tuple[int, int], Token]] = field(
        default_factory=list
    )
    #: (sid, origin rank, origin buf, (lo, hi)): the write of step ``sid``
    #: killed a live copy of origin elements ``[lo, hi)`` (absolute).
    destroyed: list[tuple[int, int, str, tuple[int, int]]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.issues


def _same(a: Multiset, b: Multiset) -> bool:
    """Equal multisets listing their tokens in the same order."""
    return a is b or (a == b and list(a) == list(b))


def _shift(cell: Multiset, delta: int) -> Multiset:
    return {(r, b, d + delta): m for (r, b, d), m in cell.items()}


def _moved(runs: list[Run], src_lo: int, dst_lo: int, dst_hi: int) -> list[Run]:
    """Runs read at ``src_lo`` re-addressed to start at ``dst_lo``.

    Offsets shift by ``src_lo - dst_lo`` so every token keeps naming the
    same origin element; the result is clipped at ``dst_hi``.
    """
    delta = src_lo - dst_lo
    if not delta and (not runs or runs[-1][1] <= dst_hi):
        return runs
    out: list[Run] = []
    for a, b, cell in runs:
        a, b = a - delta, min(b - delta, dst_hi)
        if a >= b:
            break
        out.append((a, b, _shift(cell, delta) if delta else cell))
    return out


def _pairs(old: list[Run], new: list[Run]):
    """Common refinement of two run lists over the same range."""
    i = j = 0
    while i < len(old) and j < len(new):
        a0, a1, x = old[i]
        b0, b1, y = new[j]
        yield max(a0, b0), min(a1, b1), x, y
        if a1 <= b1:
            i += 1
        if b1 <= a1:
            j += 1


class _Store:
    """One ``(rank, buf)`` state: run ``k`` is ``[bounds[k], bounds[k+1])``."""

    __slots__ = ("bounds", "cells")

    def __init__(self, length: int, cell: Multiset):
        self.bounds = [0, length] if length else [0]
        self.cells = [cell] if length else []

    @property
    def length(self) -> int:
        return self.bounds[-1]

    def read(self, lo: int, hi: int) -> list[Run]:
        """The runs overlapping ``[lo, hi)``, clipped to it."""
        if lo >= hi:
            return []
        bounds, cells = self.bounds, self.cells
        k = bisect_right(bounds, lo) - 1
        out: list[Run] = []
        while k < len(cells) and bounds[k] < hi:
            out.append((max(bounds[k], lo), min(bounds[k + 1], hi), cells[k]))
            k += 1
        return out

    def _split(self, p: int) -> int:
        """Make ``p`` a run boundary; the index of the run starting there."""
        bounds = self.bounds
        k = bisect_right(bounds, p) - 1
        if bounds[k] != p:
            k += 1
            bounds.insert(k, p)
            self.cells.insert(k, self.cells[k - 1])
        return k

    def write(self, runs: list[Run]) -> None:
        """Replace the elements ``runs`` cover (contiguously) with them."""
        if not runs:
            return
        i = self._split(runs[0][0])
        j = self._split(runs[-1][1])
        bounds, cells = self.bounds, self.cells
        bounds[i + 1:j] = [a for a, _, _ in runs[1:]]
        cells[i:j] = [cell for _, _, cell in runs]
        k, end = max(i, 1), min(i + len(runs), len(cells) - 1)
        while k <= end:
            if _same(cells[k - 1], cells[k]):
                del cells[k], bounds[k]
                end -= 1
            else:
                k += 1

    def runs(self) -> list[Run]:
        b = self.bounds
        return [(b[k], b[k + 1], cell) for k, cell in enumerate(self.cells)]


def _span(count: int, first: int, last: int) -> str:
    return f"element {first}" if count == 1 else f"{count} elements ({first}..{last})"


def interpret_schedule(
    schedule: Schedule,
    contract: Contract,
    *,
    hb: HBGraph | None = None,
) -> SemanticResult:
    """Run the abstract interpreter and check the contract's postcondition.

    Expects a schedule that already passed
    :func:`~repro.mpi.schedule.validate_schedule` (unmatched messages and
    cycles raise :class:`~repro.mpi.schedule.ScheduleError` here too, just
    less gracefully).
    """
    hb = hb if hb is not None else HBGraph(schedule)
    stores = {
        rank: {
            buf: _Store(cnt, dict(contract.initial(rank, buf)))
            for buf, cnt in contract.buffers(rank).items()
        }
        for rank in range(contract.n_ranks)
    }
    result = SemanticResult(issues=[], states={})
    dups, destroyed = result.dup_events, result.destroyed
    channels: dict[tuple[int, int, object], deque] = {}
    structural: list[Issue] = []
    #: (sid, buf, rank, count, first, last) per premature optimizer read.
    premature: list[tuple[int, str, int, int, int, int]] = []

    def view(rank: int, buf: str | None, lo: int, hi: int, sid: int):
        """``(store, runs of buf[lo:hi))``; ``None`` after a structural issue.

        ``buf=None`` is an empty view with no store.
        """
        if buf is None:
            return None, []
        store = stores[rank].get(buf)
        if store is None:
            structural.append(Issue(
                pass_name="semantic", kind="unbound-buffer", rank=rank,
                sids=(sid,),
                message=f"step {sid} touches buffer {buf!r} the "
                        f"{contract.name} contract does not declare for rank {rank}",
            ))
            return None
        if hi > store.length:
            structural.append(Issue(
                pass_name="semantic", kind="range-overflow", rank=rank,
                sids=(sid,),
                message=f"step {sid} range [{lo}, {hi}) exceeds {buf!r} "
                        f"length {store.length} on rank {rank}",
            ))
            return None
        return store, store.read(lo, hi)

    def reduce_into(store: _Store, payload: list[Run], rank: int, buf: str, sid: int):
        if not payload:
            return
        merged: list[Run] = []
        for a, b, cell, items in _pairs(store.read(payload[0][0], payload[-1][1]), payload):
            cell = dict(cell)
            for token, mult in items.items():
                if token in cell:
                    dups.append((sid, rank, buf, (a, b), token))
                cell[token] = cell.get(token, 0) + mult
            merged.append((a, b, cell))
        store.write(merged)

    def overwrite(store: _Store, payload: list[Run], sid: int):
        if not payload:
            return
        for a, b, old, new in _pairs(store.read(payload[0][0], payload[-1][1]), payload):
            for (r, origin, d), mult in old.items():
                if mult > new.get((r, origin, d), 0):
                    destroyed.append((sid, r, origin, (a + d, b + d)))
        store.write(payload)

    for sid in hb.order:
        step = schedule.steps[sid]
        if isinstance(step, SendStep):
            got = view(step.rank, step.buf, step.lo, step.hi, sid)
            payload = got[1] if got is not None else []
            channels.setdefault((step.rank, step.dst, step.key), deque()).append(
                (step.lo, payload)
            )
        elif isinstance(step, (RecvReduceStep, CopyStep)):
            queue = channels.get((step.src, step.rank, step.key))
            src_lo, payload = queue.popleft() if queue else (0, [])
            if step.buf is None:
                continue
            got = view(step.rank, step.buf, step.lo, step.hi, sid)
            if got is None:
                continue
            payload = _moved(payload, src_lo, step.lo, step.hi)
            if isinstance(step, RecvReduceStep):
                reduce_into(got[0], payload, step.rank, step.buf, sid)
            else:
                overwrite(got[0], payload, sid)
        elif isinstance(step, ReduceLocalStep):
            src = view(step.rank, step.src_buf, step.src_lo, step.src_hi, sid)
            dst = view(step.rank, step.buf, step.lo, step.hi, sid)
            if src is None or dst is None or dst[0] is None:
                continue
            payload = _moved(src[1], step.src_lo, step.lo, step.hi)
            reduce_into(dst[0], payload, step.rank, step.buf, sid)
        elif isinstance(step, ComputeStep):
            if step.buf is None:
                continue
            dst = view(step.rank, step.buf, step.lo, step.hi, sid)
            if dst is None:
                continue
            if step.src_buf is not None:
                src = view(step.rank, step.src_buf, step.lo, step.hi, sid)
                if src is None:
                    continue
                payload = src[1]
            else:
                # Abstract production: the backward pass writes a fresh
                # local gradient — one own-rank token per element.
                payload = (
                    [(step.lo, step.hi, {(step.rank, step.buf, 0): 1})]
                    if step.hi > step.lo else []
                )
            overwrite(dst[0], payload, sid)
        elif isinstance(step, OptimStep):
            got = view(step.rank, step.buf, step.lo, step.hi, sid)
            if got is None:
                continue
            store, runs = got
            expected = (
                contract.expected(step.rank, step.buf) if store is not None else None
            )
            if expected is not None:
                stale = [(a, b) for a, b, cell in runs if cell != expected]
                if stale:
                    premature.append((
                        sid, step.buf, step.rank,
                        sum(b - a for a, b in stale), stale[0][0], stale[-1][1] - 1,
                    ))
            if step.dst_buf is not None:
                dst = view(step.rank, step.dst_buf, step.lo, step.hi, sid)
                if dst is not None:
                    overwrite(dst[0], runs, sid)

    for sid, buf, rank, count, first, last in sorted(premature):
        structural.append(Issue(
            pass_name="semantic", kind="unreduced-optim-read", rank=rank,
            sids=(sid,),
            message=(
                f"optim step {sid} reads {buf}: {_span(count, first, last)} "
                f"before the range is fully reduced"
            ),
        ))

    result.states = {
        rank: {buf: store.runs() for buf, store in bufs.items()}
        for rank, bufs in stores.items()
    }
    result.issues = cap_issues(structural, "semantic") + _check_postcondition(
        contract, result
    )
    return result


def _check_postcondition(contract: Contract, result: SemanticResult) -> list[Issue]:
    """Compare final runs against the contract's expectation.

    A failing run is cut wherever a log entry that bears on one of its
    findings starts or stops, so every finding is constant on each piece;
    the pieces then feed the same per-key element spans an element walk
    would build (count, first and last index, and the message of the last
    token that hit the key).
    """
    #: (rank, buf, origin rank, origin buf) -> (sid, lo, hi) absolute origin
    #: ranges that arrived twice there.
    dup_log: dict[tuple[int, str, int, str], list[tuple[int, int, int]]] = {}
    for sid, rank, buf, (lo, hi), (r, origin, d) in result.dup_events:
        dup_log.setdefault((rank, buf, r, origin), []).append((sid, lo + d, hi + d))
    kill_log: dict[tuple[int, str], list[tuple[int, int, int]]] = {}
    for sid, r, origin, (lo, hi) in result.destroyed:
        kill_log.setdefault((r, origin), []).append((sid, lo, hi))

    #: key -> [first index, element hits, last index, (token, shown, want)].
    grouped: dict[tuple, list] = {}
    for rank, bufs in result.states.items():
        for buf, runs in bufs.items():
            expected = contract.expected(rank, buf)
            if expected is None:
                continue
            for a, b, actual in runs:
                if actual == expected:
                    continue
                # (token, shown, want, kind or None, log entries it reads)
                findings = []
                for token, mult in actual.items():
                    want = expected.get(token, 0)
                    if mult > want:
                        if want > 0:
                            log = dup_log.get((rank, buf, token[0], token[1]), ())
                            findings.append((token, mult, want, "double-reduce", log))
                        else:
                            findings.append((token, mult, want, "misrouted-contribution", ()))
                for token, want in expected.items():
                    have = actual.get(token, 0)
                    if have < want:
                        log = kill_log.get((token[0], token[1]), ())
                        findings.append((token, have, want, None, log))
                cuts = {a, b}
                for token, _, _, _, log in findings:
                    d = token[2]
                    for _, lo, hi in log:
                        cuts.update(p for p in (lo - d, hi - d) if a < p < b)
                cuts = sorted(cuts)
                for s, e in zip(cuts, cuts[1:]):
                    for token, shown, want, kind, log in findings:
                        d = token[2]
                        sids = tuple(sorted({
                            sid for sid, lo, hi in log if lo <= s + d < hi
                        }))
                        if kind is None:
                            found = (
                                "overwrite-after-reduce" if sids
                                else "missing-contribution"
                            )
                        else:
                            found = kind
                        key = (rank, buf, found, token[0], sids)
                        group = grouped.get(key)
                        if group is None:
                            group = grouped[key] = [s, 0, 0, None]
                        group[1] += e - s
                        group[2] = e - 1
                        group[3] = ((token[0], token[1], e - 1 + d), shown, want)

    issues: list[Issue] = []
    for key, (first, count, last, (token, shown, want)) in sorted(
        grouped.items(), key=lambda kv: kv[1][0]
    ):
        rank, buf, kind, _origin, sids = key
        issues.append(Issue(
            pass_name="semantic", kind=kind, rank=rank, sids=sids,
            message=(
                f"{buf}: {_span(count, first, last)}: contribution {token} "
                f"appears x{shown} (expected x{want})"
            ),
        ))
    return cap_issues(issues, "semantic")
