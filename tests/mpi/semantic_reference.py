"""Element-by-element semantic interpreter: the differential reference.

:mod:`repro.mpi.verify.semantics` keeps each buffer as runs of elements
that share one offset-form multiset.  This module keeps the interpreter it
replaced: one dict of absolute contribution tokens ``(origin rank, origin
buffer, origin index)`` per element, and contracts that answer per element
index.  ``test_semantic_differential.py`` runs both on the same schedules
and requires the same issues, message for message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    SendStep,
)
from repro.mpi.verify.hb import HBGraph
from repro.mpi.verify.report import Issue, cap_issues

#: One rank-contribution: (origin rank, origin buffer name, origin index).
Token = tuple[int, str, int]
#: Abstract value of one buffer element: contribution token -> multiplicity.
Multiset = dict[Token, int]


@dataclass(frozen=True)
class ElementContract:
    """Buffers, initial abstract state and postcondition of a collective.

    ``buffers(rank)`` maps buffer name -> element count for that rank.
    ``initial(rank, buf, idx)`` returns the element's starting multiset.
    ``expected(rank, buf, idx)`` returns the required final multiset, or
    ``None`` when the element's final value is unconstrained.
    """

    name: str
    n_ranks: int
    buffers: Callable[[int], dict[str, int]]
    initial: Callable[[int, str, int], Multiset]
    expected: Callable[[int, str, int], Multiset | None]


def _own_element(rank: int, buf: str, idx: int) -> Multiset:
    return {(rank, buf, idx): 1}


def allreduce_contract(n_ranks: int, count: int) -> ElementContract:
    """Every rank ends with one contribution from every rank, elementwise."""
    full = lambda idx: {(r, "data", idx): 1 for r in range(n_ranks)}
    return ElementContract(
        name="allreduce",
        n_ranks=n_ranks,
        buffers=lambda rank: {"data": count},
        initial=_own_element,
        expected=lambda rank, buf, idx: full(idx),
    )


def reduce_contract(n_ranks: int, count: int, *, root: int = 0) -> ElementContract:
    """The root ends with the full sum; other ranks are undefined (MPI)."""
    full = lambda idx: {(r, "data", idx): 1 for r in range(n_ranks)}
    return ElementContract(
        name=f"reduce(root={root})",
        n_ranks=n_ranks,
        buffers=lambda rank: {"data": count},
        initial=_own_element,
        expected=lambda rank, buf, idx: full(idx) if rank == root else None,
    )


def broadcast_contract(n_ranks: int, count: int, *, root: int = 0) -> ElementContract:
    """Every rank ends with exactly the root's original element."""
    return ElementContract(
        name=f"broadcast(root={root})",
        n_ranks=n_ranks,
        buffers=lambda rank: {"data": count},
        initial=_own_element,
        expected=lambda rank, buf, idx: {(root, "data", idx): 1},
    )


def barrier_contract(n_ranks: int) -> ElementContract:
    """No data buffers: the schedule may only move zero-byte tokens."""
    return ElementContract(
        name="barrier",
        n_ranks=n_ranks,
        buffers=lambda rank: {},
        initial=_own_element,  # unreachable: no buffers declared
        expected=lambda rank, buf, idx: None,
    )


def train_step_contract(n_ranks: int, count: int) -> ElementContract:
    """One unified training step over staged buffers.

    ``local`` holds each rank's own backward-pass gradient (one own token
    per element); ``grad`` is the communication buffer the backward pass
    stages into and the allreduce runs over; ``update`` receives the
    optimizer's output.  Postcondition: every ``grad`` *and* ``update``
    element carries exactly one ``local`` contribution from every rank —
    i.e. the optimizer consumed a fully-reduced gradient.  ``local`` is
    unconstrained (it may be consumed in place).

    The semantic pass additionally checks the ``grad`` expectation at the
    moment each :class:`~repro.mpi.schedule.OptimStep` *reads* it
    (``unreduced-optim-read``), which is strictly stronger than the final
    state check alone.
    """
    full = lambda idx: {(r, "local", idx): 1 for r in range(n_ranks)}

    def initial(rank: int, buf: str, idx: int) -> Multiset:
        if buf == "local":
            return {(rank, "local", idx): 1}
        return {}

    def expected(rank: int, buf: str, idx: int) -> Multiset | None:
        if buf == "local":
            return None
        return full(idx)

    return ElementContract(
        name="train-step",
        n_ranks=n_ranks,
        buffers=lambda rank: {"local": count, "grad": count, "update": count},
        initial=initial,
        expected=expected,
    )


def alltoallv_contract(counts: tuple[tuple[int, ...], ...]) -> ElementContract:
    """Rank ``r`` ends with ``in{s}`` == rank ``s``'s original ``out{r}``.

    ``counts[s][d]`` is the element count rank ``s`` sends to rank ``d``.
    Receive buffers start *empty* (they are pure landing zones — the
    compiled schedule overwrites or fills them, so their prior content
    must never leak into the result).
    """
    n = len(counts)

    def buffers(rank: int) -> dict[str, int]:
        out = {f"out{d}": counts[rank][d] for d in range(n)}
        out.update({f"in{s}": counts[s][rank] for s in range(n)})
        return out

    def initial(rank: int, buf: str, idx: int) -> Multiset:
        if buf.startswith("in"):
            return {}
        return {(rank, buf, idx): 1}

    def expected(rank: int, buf: str, idx: int) -> Multiset | None:
        if not buf.startswith("in"):
            return None  # send buffers may be consumed in place
        src = int(buf[2:])
        return {(src, f"out{rank}", idx): 1}

    return ElementContract(
        name="alltoallv",
        n_ranks=n,
        buffers=buffers,
        initial=initial,
        expected=expected,
    )


@dataclass
class SemanticResult:
    """Outcome of one abstract interpretation run."""

    issues: list[Issue]
    #: rank -> buffer name -> per-element contribution multisets.
    states: dict[int, dict[str, list[Multiset]]]
    #: (sid, rank, buf, idx, token) for every duplicate arrival observed.
    dup_events: list[tuple[int, int, str, int, Token]] = field(default_factory=list)
    #: token -> sids of CopySteps that destroyed a live copy of it.
    destroyed: dict[Token, list[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues


def _init_states(contract: ElementContract) -> dict[int, dict[str, list[Multiset]]]:
    states: dict[int, dict[str, list[Multiset]]] = {}
    for rank in range(contract.n_ranks):
        states[rank] = {
            buf: [dict(contract.initial(rank, buf, i)) for i in range(cnt)]
            for buf, cnt in contract.buffers(rank).items()
        }
    return states


def interpret_schedule(
    schedule: Schedule,
    contract: ElementContract,
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
    states = _init_states(contract)
    result = SemanticResult(issues=[], states=states)
    channels: dict[tuple[int, int, object], deque] = {}
    structural: list[Issue] = []
    premature: list[tuple[int, int, str, int]] = []

    def element_slice(rank: int, buf: str | None, lo: int, hi: int, sid: int):
        """Resolve ``buf[lo:hi)`` or record a structural issue and skip."""
        if buf is None:
            return []
        store = states[rank].get(buf)
        if store is None:
            structural.append(Issue(
                pass_name="semantic", kind="unbound-buffer", rank=rank,
                sids=(sid,),
                message=f"step {sid} touches buffer {buf!r} the "
                        f"{contract.name} contract does not declare for rank {rank}",
            ))
            return None
        if hi > len(store):
            structural.append(Issue(
                pass_name="semantic", kind="range-overflow", rank=rank,
                sids=(sid,),
                message=f"step {sid} range [{lo}, {hi}) exceeds {buf!r} "
                        f"length {len(store)} on rank {rank}",
            ))
            return None
        return store[lo:hi]

    def reduce_into(dst: list[Multiset], payload, rank: int, buf: str, lo: int, sid: int):
        for j, items in enumerate(payload):
            cell = dst[j]
            for token, mult in items:
                if token in cell:
                    result.dup_events.append((sid, rank, buf, lo + j, token))
                cell[token] = cell.get(token, 0) + mult

    for sid in hb.order:
        step = schedule.steps[sid]
        if isinstance(step, SendStep):
            view = element_slice(step.rank, step.buf, step.lo, step.hi, sid)
            if view is None:
                view = []
            payload = [tuple(cell.items()) for cell in view]
            channels.setdefault((step.rank, step.dst, step.key), deque()).append(payload)
        elif isinstance(step, (RecvReduceStep, CopyStep)):
            queue = channels.get((step.src, step.rank, step.key))
            payload = queue.popleft() if queue else []
            if step.buf is None:
                continue
            view = element_slice(step.rank, step.buf, step.lo, step.hi, sid)
            if view is None:
                continue
            if isinstance(step, RecvReduceStep):
                reduce_into(view, payload, step.rank, step.buf, step.lo, sid)
            else:
                store = states[step.rank][step.buf]
                for j, items in enumerate(payload):
                    new = dict(items)
                    old = store[step.lo + j]
                    for token, mult in old.items():
                        if mult > new.get(token, 0):
                            result.destroyed.setdefault(token, []).append(sid)
                    store[step.lo + j] = new
        elif isinstance(step, ReduceLocalStep):
            src = element_slice(step.rank, step.src_buf, step.src_lo, step.src_hi, sid)
            dst = element_slice(step.rank, step.buf, step.lo, step.hi, sid)
            if src is None or dst is None:
                continue
            payload = [tuple(cell.items()) for cell in src]
            reduce_into(dst, payload, step.rank, step.buf, step.lo, sid)
        elif isinstance(step, ComputeStep):
            if step.buf is None:
                continue
            dst = element_slice(step.rank, step.buf, step.lo, step.hi, sid)
            if dst is None:
                continue
            if step.src_buf is not None:
                src = element_slice(step.rank, step.src_buf, step.lo, step.hi, sid)
                if src is None:
                    continue
                payload = [dict(cell) for cell in src]
            else:
                # Abstract production: the backward pass writes a fresh
                # local gradient — one own-rank token per element.
                payload = [
                    {(step.rank, step.buf, step.lo + j): 1}
                    for j in range(step.hi - step.lo)
                ]
            store = states[step.rank][step.buf]
            for j, new in enumerate(payload):
                old = store[step.lo + j]
                for token, mult in old.items():
                    if mult > new.get(token, 0):
                        result.destroyed.setdefault(token, []).append(sid)
                store[step.lo + j] = new
        elif isinstance(step, OptimStep):
            view = element_slice(step.rank, step.buf, step.lo, step.hi, sid)
            if view is None:
                continue
            for j, cell in enumerate(view):
                idx = step.lo + j
                expected = contract.expected(step.rank, step.buf, idx)
                if expected is not None and dict(cell) != dict(expected):
                    premature.append((sid, step.rank, step.buf, idx))
            if step.dst_buf is not None:
                dst = element_slice(step.rank, step.dst_buf, step.lo, step.hi, sid)
                if dst is not None:
                    store = states[step.rank][step.dst_buf]
                    for j, cell in enumerate(view):
                        new = dict(cell)
                        old = store[step.lo + j]
                        for token, mult in old.items():
                            if mult > new.get(token, 0):
                                result.destroyed.setdefault(token, []).append(sid)
                        store[step.lo + j] = new

    grouped_reads: dict[tuple[int, int, str], list[int]] = {}
    for sid, rank, buf, idx in premature:
        grouped_reads.setdefault((sid, rank, buf), []).append(idx)
    for (sid, rank, buf), indices in sorted(grouped_reads.items()):
        span = (
            f"element {indices[0]}" if len(indices) == 1
            else f"{len(indices)} elements ({indices[0]}..{indices[-1]})"
        )
        structural.append(Issue(
            pass_name="semantic", kind="unreduced-optim-read", rank=rank,
            sids=(sid,),
            message=(
                f"optim step {sid} reads {buf}: {span} before the range "
                f"is fully reduced"
            ),
        ))

    result.issues.extend(_check_postcondition(contract, result))
    result.issues = cap_issues(structural, "semantic") + result.issues
    return result


def _check_postcondition(contract: ElementContract, result: SemanticResult) -> list[Issue]:
    """Compare final abstract states against the contract's expectation."""
    dup_sids: dict[tuple[int, str, Token], list[int]] = {}
    for sid, rank, buf, _idx, token in result.dup_events:
        dup_sids.setdefault((rank, buf, token), []).append(sid)

    # Aggregate per (rank, buf, kind, token-origin, sids): element indices.
    grouped: dict[tuple, list[int]] = {}
    details: dict[tuple, str] = {}
    for rank, bufs in result.states.items():
        for buf, store in bufs.items():
            for idx, actual in enumerate(store):
                expected = contract.expected(rank, buf, idx)
                if expected is None:
                    continue
                for token, mult in actual.items():
                    want = expected.get(token, 0)
                    if mult > want:
                        if want > 0:
                            kind = "double-reduce"
                            sids = tuple(sorted(set(
                                dup_sids.get((rank, buf, token), [])
                            )))
                        else:
                            kind = "misrouted-contribution"
                            sids = ()
                        key = (rank, buf, kind, token[0], sids)
                        grouped.setdefault(key, []).append(idx)
                        details[key] = (
                            f"contribution {token} appears x{mult} "
                            f"(expected x{want})"
                        )
                for token, want in expected.items():
                    have = actual.get(token, 0)
                    if have < want:
                        killers = tuple(sorted(set(
                            result.destroyed.get(token, [])
                        )))
                        kind = (
                            "overwrite-after-reduce" if killers
                            else "missing-contribution"
                        )
                        key = (rank, buf, kind, token[0], killers)
                        grouped.setdefault(key, []).append(idx)
                        details[key] = (
                            f"contribution {token} appears x{have} "
                            f"(expected x{want})"
                        )

    issues: list[Issue] = []
    for key, indices in sorted(grouped.items(), key=lambda kv: kv[1][0]):
        rank, buf, kind, _origin, sids = key
        span = (
            f"element {indices[0]}" if len(indices) == 1
            else f"{len(indices)} elements ({indices[0]}..{indices[-1]})"
        )
        issues.append(Issue(
            pass_name="semantic", kind=kind, rank=rank, sids=sids,
            message=f"{buf}: {span}: {details[key]}",
        ))
    return cap_issues(issues, "semantic")
