"""Mutation self-test: the verifier and the executor check each other.

Each mutator applies one small, realistic compiler bug to a correct
schedule — dropping or duplicating a matched send/receive pair, widening
a transfer range, retargeting a reduce window, deleting a dependency
edge, swapping two chained steps, or turning a reduce into a copy (and
vice versa).  Unified training-step DAGs get two compute-aware
operators on top: un-gating an ``OptimStep`` from its bucket's reduce
(the classic "optimizer ran before the allreduce finished" overlap bug)
and swapping a dep-chained compute/comm pair (communication fires
before the gradient it ships exists).  Every mutant is then judged
twice:

* **statically** — :func:`repro.mpi.verify.verify_schedule` against the
  collective's contract;
* **dynamically** — executed on the simulator with integer payloads and
  compared against the exact elementwise sum (deadlock and crash count
  as miscomputation).

The cross product classifies each mutant: ``killed`` (executor
miscomputes, verifier flags — the desired outcome), ``escaped``
(miscomputes but verifies clean — a verifier hole), ``benign`` (both
agree the mutant is harmless, e.g. a transitively-implied dep removed)
and ``overcautious`` (verifier flags a mutant the executor happens to
compute correctly — acceptable: the verifier quantifies over *all*
execution orders while one run samples one).  The suite asserts the
kill rate over harmful mutants stays >= 95%.

Mutants are constructed to pass the structural lint wherever possible
(pairs are dropped/duplicated together, ranges stay inside the buffer)
so the deeper passes — not the lint — do the killing.

The batteries run under pytest: ``tests/mpi/test_verify_mutation.py``
grades the smoke slice (one compiler per family) and the training-step
DAGs in tier 1, and the full registry under ``-m slow``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    OptimStep,
    RecvReduceStep,
    Schedule,
    ScheduleExecutor,
    _message_edges,
)
from repro.mpi.verify import allreduce_contract, train_step_contract, verify_schedule
from repro.sim.engine import SimulationError

__all__ = [
    "MUTATORS",
    "Mutant",
    "MutationRecord",
    "MutationResult",
    "run_mutation_suite",
    "run_step_mutation_suite",
]


@dataclass(frozen=True)
class Mutant:
    """One mutated schedule plus what was done to it."""

    operator: str
    description: str
    schedule: Schedule


@dataclass(frozen=True)
class MutationRecord:
    """Verdict on one mutant: static findings x dynamic behaviour."""

    algorithm: str
    operator: str
    description: str
    #: defect kinds the verifier reported (empty = verifies clean).
    static_kinds: tuple[str, ...]
    #: ``"correct"``, ``"wrong"``, ``"deadlock"`` or ``"crash"``.
    dynamic: str

    @property
    def harmful(self) -> bool:
        return self.dynamic != "correct"

    @property
    def caught(self) -> bool:
        return bool(self.static_kinds)

    @property
    def classification(self) -> str:
        if self.harmful:
            return "killed" if self.caught else "escaped"
        return "overcautious" if self.caught else "benign"


@dataclass
class MutationResult:
    """Aggregate of one mutation sweep."""

    records: list[MutationRecord] = field(default_factory=list)

    def by_class(self, cls: str) -> list[MutationRecord]:
        return [r for r in self.records if r.classification == cls]

    @property
    def kill_rate(self) -> float:
        """Fraction of executor-miscomputing mutants flagged statically."""
        harmful = [r for r in self.records if r.harmful]
        if not harmful:
            return 1.0
        return sum(r.caught for r in harmful) / len(harmful)

    def format(self) -> str:
        counts = {
            cls: len(self.by_class(cls))
            for cls in ("killed", "escaped", "benign", "overcautious")
        }
        lines = [
            f"mutation sweep: {len(self.records)} mutants — "
            + ", ".join(f"{v} {k}" for k, v in counts.items())
            + f"; kill rate {self.kill_rate:.1%}"
        ]
        for r in self.by_class("escaped"):
            lines.append(
                f"  ESCAPED {r.algorithm}/{r.operator}: {r.description} "
                f"(dynamic={r.dynamic})"
            )
        return "\n".join(lines)


# -- schedule surgery ---------------------------------------------------------

def _rebuild(schedule: Schedule, steps, suffix: str) -> Schedule:
    return dataclasses.replace(
        schedule, steps=tuple(steps), name=f"{schedule.name}|{suffix}"
    )


def _drop_steps(schedule: Schedule, remove: set[int], suffix: str) -> Schedule:
    """Remove steps, renumber densely, splice deps through removed steps."""
    mapping: dict[int, int] = {}
    new_steps = []

    def resolve(d: int) -> list[int]:
        if d in remove:
            out: list[int] = []
            for dd in schedule.steps[d].deps:
                out.extend(resolve(dd))
            return out
        return [d]

    for s in schedule.steps:
        if s.sid in remove:
            continue
        mapping[s.sid] = len(new_steps)
        deps = tuple(sorted({mapping[x] for d in s.deps for x in resolve(d)}))
        new_steps.append(dataclasses.replace(s, sid=len(new_steps), deps=deps))
    return _rebuild(schedule, new_steps, suffix)


def _edit_step(schedule: Schedule, sid: int, suffix: str, **fields) -> Schedule:
    steps = list(schedule.steps)
    steps[sid] = dataclasses.replace(steps[sid], **fields)
    return _rebuild(schedule, steps, suffix)


def _sample(candidates: list, per_op: int) -> list:
    """Deterministic spread of up to ``per_op`` mutation sites."""
    if len(candidates) <= per_op:
        return candidates
    stride = (len(candidates) - 1) / (per_op - 1) if per_op > 1 else 1
    return [candidates[round(i * stride)] for i in range(per_op)]


# -- mutation operators -------------------------------------------------------

def _mut_drop_send(schedule: Schedule, per_op: int):
    """Drop a matched send/receive pair (lint stays balanced)."""
    for snd, rcv in _sample(_message_edges(schedule), per_op):
        yield Mutant(
            "drop-send", f"drop send {snd} and its matched recv {rcv}",
            _drop_steps(schedule, {snd, rcv}, f"drop{snd}"),
        )


def _mut_duplicate_send(schedule: Schedule, per_op: int):
    """Replay a matched pair: append a second send and a second receive."""
    for snd, rcv in _sample(_message_edges(schedule), per_op):
        steps = list(schedule.steps)
        s, r = schedule.steps[snd], schedule.steps[rcv]
        steps.append(dataclasses.replace(
            s, sid=len(steps), deps=(snd,), note="dup send"
        ))
        steps.append(dataclasses.replace(
            r, sid=len(steps), deps=(rcv,), note="dup recv"
        ))
        yield Mutant(
            "duplicate-send", f"replay send {snd} -> recv {rcv}",
            _rebuild(schedule, steps, f"dup{snd}"),
        )


def _mut_widen_range(schedule: Schedule, per_op: int):
    """Widen a matched pair's range by one element (staying in bounds)."""
    count = schedule.count
    if count is None:
        return
    candidates = []
    for snd, rcv in _message_edges(schedule):
        s, r = schedule.steps[snd], schedule.steps[rcv]
        if s.buf is None or r.buf is None:
            continue
        if s.hi < count and r.hi < count:
            candidates.append((snd, rcv, "hi"))
        elif s.lo > 0 and r.lo > 0:
            candidates.append((snd, rcv, "lo"))
    for snd, rcv, edge in _sample(candidates, per_op):
        s, r = schedule.steps[snd], schedule.steps[rcv]
        steps = list(schedule.steps)
        if edge == "hi":
            steps[snd] = dataclasses.replace(s, hi=s.hi + 1)
            steps[rcv] = dataclasses.replace(r, hi=r.hi + 1)
        else:
            steps[snd] = dataclasses.replace(s, lo=s.lo - 1)
            steps[rcv] = dataclasses.replace(r, lo=r.lo - 1)
        yield Mutant(
            "widen-range", f"widen {edge} of send {snd}/recv {rcv} by 1",
            _rebuild(schedule, steps, f"widen{snd}"),
        )


def _mut_retarget_reduce(schedule: Schedule, per_op: int):
    """Shift a receive-reduce window (same size, wrong offset)."""
    count = schedule.count
    if count is None:
        return
    candidates = []
    for s in schedule.steps:
        if isinstance(s, RecvReduceStep) and s.hi > s.lo:
            size = s.hi - s.lo
            if s.hi + size <= count:
                candidates.append((s.sid, size))
            elif s.lo - size >= 0:
                candidates.append((s.sid, -size))
            elif s.hi < count:
                candidates.append((s.sid, 1))
            elif s.lo > 0:
                candidates.append((s.sid, -1))
    for sid, shift in _sample(candidates, per_op):
        s = schedule.steps[sid]
        yield Mutant(
            "retarget-reduce",
            f"shift reduce {sid} window [{s.lo},{s.hi}) by {shift:+d}",
            _edit_step(schedule, sid, f"shift{sid}",
                       lo=s.lo + shift, hi=s.hi + shift),
        )


def _mut_drop_dep(schedule: Schedule, per_op: int):
    """Delete one dependency edge (may race or reorder matching)."""
    candidates = [s.sid for s in schedule.steps if s.deps]
    for sid in _sample(candidates, per_op):
        deps = schedule.steps[sid].deps
        yield Mutant(
            "drop-dep", f"drop dep {deps[0]} of step {sid}",
            _edit_step(schedule, sid, f"nodep{sid}", deps=deps[1:]),
        )


def _mut_swap_steps(schedule: Schedule, per_op: int):
    """Swap the actions of two dep-chained same-rank steps.

    Each step keeps its sid and dep spine but performs the other's
    operation — the schedule-IR analogue of reordering two statements.
    """
    candidates = []
    for s in schedule.steps:
        for d in s.deps:
            if type(schedule.steps[d]) is not type(s):
                candidates.append((d, s.sid))
                break
    for a, b in _sample(candidates, per_op):
        sa, sb = schedule.steps[a], schedule.steps[b]
        steps = list(schedule.steps)
        steps[a] = dataclasses.replace(sb, sid=a, deps=sa.deps)
        steps[b] = dataclasses.replace(sa, sid=b, deps=sb.deps)
        yield Mutant(
            "swap-steps", f"swap actions of chained steps {a} and {b}",
            _rebuild(schedule, steps, f"swap{a}-{b}"),
        )


def _mut_reduce_to_copy(schedule: Schedule, per_op: int):
    """Demote a receive-reduce to a copy (result overwritten, not summed)."""
    candidates = [
        s.sid for s in schedule.steps
        if isinstance(s, RecvReduceStep) and s.hi > s.lo
    ]
    for sid in _sample(candidates, per_op):
        s = schedule.steps[sid]
        steps = list(schedule.steps)
        steps[sid] = CopyStep(
            s.sid, s.rank, s.deps, s.note, s.src, s.key, s.buf, s.lo, s.hi
        )
        yield Mutant(
            "reduce-to-copy", f"turn reduce {sid} into a copy",
            _rebuild(schedule, steps, f"r2c{sid}"),
        )


def _mut_copy_to_reduce(schedule: Schedule, per_op: int):
    """Promote a copy to a receive-reduce (stale value summed in)."""
    candidates = [
        s.sid for s in schedule.steps
        if isinstance(s, CopyStep) and s.buf is not None and s.hi > s.lo
    ]
    for sid in _sample(candidates, per_op):
        s = schedule.steps[sid]
        steps = list(schedule.steps)
        steps[sid] = RecvReduceStep(
            s.sid, s.rank, s.deps, s.note, s.src, s.key, s.buf, s.lo, s.hi
        )
        yield Mutant(
            "copy-to-reduce", f"turn copy {sid} into a reduce",
            _rebuild(schedule, steps, f"c2r{sid}"),
        )


def _is_compute(step) -> bool:
    return isinstance(step, (ComputeStep, OptimStep))


def _mut_drop_optim_dep(schedule: Schedule, per_op: int):
    """Un-gate an optimizer from its bucket's reduce (overlap bug #1).

    Drops every dep of an ``OptimStep`` that leads to a communication
    step, keeping the compute-chain deps (previous optim, backward) — the
    schedule-IR rendering of an optimizer kernel launched without waiting
    for the bucket's allreduce completion event.
    """
    candidates = []
    for s in schedule.steps:
        if not isinstance(s, OptimStep):
            continue
        comm_deps = tuple(
            d for d in s.deps if not _is_compute(schedule.steps[d])
        )
        if comm_deps:
            candidates.append((s.sid, comm_deps))
    for sid, comm_deps in _sample(candidates, per_op):
        dropped = set(comm_deps)
        keep = tuple(d for d in schedule.steps[sid].deps if d not in dropped)
        yield Mutant(
            "drop-optim-dep",
            f"optim {sid} no longer waits for its bucket's reduce "
            f"(deps {sorted(dropped)} dropped)",
            _edit_step(schedule, sid, f"nogate{sid}", deps=keep),
        )


def _mut_swap_compute_comm(schedule: Schedule, per_op: int):
    """Swap a dep-chained compute/comm pair (overlap bug #2).

    Exactly one of the two steps is compute-class, so after the swap the
    communication fires before the gradient it ships exists (or the
    compute consumes data the communication was meant to deliver first).
    Same surgery as ``swap-steps``: each position keeps its sid and dep
    spine but performs the other's action.
    """
    candidates = []
    for s in schedule.steps:
        for d in s.deps:
            if _is_compute(schedule.steps[d]) != _is_compute(s):
                candidates.append((d, s.sid))
                break
    for a, b in _sample(candidates, per_op):
        sa, sb = schedule.steps[a], schedule.steps[b]
        steps = list(schedule.steps)
        steps[a] = dataclasses.replace(sb, sid=a, deps=sa.deps)
        steps[b] = dataclasses.replace(sa, sid=b, deps=sb.deps)
        yield Mutant(
            "swap-compute-comm",
            f"swap compute/comm order of chained steps {a} and {b}",
            _rebuild(schedule, steps, f"xcswap{a}-{b}"),
        )


#: operator name -> generator of mutants (schedule, sites-per-operator).
MUTATORS = {
    "drop-send": _mut_drop_send,
    "duplicate-send": _mut_duplicate_send,
    "widen-range": _mut_widen_range,
    "retarget-reduce": _mut_retarget_reduce,
    "drop-dep": _mut_drop_dep,
    "swap-steps": _mut_swap_steps,
    "reduce-to-copy": _mut_reduce_to_copy,
    "copy-to-reduce": _mut_copy_to_reduce,
    "drop-optim-dep": _mut_drop_optim_dep,
    "swap-compute-comm": _mut_swap_compute_comm,
}


# -- dynamic oracle -----------------------------------------------------------

def _execute_allreduce(schedule: Schedule, n_ranks: int, count: int) -> str:
    """Run a (possibly broken) allreduce schedule; classify the outcome."""
    arrays = [
        (np.arange(count, dtype=np.int64) * (rank + 1) + rank * 1_000_003)
        for rank in range(n_ranks)
    ]
    want = np.sum(arrays, axis=0)
    bufs = [ArrayBuffer(a.copy()) for a in arrays]
    engine, world, comm = build_world(n_ranks, topology="star")
    try:
        ScheduleExecutor(comm, schedule, bufs).run()
    except SimulationError:
        return "deadlock"
    except Exception:
        return "crash"
    for buf in bufs:
        if not np.array_equal(buf.array, want):
            return "wrong"
    return "correct"


def _execute_train_step(schedule: Schedule, n_ranks: int, count: int) -> str:
    """Run a (possibly broken) staged training-step schedule; classify it.

    Binds the staged ``local``/``grad``/``update`` buffer triple with
    integer payloads; correct means *both* the communication buffer and
    the optimizer's output hold the exact elementwise sum of every rank's
    local gradient.
    """
    locals_ = [
        (np.arange(count, dtype=np.int64) * (rank + 1) + rank * 1_000_003)
        for rank in range(n_ranks)
    ]
    want = np.sum(locals_, axis=0)
    bufmaps = [
        {
            "local": ArrayBuffer(arr.copy()),
            "grad": ArrayBuffer(np.zeros(count, dtype=np.int64)),
            "update": ArrayBuffer(np.zeros(count, dtype=np.int64)),
        }
        for arr in locals_
    ]
    engine, world, comm = build_world(n_ranks, topology="star")
    try:
        ScheduleExecutor(comm, schedule, bufmaps).run()
    except SimulationError:
        return "deadlock"
    except Exception:
        return "crash"
    for m in bufmaps:
        if not np.array_equal(m["grad"].array, want):
            return "wrong"
        if not np.array_equal(m["update"].array, want):
            return "wrong"
    return "correct"


def run_mutation_suite(
    compilers: dict[str, object],
    *,
    n_ranks: int = 4,
    count: int = 29,
    itemsize: int = 8,
    per_op: int = 2,
) -> MutationResult:
    """Mutate each compiler's schedule and grade verifier vs executor.

    ``per_op`` bounds the mutation sites sampled per operator per
    algorithm (sites are spread deterministically over the candidates).
    """
    result = MutationResult()
    contract = allreduce_contract(n_ranks, count)
    for name, compiler in sorted(compilers.items()):
        baseline = compiler(n_ranks, count, itemsize)
        for mutate in MUTATORS.values():
            for mutant in mutate(baseline, per_op):
                report = verify_schedule(mutant.schedule, contract)
                dynamic = _execute_allreduce(mutant.schedule, n_ranks, count)
                result.records.append(MutationRecord(
                    algorithm=name,
                    operator=mutant.operator,
                    description=mutant.description,
                    static_kinds=tuple(sorted(report.kinds())),
                    dynamic=dynamic,
                ))
    return result


def run_step_mutation_suite(
    algorithms: tuple[str, ...] = ("multicolor", "ring"),
    *,
    n_ranks: int = 4,
    count: int = 29,
    itemsize: int = 8,
    n_buckets: int = 3,
    per_op: int = 2,
) -> MutationResult:
    """Mutate unified training-step DAGs and grade verifier vs executor.

    Same cross-grading as :func:`run_mutation_suite`, but over staged
    :func:`~repro.train.stepdag.compile_bucketed_step` schedules judged
    against :func:`~repro.mpi.verify.contracts.train_step_contract`, with
    :func:`_execute_train_step` as the dynamic oracle.  Compute times are
    kept far below the network's latency so an un-gated optimizer
    provably reads before any reduction can land.
    """
    from repro.train.stepdag import compile_bucketed_step

    result = MutationResult()
    contract = train_step_contract(n_ranks, count)
    for name in sorted(algorithms):
        baseline = compile_bucketed_step(
            n_ranks, count, itemsize,
            forward_time=1e-9, backward_time=2e-9, optim_time=1e-9,
            n_buckets=n_buckets, algorithm=name, memory="staged",
        )
        for mutate in MUTATORS.values():
            for mutant in mutate(baseline, per_op):
                report = verify_schedule(mutant.schedule, contract)
                dynamic = _execute_train_step(mutant.schedule, n_ranks, count)
                result.records.append(MutationRecord(
                    algorithm=f"step[{name}]",
                    operator=mutant.operator,
                    description=mutant.description,
                    static_kinds=tuple(sorted(report.kinds())),
                    dynamic=dynamic,
                ))
    return result
