"""The run-length semantic interpreter against the element interpreter.

``repro.mpi.verify.semantics`` proves contracts over runs of elements;
``semantic_reference`` keeps the element-by-element interpreter it
replaced, with its per-element contracts.  Both run on the same lint-clean
schedules and must report the same issues, message for message:

* hypothesis-drawn ``ScheduleBuilder`` programs over all six contracts —
  shifted, widened and zero-length ranges, unbound buffers, range
  overflow, token-only messages, overlapping ``reduce_local``, staged and
  abstract ``compute``, ``optim`` with and without ``dst_buf``;
* every ``MUTATORS`` mutant of the ``sweep_cases`` schedules at 2/4/6
  ranks, plus the mutation suite's training-step mutants.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.mpi.schedule import ScheduleBuilder, ScheduleError, validate_schedule
from repro.mpi.verify import (
    HBGraph,
    allreduce_contract,
    alltoallv_contract,
    barrier_contract,
    broadcast_contract,
    interpret_schedule,
    reduce_contract,
    sweep_cases,
    train_step_contract,
)

from tests.mpi import semantic_reference as ref
from tests.mpi.mutation import MUTATORS


def reference_contract(contract):
    """The per-element contract that states the same collective."""
    n = contract.n_ranks
    if contract.name == "alltoallv":
        return ref.alltoallv_contract(tuple(
            tuple(contract.buffers(s)[f"out{d}"] for d in range(n))
            for s in range(n)
        ))
    if contract.name == "barrier":
        return ref.barrier_contract(n)
    count = next(iter(contract.buffers(0).values()))
    if contract.name == "allreduce":
        return ref.allreduce_contract(n, count)
    if contract.name == "train-step":
        return ref.train_step_contract(n, count)
    kind, root = contract.name.rstrip(")").split("(root=")
    factory = {"reduce": ref.reduce_contract, "broadcast": ref.broadcast_contract}[kind]
    return factory(n, count, root=int(root))


def assert_same_issues(schedule, contract):
    hb = HBGraph(schedule)
    runs = interpret_schedule(schedule, contract, hb=hb)
    elements = ref.interpret_schedule(schedule, reference_contract(contract), hb=hb)
    assert [str(i) for i in runs.issues] == [str(i) for i in elements.issues]
    assert runs.issues == elements.issues
    return runs


def lint_clean(schedule) -> bool:
    try:
        validate_schedule(schedule)
    except ScheduleError:
        return False
    return True


# -- hypothesis programs ------------------------------------------------------


@st.composite
def contracts(draw):
    kind = draw(st.sampled_from(
        ["allreduce", "reduce", "broadcast", "barrier", "train-step", "alltoallv"]
    ))
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, 9))
    if kind == "allreduce":
        return allreduce_contract(n, count)
    if kind == "reduce":
        return reduce_contract(n, count, root=draw(st.integers(0, n - 1)))
    if kind == "broadcast":
        return broadcast_contract(n, count, root=draw(st.integers(0, n - 1)))
    if kind == "barrier":
        return barrier_contract(n)
    if kind == "train-step":
        return train_step_contract(n, count)
    row = st.tuples(*[st.integers(0, 6)] * n)
    return alltoallv_contract(draw(st.tuples(*[row] * n)))


@st.composite
def programs(draw):
    """A contract plus a random (possibly broken) schedule for it."""
    contract = draw(contracts())
    n = contract.n_ranks
    names = sorted({b for r in range(n) for b in contract.buffers(r)} | {"ghost"})
    longest = max([1] + [c for r in range(n) for c in contract.buffers(r).values()])
    b = ScheduleBuilder(n, name="drawn")
    last: list[list[int]] = [[] for _ in range(n)]

    def buf(rank, *, optional=False):
        pool = sorted(contract.buffers(rank)) or names
        choice = draw(st.sampled_from(
            pool * 4 + names + ([None] if optional else [])
        ))
        return choice

    def span(length=None):
        lo = draw(st.integers(0, longest + 1))
        if length is None:
            length = draw(st.integers(0, longest + 1 - lo))
        return lo, lo + length

    def deps(rank):
        return draw(st.lists(st.sampled_from(last[rank]), max_size=2)) if last[rank] else None

    def emit(rank, sid):
        last[rank].append(sid)

    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(
            ["send", "send", "send", "local", "compute", "optim"]
        ))
        rank = draw(st.integers(0, n - 1))
        if op == "send" and n > 1:
            dst = draw(st.sampled_from([r for r in range(n) if r != rank]))
            key = draw(st.integers(0, 2))
            lo, hi = span()
            dlo, dhi = span(hi - lo)
            sbuf = buf(rank, optional=True)
            recv = draw(st.sampled_from(["reduce", "reduce", "copy", "token"]))
            recv_first = draw(st.booleans())
            order = [("r", dst), ("s", rank)] if recv_first else [("s", rank), ("r", dst)]
            for what, who in order:
                if what == "s":
                    emit(who, b.send(who, dst, key, lo, hi, buf=sbuf, deps=deps(who)))
                elif recv == "reduce":
                    emit(who, b.recv_reduce(
                        who, rank, key, dlo, dhi, buf=buf(who), deps=deps(who)))
                elif recv == "copy":
                    emit(who, b.copy(who, rank, key, dlo, dhi, buf=buf(who), deps=deps(who)))
                else:
                    emit(who, b.recv(who, rank, key, deps=deps(who)))
        elif op == "local":
            src_lo, src_hi = span()
            lo, hi = span(src_hi - src_lo + draw(st.integers(0, 1)))
            emit(rank, b.reduce_local(
                rank, lo, hi, src_lo, src_hi,
                buf=buf(rank), src_buf=buf(rank), deps=deps(rank),
            ))
        elif op == "compute":
            lo, hi = span()
            emit(rank, b.compute(
                rank, 0.0, buf=buf(rank, optional=True), lo=lo, hi=hi,
                src_buf=buf(rank, optional=True), deps=deps(rank),
            ))
        elif op == "optim":
            lo, hi = span()
            emit(rank, b.optim(
                rank, 0.0, lo, hi, buf=buf(rank),
                dst_buf=buf(rank, optional=True), deps=deps(rank),
            ))
    schedule = b.build()
    assume(lint_clean(schedule))
    return schedule, contract


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(programs())
def test_drawn_programs_report_identical_issues(program):
    schedule, contract = program
    assert_same_issues(schedule, contract)


# -- mutants of the verify sweep ----------------------------------------------


def _sweep_mutants(ranks):
    for label, schedule, contract in sweep_cases(ranks=ranks, count=61):
        if contract is None:
            continue
        yield label, schedule, contract
        for mutate in MUTATORS.values():
            for mutant in mutate(schedule, 3):
                if lint_clean(mutant.schedule):
                    yield f"{label} {mutant.description}", mutant.schedule, contract


@pytest.mark.parametrize("n_ranks", [2, 4, 6])
def test_sweep_mutants_report_identical_issues(n_ranks):
    failing = 0
    for _label, schedule, contract in _sweep_mutants((n_ranks,)):
        failing += not assert_same_issues(schedule, contract).ok
    assert failing  # the mutants really do exercise the diagnosis path


def test_step_mutants_report_identical_issues():
    from repro.train.stepdag import compile_bucketed_step

    contract = train_step_contract(4, 29)
    failing = 0
    for algorithm in ("multicolor", "ring"):
        baseline = compile_bucketed_step(
            4, 29, 8, forward_time=1e-9, backward_time=2e-9, optim_time=1e-9,
            n_buckets=3, algorithm=algorithm, memory="staged",
        )
        for mutate in MUTATORS.values():
            for mutant in mutate(baseline, 2):
                if lint_clean(mutant.schedule):
                    failing += not assert_same_issues(mutant.schedule, contract).ok
    assert failing


def test_duplicate_arrivals_are_matched_by_origin_index():
    # Rank 0's [0, 2) reaches rank 1 twice in place and twice shifted onto
    # [1, 3).  The double-reduce at element 0 (origin index 0) must name the
    # in-place repeat *and* the shifted one, which repeated origin index 0
    # at element 1 — duplicates are keyed by origin index, not by element.
    b = ScheduleBuilder(2, name="shifted-dups")
    for key, (lo, hi) in enumerate([(0, 2), (0, 2), (1, 3), (1, 3)]):
        b.send(0, 1, key, 0, 2)
        b.recv_reduce(1, 0, key, lo, hi)
    result = assert_same_issues(b.build(validate=True), allreduce_contract(2, 4))
    dup = next(i for i in result.issues if i.kind == "double-reduce")
    assert dup.sids == (3, 7)
