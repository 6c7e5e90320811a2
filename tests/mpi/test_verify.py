"""Tests for the static schedule verifier (repro.mpi.verify)."""

import numpy as np
import pytest

from repro.mpi.collectives import (
    ALLREDUCE_COMPILERS,
    compile_alltoallv,
    compile_binomial_bcast,
    compile_binomial_reduce,
    compile_dissemination_barrier,
)
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleBuilder, ScheduleExecutor
from repro.mpi.verify import (
    HBGraph,
    allreduce_contract,
    alltoallv_contract,
    analyze_bounds,
    barrier_contract,
    broadcast_contract,
    check_bounds,
    check_match_determinism,
    find_races,
    interpret_schedule,
    reduce_contract,
    train_step_contract,
    verify_schedule,
)
from repro.mpi.verify.report import MAX_ISSUES_PER_PASS, Issue, cap_issues
from repro.mpi.verify.sweep import crosscheck_goldens, run_sweep

from tests.mpi.mutation import MUTATORS

# -- happens-before graph -----------------------------------------------------


def _two_rank_chain():
    b = ScheduleBuilder(2, name="chain", count=4, itemsize=4)
    s0 = b.send(0, 1, "a", 0, 4)
    s1 = b.send(0, 1, "b", 0, 4, deps=s0)
    r0 = b.recv_reduce(1, 0, "a", 0, 4)
    r1 = b.recv_reduce(1, 0, "b", 0, 4, deps=r0)
    return b.build(validate=True), (s0, s1, r0, r1)


def test_hb_graph_orders_deps_and_messages():
    sched, (s0, s1, r0, r1) = _two_rank_chain()
    hb = HBGraph(sched)
    assert hb.happens_before(s0, s1)
    assert hb.happens_before(s0, r0)      # message edge
    assert hb.happens_before(s0, r1)      # transitive
    assert not hb.happens_before(r1, s0)
    assert hb.concurrent(s1, r0)
    assert hb.send_to_recv[s0] == r0
    assert hb.position[s0] < hb.position[r0]


# -- zero false positives over the compiler zoo -------------------------------


@pytest.mark.parametrize("n_ranks", [2, 4, 6, 16])
@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPILERS))
def test_all_allreduce_compilers_prove_clean(name, n_ranks):
    count = 1003
    sched = ALLREDUCE_COMPILERS[name](n_ranks, count, 4, segment_bytes=1024)
    report = verify_schedule(sched, allreduce_contract(n_ranks, count))
    assert report.ok, report.format()
    assert report.resources is not None
    assert report.resources.critical_path_s > 0
    assert report.resources.leaked_bytes == 0


@pytest.mark.parametrize("n_ranks", [2, 4, 6, 16])
def test_auxiliary_collectives_prove_clean(n_ranks):
    counts = tuple(
        tuple((s * 7 + d * 3 + 1) % 11 for d in range(n_ranks))
        for s in range(n_ranks)
    )
    cases = [
        (compile_alltoallv(counts, 4), alltoallv_contract(counts)),
        (compile_dissemination_barrier(n_ranks), barrier_contract(n_ranks)),
        (compile_binomial_reduce(n_ranks, 13, 4), reduce_contract(n_ranks, 13)),
        (compile_binomial_bcast(n_ranks, 13, 4), broadcast_contract(n_ranks, 13)),
    ]
    for sched, contract in cases:
        report = verify_schedule(sched, contract)
        assert report.ok, report.format()


def test_compiled_alltoallv_matches_generator_semantics():
    # The compiled schedule must land exactly the payloads the verifier
    # proved: in{s} on rank r ends as rank s's out{r} block.
    n = 4
    counts = tuple(tuple((s + 2 * d + 1) % 5 for d in range(n)) for s in range(n))
    sched = compile_alltoallv(counts, 8)
    bufmaps = []
    for rank in range(n):
        bufmap = {}
        for d in range(n):
            bufmap[f"out{d}"] = ArrayBuffer(
                np.arange(counts[rank][d], dtype=np.int64) + 100 * rank + d
            )
            bufmap[f"in{d}"] = ArrayBuffer(
                np.zeros(counts[d][rank], dtype=np.int64)
            )
        bufmaps.append(bufmap)
    engine, world, comm = build_world(n, topology="star")
    ScheduleExecutor(comm, sched, bufmaps).run()
    for rank in range(n):
        for src in range(n):
            np.testing.assert_array_equal(
                bufmaps[rank][f"in{src}"].array,
                np.arange(counts[src][rank], dtype=np.int64) + 100 * src + rank,
                err_msg=f"rank {rank} block from {src}",
            )


# -- semantic defect detection ------------------------------------------------


def test_semantic_flags_double_reduce():
    # Rank 0's contribution travels to rank 1 twice over two channels;
    # rank 1's contribution reaches rank 0 once (clean direction, sent
    # before any reduce touches rank 1's buffer).
    b = ScheduleBuilder(2, name="dup", count=2, itemsize=4)
    b.send(1, 0, "c", 0, 2)
    b.recv_reduce(0, 1, "c", 0, 2)
    s0 = b.send(0, 1, "a", 0, 2)
    b.send(0, 1, "b", 0, 2, deps=s0)
    r0 = b.recv_reduce(1, 0, "a", 0, 2)
    b.recv_reduce(1, 0, "b", 0, 2, deps=r0)
    sched = b.build(validate=True)
    result = interpret_schedule(sched, allreduce_contract(2, 2))
    kinds = {i.kind for i in result.issues}
    assert "double-reduce" in kinds
    dup = next(i for i in result.issues if i.kind == "double-reduce")
    assert dup.rank == 1
    assert dup.sids  # attributed to the second arrival


def test_semantic_flags_missing_contribution():
    b = ScheduleBuilder(2, name="half", count=2, itemsize=4)
    b.send(1, 0, "g", 0, 2)
    b.recv_reduce(0, 1, "g", 0, 2)
    sched = b.build(validate=True)  # rank 1 never hears from rank 0
    result = interpret_schedule(sched, allreduce_contract(2, 2))
    kinds = {i.kind for i in result.issues}
    assert kinds == {"missing-contribution"}
    assert {i.rank for i in result.issues} == {1}


def test_semantic_flags_overwrite_after_reduce():
    # Rank 0 reduces rank 1's contribution, then a later copy overwrites
    # the reduced range with rank 1's raw payload again.
    b = ScheduleBuilder(2, name="clobber", count=2, itemsize=4)
    s0 = b.send(1, 0, "g", 0, 2)
    b.send(1, 0, "h", 0, 2, deps=s0)
    r0 = b.recv_reduce(0, 1, "g", 0, 2)
    clobber = b.copy(0, 1, "h", 0, 2, deps=r0)
    # Clean reverse direction so rank 1 is fully reduced.
    b.send(0, 1, "k", 0, 2)
    b.recv_reduce(1, 0, "k", 0, 2)
    sched = b.build(validate=True)
    result = interpret_schedule(sched, allreduce_contract(2, 2))
    kinds = {i.kind for i in result.issues}
    assert "overwrite-after-reduce" in kinds
    issue = next(i for i in result.issues if i.kind == "overwrite-after-reduce")
    assert clobber in issue.sids


def test_semantic_flags_misrouted_contribution():
    # A reduce window shifted off target: payload for [0,1) lands on [1,2).
    b = ScheduleBuilder(2, name="shifted", count=2, itemsize=4)
    b.send(0, 1, "a", 0, 1)
    b.recv_reduce(1, 0, "a", 1, 2)
    sched = b.build(validate=True)
    result = interpret_schedule(sched, allreduce_contract(2, 2))
    kinds = {i.kind for i in result.issues}
    assert "misrouted-contribution" in kinds
    assert "missing-contribution" in kinds


def test_semantic_flags_unbound_buffer_and_contract_mismatch():
    b = ScheduleBuilder(2, name="ghost", count=2, itemsize=4)
    b.send(0, 1, "a", 0, 2, buf="ghost")
    b.recv_reduce(1, 0, "a", 0, 2)
    sched = b.build(validate=True)
    result = interpret_schedule(sched, allreduce_contract(2, 2))
    assert "unbound-buffer" in {i.kind for i in result.issues}

    report = verify_schedule(sched, allreduce_contract(3, 2))
    assert "contract-mismatch" in report.kinds()


# -- contract factories -------------------------------------------------------


def test_reduce_contract_constrains_the_root():
    # Rank 0's data is only copied to rank 1: the root (1) never sees a
    # full sum, so the proof must fail; rank 0 as root is just as wrong.
    b = ScheduleBuilder(2, name="copy-only", count=4, itemsize=4)
    b.send(0, 1, "a", 0, 4)
    b.copy(1, 0, "a", 0, 4)
    sched = b.build(validate=True)
    for root in (0, 1):
        report = verify_schedule(sched, reduce_contract(2, 4, root=root))
        assert report.issues_by_pass("semantic"), report.format()


@pytest.mark.parametrize("factory", [
    lambda: allreduce_contract(0, 4),
    lambda: allreduce_contract(2, -1),
    lambda: reduce_contract(0, 4),
    lambda: reduce_contract(2, -1),
    lambda: reduce_contract(2, 4, root=7),
    lambda: reduce_contract(2, 4, root=2),
    lambda: reduce_contract(2, 4, root=-1),
    lambda: broadcast_contract(0, 4),
    lambda: broadcast_contract(2, -3),
    lambda: broadcast_contract(2, 4, root=2),
    lambda: broadcast_contract(2, 4, root=-1),
    lambda: barrier_contract(0),
    lambda: train_step_contract(0, 4),
    lambda: train_step_contract(2, -1),
    lambda: alltoallv_contract(()),
    lambda: alltoallv_contract(((1, 2, 3), (1, 2))),
    lambda: alltoallv_contract(((1, 2), (1, 2), (1, 2))),
    lambda: alltoallv_contract(((1,), (2,))),
    lambda: alltoallv_contract(((1, -2), (1, 2))),
])
def test_contract_factories_reject_impossible_collectives(factory):
    with pytest.raises(ValueError):
        factory()


def test_contract_factories_accept_edge_sizes():
    assert allreduce_contract(1, 0).buffers(0) == {"data": 0}
    assert reduce_contract(3, 5, root=2).expected(1, "data") is None
    assert broadcast_contract(3, 5, root=2).expected(0, "data") == {(2, "data", 0): 1}
    assert alltoallv_contract(((0,),)).buffers(0) == {"out0": 0, "in0": 0}


# -- run-length scale ---------------------------------------------------------


def _endpoints(schedule) -> set[int]:
    """Every range endpoint any step of ``schedule`` names."""
    points: set[int] = set()
    for step in schedule.steps:
        for attr in ("lo", "hi", "src_lo", "src_hi"):
            if hasattr(step, attr):
                points.add(getattr(step, attr))
    return points


@pytest.mark.parametrize("name", ["rabenseifner", "recursive_doubling"])
def test_semantic_pass_scales_with_runs_not_elements(name):
    # Ten million elements per rank: a per-element store could neither
    # build nor compare this in test time; the run store needs one run
    # per distinct range boundary.
    compiler = ALLREDUCE_COMPILERS[name]
    big, small = 10**7, 1003
    sched = compiler(16, big, 4)
    contract = allreduce_contract(16, big)
    report = verify_schedule(sched, contract)
    assert report.ok, report.format()

    result = interpret_schedule(sched, contract)
    bound = len(_endpoints(sched)) + 1
    for bufs in result.states.values():
        for runs in bufs.values():
            assert len(runs) <= bound
            assert runs[0][0] == 0 and runs[-1][1] == big

    def drop_send_kinds(count):
        schedule = compiler(16, count, 4)
        return [
            sorted(verify_schedule(m.schedule, allreduce_contract(16, count)).kinds())
            for m in MUTATORS["drop-send"](schedule, 2)
        ]

    kinds = drop_send_kinds(big)
    assert kinds and all(kinds)
    assert kinds == drop_send_kinds(small)


# -- race detection -----------------------------------------------------------


def test_race_pass_flags_concurrent_overlapping_writes():
    b = ScheduleBuilder(2, name="racy", count=4, itemsize=4)
    s0 = b.send(0, 1, "a", 0, 3)
    b.send(0, 1, "b", 1, 4, deps=s0)
    b.recv_reduce(1, 0, "a", 0, 3)   # overlaps [1,3) with the next recv
    b.recv_reduce(1, 0, "b", 1, 4)   # no dep: concurrent on rank 1
    sched = b.build(validate=True)
    issues = find_races(sched)
    assert issues, "expected a race"
    assert issues[0].kind == "write-write-race"
    assert issues[0].rank == 1


def test_race_pass_accepts_ordered_and_disjoint_accesses():
    b = ScheduleBuilder(2, name="ordered", count=4, itemsize=4)
    s0 = b.send(0, 1, "a", 0, 3)
    b.send(0, 1, "b", 1, 4, deps=s0)
    r0 = b.recv_reduce(1, 0, "a", 0, 3)
    b.recv_reduce(1, 0, "b", 1, 4, deps=r0)  # ordered: overlap is fine
    assert find_races(b.build(validate=True)) == []


def test_race_pass_sees_cross_rank_ordering_through_messages():
    # The ordering edge between two same-rank accesses can run through
    # another rank entirely: recv -> send -> (peer echoes) -> recv.
    b = ScheduleBuilder(2, name="relay", count=2, itemsize=4)
    b.send(0, 1, "a", 0, 2)
    r = b.recv_reduce(1, 0, "a", 0, 2)
    b.send(1, 0, "echo", 0, 2, deps=r)
    rr = b.copy(0, 1, "echo", 0, 2)
    b.send(0, 1, "back", 0, 2, deps=rr)
    b.recv_reduce(1, 0, "back", 0, 2)  # writes same range as r: HB via relay
    assert find_races(b.build(validate=True)) == []


# -- match determinism --------------------------------------------------------


def test_determinism_flags_unordered_same_channel_sends():
    b = ScheduleBuilder(2, name="ambiguous", count=4, itemsize=4)
    b.send(0, 1, "k", 0, 2)
    b.send(0, 1, "k", 2, 4)          # same channel, no ordering
    r0 = b.recv_reduce(1, 0, "k", 0, 2)
    b.recv_reduce(1, 0, "k", 2, 4, deps=r0)
    issues = check_match_determinism(b.build(validate=True))
    assert [i.kind for i in issues] == ["ambiguous-send-order"]


def test_determinism_accepts_chained_channel_reuse():
    b = ScheduleBuilder(2, name="fifo", count=4, itemsize=4)
    s0 = b.send(0, 1, "k", 0, 2)
    b.send(0, 1, "k", 2, 4, deps=s0)
    r0 = b.recv_reduce(1, 0, "k", 0, 2)
    b.recv_reduce(1, 0, "k", 2, 4, deps=r0)
    assert check_match_determinism(b.build(validate=True)) == []


# -- bounds -------------------------------------------------------------------


def test_bounds_critical_path_and_peaks():
    sched, _ = _two_rank_chain()
    bounds = analyze_bounds(sched)
    assert bounds.critical_path_s > 0
    assert bounds.total_wire_bytes == 2 * 4 * 4
    assert bounds.peak_link_bytes[(0, 1)] == 2 * 4 * 4  # both sends eager
    assert bounds.peak_rank_bytes[0] == 2 * 4 * 4
    assert bounds.leaked_bytes == 0
    assert bounds.critical_path_sids  # a path was reconstructed
    assert check_bounds(bounds) == []
    capped = check_bounds(bounds, max_in_flight_bytes=16)
    assert [i.kind for i in capped] == ["in-flight-exceeds-cap"]
    golden = check_bounds(bounds, golden_elapsed_s=bounds.critical_path_s / 2)
    assert [i.kind for i in golden] == ["critical-path-exceeds-golden"]


def test_bounds_lower_bound_holds_against_small_fig5_goldens():
    checks = crosscheck_goldens(max_mb=4.0)
    assert checks, "no goldens found"
    for c in checks:
        assert c.ok, f"{c.key}: {c.critical_path_s} > {c.golden_elapsed_s}"


# -- report plumbing ----------------------------------------------------------


def test_cap_issues_truncates_long_findings():
    issues = [
        Issue(pass_name="semantic", kind="x", message=str(i))
        for i in range(MAX_ISSUES_PER_PASS + 5)
    ]
    capped = cap_issues(issues, "semantic")
    assert len(capped) == MAX_ISSUES_PER_PASS + 1
    assert capped[-1].kind == "truncated"
    assert "5 further" in capped[-1].message


def test_report_format_mentions_verdict_and_issues():
    count = 16
    sched = ALLREDUCE_COMPILERS["ring"](2, count, 4, segment_bytes=1024)
    report = verify_schedule(sched, allreduce_contract(2, count))
    text = report.format()
    assert "PROVED" in text and "critical path" in text

    b = ScheduleBuilder(2, name="broken", count=2, itemsize=4)
    b.send(1, 0, "g", 0, 2)
    b.recv_reduce(0, 1, "g", 0, 2)
    bad = verify_schedule(b.build(), allreduce_contract(2, 2))
    assert not bad.ok
    assert "FAILED" in bad.format()
    assert "missing-contribution" in bad.format()


def test_verify_reports_lint_errors_without_crashing():
    b = ScheduleBuilder(2, name="halfpair", count=2, itemsize=4)
    b.send(0, 1, "k", 0, 2)  # never received
    report = verify_schedule(b.build(), allreduce_contract(2, 2))
    assert [i.kind for i in report.issues] == ["lint-error"]


def test_run_sweep_restricted_slice():
    result = run_sweep(
        algorithms=["ring"], ranks=(2, 4), count=64, segment_kibs=(1,)
    )
    # Per rank count: 1 allreduce + 1 step DAG, plus 4 aux collectives.
    assert len(result.reports) == 2 + 2 + 2 * 4
    assert result.all_ok
    assert result.total_wall_time_s > 0
    assert "proved" in result.format()
