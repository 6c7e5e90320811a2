"""Tests for the collective schedule IR, its lint and the executor."""

import numpy as np
import pytest

from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import ArrayBuffer, SizeBuffer
from repro.mpi.guard import RetryPolicy
from repro.mpi.runner import build_world
from repro.mpi.schedule import (
    CollectiveTimeout,
    ScheduleBuilder,
    ScheduleError,
    ScheduleExecutor,
    SendStep,
    format_schedule,
    memoize_compiler,
    run_guarded,
    validate_schedule,
)
from repro.mpi.verify import verify_schedule

# -- builder ------------------------------------------------------------------


def test_builder_emits_dense_sids_and_normalized_deps():
    b = ScheduleBuilder(2, name="toy", count=4, itemsize=4)
    s0 = b.send(1, 0, "k", 0, 4)
    s1 = b.send(1, 0, "k2", 0, 4, deps=s0)
    r0 = b.recv_reduce(0, 1, "k", 0, 4, deps=[None, None])
    r1 = b.recv_reduce(0, 1, "k2", 0, 4, deps=[r0, r0, None])
    sched = b.build(validate=True)
    assert [s.sid for s in sched.steps] == [0, 1, 2, 3]
    assert sched.steps[s1].deps == (s0,)
    assert sched.steps[r0].deps == ()
    assert sched.steps[r1].deps == (r0,)
    assert sched.rank_steps(0) == [sched.steps[2], sched.steps[3]]
    assert sched.step_counts() == {"SendStep": 2, "RecvReduceStep": 2}


def test_builder_rejects_cross_rank_dep():
    b = ScheduleBuilder(2)
    s0 = b.send(0, 1, "k")
    with pytest.raises(ScheduleError, match="crosses ranks"):
        b.recv_reduce(1, 0, "k", 0, 1, deps=s0)


def test_builder_rejects_forward_dep_and_bad_rank():
    b = ScheduleBuilder(2)
    with pytest.raises(ScheduleError, match="not yet emitted"):
        b.send(0, 1, "k", deps=0)
    with pytest.raises(ScheduleError, match="out of range"):
        b.send(2, 0, "k")


# -- lint ---------------------------------------------------------------------


def test_validate_reports_summary():
    b = ScheduleBuilder(2, count=8)
    b.send(0, 1, "x", 0, 8)
    b.recv_reduce(1, 0, "x", 0, 8)
    report = validate_schedule(b.build())
    assert report["n_steps"] == 2
    assert report["n_messages"] == 1
    assert report["sends_per_rank"] == [1, 0]
    assert report["recvs_per_rank"] == [0, 1]


def test_validate_catches_orphan_receive():
    b = ScheduleBuilder(2)
    b.recv_reduce(1, 0, "missing", 0, 1)
    with pytest.raises(ScheduleError, match="no send posts it"):
        validate_schedule(b.build())


def test_validate_catches_unmatched_send():
    b = ScheduleBuilder(2)
    b.send(0, 1, "x", 0, 1)
    b.send(0, 1, "x", 0, 1)
    b.recv_reduce(1, 0, "x", 0, 1)
    with pytest.raises(ScheduleError, match="matching receive"):
        validate_schedule(b.build())


def test_validate_catches_element_count_mismatch():
    b = ScheduleBuilder(2)
    b.send(0, 1, "x", 0, 4)
    b.recv_reduce(1, 0, "x", 0, 2)
    with pytest.raises(ScheduleError, match="count mismatch"):
        validate_schedule(b.build())


def test_validate_catches_cross_rank_message_cycle():
    # Each rank receives before it sends: a deadlock under rendezvous
    # semantics and a cycle in the happens-before graph.
    b = ScheduleBuilder(2)
    r0 = b.recv_reduce(0, 1, "b", 0, 1)
    b.send(0, 1, "a", 0, 1, deps=r0)
    r1 = b.recv_reduce(1, 0, "a", 0, 1)
    b.send(1, 0, "b", 0, 1, deps=r1)
    with pytest.raises(ScheduleError, match="cycle"):
        validate_schedule(b.build())


def test_validate_catches_range_beyond_count():
    b = ScheduleBuilder(2, count=4)
    b.send(0, 1, "x", 0, 8)
    b.recv_reduce(1, 0, "x", 0, 8)
    with pytest.raises(ScheduleError, match="exceeds count"):
        validate_schedule(b.build())


def test_validate_rejects_self_send_and_self_receive():
    # A rank messaging itself never matches — the executor's send and
    # receive strands would silently deadlock waiting on each other.
    b = ScheduleBuilder(2, count=4)
    b.send(0, 0, "loop", 0, 4)
    b.recv_reduce(0, 0, "loop", 0, 4)
    with pytest.raises(ScheduleError, match="rank 0 sends to itself"):
        validate_schedule(b.build())

    b = ScheduleBuilder(2, count=4)
    b.copy(1, 1, "loop", 0, 4)
    with pytest.raises(ScheduleError, match="rank 1 receives from itself"):
        validate_schedule(b.build())


def test_build_validate_names_the_failing_schedule():
    b = ScheduleBuilder(2, name="broken_compiler(n=2)", count=4)
    b.send(0, 1, "x", 0, 4)  # unmatched: lint must fail
    with pytest.raises(ScheduleError, match="broken_compiler"):
        b.build(validate=True)
    # build() without validation stays permissive (compilers lint later).
    assert b.build().n_steps == 1


def test_format_schedule_renders_and_truncates():
    sched = ALLREDUCE_COMPILERS["ring"](4, 1024, 4, segment_bytes=1024)
    text = format_schedule(sched)
    assert "rank 0:" in text and "send" in text and "recv" in text
    short = format_schedule(sched, max_steps=3)
    assert "more steps" in short and len(short) < len(text)


def test_format_schedule_step_kinds_and_token_rendering():
    b = ScheduleBuilder(2, name="kinds", count=8, itemsize=4)
    b.send(0, 1, "tok")                      # zero-byte token send
    b.recv(1, 0, "tok")                      # buf=None synchronization
    b.send(0, 1, "k", 0, 4, note="payload")
    b.recv_reduce(1, 0, "k", 0, 4)
    b.reduce_local(1, 4, 8, 0, 4, src_buf="data")
    text = format_schedule(b.build(validate=True))
    assert "(token)" in text                 # buf=None renders as a token
    assert "recv+copy" in text and "recv+reduce" in text
    assert "reduce-local data[0:4) -> data[4:8)" in text
    assert "# payload" in text               # notes survive formatting
    header = text.splitlines()[0]
    assert "'kinds'" in header and "2 ranks" in header


def test_format_schedule_truncation_counts_remaining_steps():
    b = ScheduleBuilder(2, name="trunc", count=4, itemsize=4)
    for i in range(5):
        b.send(0, 1, f"k{i}", 0, 4)
        b.recv_reduce(1, 0, f"k{i}", 0, 4)
    text = format_schedule(b.build(validate=True), max_steps=4)
    assert "... (6 more steps)" in text
    # Truncation must not lose the per-rank headers seen so far.
    assert "rank 0: 5 steps" in text


def test_every_registered_compiler_passes_the_lint():
    # The schedule lint run over the whole registry — every algorithm, a
    # spread of rank counts (incl. non-powers-of-two) and payload sizes.
    for name, compiler in sorted(ALLREDUCE_COMPILERS.items()):
        for n_ranks in (1, 2, 3, 6, 16):
            for count in (1, 1000):
                sched = compiler(n_ranks, count, 4)
                report = validate_schedule(sched)
                assert report["n_steps"] == sched.n_steps, (name, n_ranks, count)


@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPILERS))
def test_rank_steps_index_matches_a_full_scan(name):
    for n_ranks in (4, 16):
        sched = ALLREDUCE_COMPILERS[name](n_ranks, 1000, 4)
        for rank in range(n_ranks + 1):  # one rank past the end owns nothing
            scanned = [s for s in sched.steps if s.rank == rank]
            assert sched.rank_steps(rank) == scanned, (name, n_ranks, rank)
            # Callers get their own list; the index is not exposed.
            sched.rank_steps(rank).clear()
            assert sched.rank_steps(rank) == scanned


# -- execution ----------------------------------------------------------------


def _reduce_to_root_schedule():
    b = ScheduleBuilder(2, name="pair", count=4, itemsize=8)
    b.send(1, 0, "g", 0, 4)
    b.recv_reduce(0, 1, "g", 0, 4)
    return b.build(validate=True)


def test_executor_reduces_real_arrays():
    sched = _reduce_to_root_schedule()
    bufs = [ArrayBuffer(np.arange(4, dtype=np.int64)),
            ArrayBuffer(10 * np.ones(4, dtype=np.int64))]
    engine, world, comm = build_world(2, topology="star")
    executor = ScheduleExecutor(comm, sched, bufs)
    elapsed = executor.run()
    assert elapsed > 0
    np.testing.assert_array_equal(bufs[0].array, np.arange(4) + 10)
    assert executor.progress.steps_done == executor.progress.steps_total == [1, 1]


def test_executor_rejects_mismatched_worlds_and_buffers():
    sched = _reduce_to_root_schedule()
    engine, world, comm = build_world(3, topology="star")
    with pytest.raises(ScheduleError, match="ranks"):
        ScheduleExecutor(comm, sched, [None, None, None])
    engine, world, comm = build_world(2, topology="star")
    with pytest.raises(ScheduleError, match="rank buffers"):
        ScheduleExecutor(comm, sched, [None])
    with pytest.raises(ScheduleError, match="compiled for"):
        ScheduleExecutor(comm, sched, [SizeBuffer(9, 8), SizeBuffer(9, 8)])


def test_executor_launch_is_single_shot():
    sched = _reduce_to_root_schedule()
    engine, world, comm = build_world(2, topology="star")
    executor = ScheduleExecutor(
        comm, sched, [SizeBuffer(4, 8), SizeBuffer(4, 8)]
    )
    executor.run()
    with pytest.raises(ScheduleError, match="already launched"):
        executor.launch()


def test_concurrent_executors_share_one_world():
    # Two executors with different tags on the same world must not steal
    # each other's messages or step records.
    sched = _reduce_to_root_schedule()
    engine, world, comm = build_world(2, topology="star")
    bufs_a = [ArrayBuffer(np.ones(4, dtype=np.int64)) for _ in range(2)]
    bufs_b = [ArrayBuffer(np.full(4, 7, dtype=np.int64)) for _ in range(2)]
    ex_a = ScheduleExecutor(comm, sched, bufs_a, tag=("bkt", 0))
    ex_b = ScheduleExecutor(comm, sched, bufs_b, tag=("bkt", 1))
    done = engine.all_of([ex_a.launch(), ex_b.launch()])
    engine.run(done)
    np.testing.assert_array_equal(bufs_a[0].array, np.full(4, 2))
    np.testing.assert_array_equal(bufs_b[0].array, np.full(4, 14))
    for ex in (ex_a, ex_b):
        assert ex.progress.steps_done == [1, 1]


def test_same_tag_executors_on_split_halves_keep_their_own_stats():
    # Ring allreduces under one tag on both halves of an 8-rank world: the
    # halves never exchange messages, and each executor's progress record
    # sees only its own strands' steps.
    sched = ALLREDUCE_COMPILERS["ring"](4, 64, 8)
    engine, world, comm = build_world(8, topology="star")
    halves = comm.split(2)
    executors = [
        ScheduleExecutor(half, sched, [SizeBuffer(64, 8) for _ in range(4)], tag="t")
        for half in halves
    ]
    engine.run(engine.all_of([ex.launch() for ex in executors]))

    engine, world, comm = build_world(4, topology="star")
    solo = ScheduleExecutor(comm, sched, [SizeBuffer(64, 8) for _ in range(4)], tag="t")
    solo.run()
    assert None not in solo.progress.end
    for ex in executors:
        assert ex.progress.start == solo.progress.start
        assert ex.progress.end == solo.progress.end


# -- cross-algorithm equivalence ----------------------------------------------


@pytest.mark.parametrize("n_ranks", [2, 4, 6, 16])
@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPILERS))
def test_all_algorithms_bit_identical(name, n_ranks):
    # Integer payloads make every reduction order give the same bits, so
    # all eight compilers must agree exactly — including a non-power-of-two
    # rank count and a count that does not divide evenly.
    compiler = ALLREDUCE_COMPILERS[name]
    count = 1003  # prime-ish: ragged chunking everywhere
    rng = np.random.default_rng(n_ranks)
    arrays = [
        rng.integers(-(2**40), 2**40, size=count).astype(np.int64)
        for _ in range(n_ranks)
    ]
    want = np.sum(arrays, axis=0)
    sched = compiler(n_ranks, count, 8)
    validate_schedule(sched)
    bufs = [ArrayBuffer(a.copy()) for a in arrays]
    engine, world, comm = build_world(n_ranks, topology="star")
    ScheduleExecutor(comm, sched, bufs).run()
    for rank, buf in enumerate(bufs):
        np.testing.assert_array_equal(buf.array, want, err_msg=f"{name} rank {rank}")


# -- guarded execution --------------------------------------------------------


def test_run_guarded_success_and_telemetry():
    compiler = ALLREDUCE_COMPILERS["ring"]
    make = lambda: [ArrayBuffer(np.full(8, r + 1, dtype=np.int64)) for r in range(4)]
    buffers, telemetry = run_guarded(compiler, make, retry=RetryPolicy(10.0))
    np.testing.assert_array_equal(buffers[0].array, np.full(8, 10))
    assert telemetry.sim_time > 0
    assert telemetry.retries == 0 and telemetry.backoff == 0.0


def test_run_guarded_single_rank_shortcut():
    make = lambda: [ArrayBuffer(np.ones(4, dtype=np.int64))]
    buffers, telemetry = run_guarded(
        ALLREDUCE_COMPILERS["ring"], make, retry=RetryPolicy(1.0)
    )
    np.testing.assert_array_equal(buffers[0].array, np.ones(4))
    assert telemetry.sim_time == 0.0


def test_run_guarded_times_out_with_backoff():
    # A schedule whose receive never gets its message: the watchdog must
    # retry max_retries times with doubling backoff, then raise.
    def stuck_compiler(n, count, itemsize):
        b = ScheduleBuilder(n, name="stuck", count=count, itemsize=itemsize)
        b.recv_reduce(0, 1, "never", 0, count)
        return b.build()

    make = lambda: [SizeBuffer(4, 4), SizeBuffer(4, 4)]
    with pytest.raises(CollectiveTimeout) as exc:
        run_guarded(stuck_compiler, make, retry=RetryPolicy(0.5, 2, 0.25))
    assert exc.value.attempts == 3
    telemetry = exc.value  # message carries the attempt count
    assert "timed out" in str(telemetry)


def test_run_guarded_accounts_partial_attempts_in_place():
    from repro.mpi.schedule import CollectiveTelemetry

    def stuck_compiler(n, count, itemsize):
        b = ScheduleBuilder(n, name="stuck", count=count, itemsize=itemsize)
        b.recv_reduce(0, 1, "never", 0, count)
        return b.build()

    telemetry = CollectiveTelemetry()
    with pytest.raises(CollectiveTimeout):
        run_guarded(
            lambda n, c, i: stuck_compiler(n, c, i),
            lambda: [SizeBuffer(4, 4), SizeBuffer(4, 4)],
            retry=RetryPolicy(0.5, 1, 0.25),
            telemetry=telemetry,
        )
    assert telemetry.retries == 2
    assert telemetry.backoff == pytest.approx(0.25)
    assert telemetry.sim_time >= 1.0  # two 0.5s watchdog windows


# -- compiler cache -----------------------------------------------------------


def test_memoize_compiler_caches_by_value():
    calls = []

    @memoize_compiler
    def compiler(n, count, itemsize, *, flavor="x"):
        calls.append((n, count, itemsize, flavor))
        b = ScheduleBuilder(n, count=count, itemsize=itemsize)
        return b.build()

    a = compiler(2, 10, 4)
    b = compiler(2, 10, 4)
    c = compiler(2, 10, 4, flavor="y")
    assert a is b and a is not c
    assert len(calls) == 2


def test_memoize_compiler_bypasses_unhashable_args():
    @memoize_compiler
    def compiler(n, count, itemsize, *, trees=None):
        b = ScheduleBuilder(n, count=count, itemsize=itemsize)
        return b.build()

    a = compiler(2, 10, 4, trees=[1, 2])
    b = compiler(2, 10, 4, trees=[1, 2])
    assert a is not b  # unhashable kwargs skip the cache


# -- strand fusion ------------------------------------------------------------


def test_strand_fusion_groups_linear_chains():
    from repro.mpi.schedule import _partition_strands

    b = ScheduleBuilder(1, count=8)
    # Strand A: two chained sends.  Strand B: starts independently; a later
    # step depending on both tails fuses onto the most recent one (B) and
    # waits on A's tail as a cross-strand event.
    a0 = b.send(0, 0, "a0", 0, 1)
    a1 = b.send(0, 0, "a1", 0, 1, deps=a0)
    b0 = b.send(0, 0, "b0", 0, 1)
    j = b.send(0, 0, "j", 0, 1, deps=[a1, b0])
    strands = _partition_strands(b.build().rank_steps(0))
    assert [[s.sid for s, _ in strand] for strand in strands] == [[a0, a1], [b0, j]]
    (_, cross) = strands[1][1]
    assert cross == (a1,)


def test_fused_execution_matches_eager_send_semantics():
    # Rank 0's two sends sit on one strand; rank 1 receives them in order.
    b = ScheduleBuilder(2, name="chain", count=2, itemsize=4)
    s0 = b.send(0, 1, "m0", 0, 1)
    b.send(0, 1, "m1", 1, 2, deps=s0)
    r0 = b.recv_reduce(1, 0, "m0", 0, 1)
    b.recv_reduce(1, 0, "m1", 1, 2, deps=r0)
    sched = b.build(validate=True)
    bufs = [ArrayBuffer(np.array([1, 2], dtype=np.int64)),
            ArrayBuffer(np.array([10, 20], dtype=np.int64))]
    engine, world, comm = build_world(2, topology="star")
    ScheduleExecutor(comm, sched, bufs).run()
    np.testing.assert_array_equal(bufs[1].array, [11, 22])


def test_send_step_type_is_exported():
    assert isinstance(
        _reduce_to_root_schedule().steps[0], SendStep
    )


# -- failure attribution and surgical repair ----------------------------------


@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPILERS))
def test_drop_retry_is_bit_exact(name):
    """A dropped message forces a watchdog retry; the retried attempt must
    start from pristine inputs (snapshot restore), not the half-reduced
    buffers the aborted attempt left behind."""
    from repro.train.injection import FaultInjector, FaultPlan, drop_messages

    rng = np.random.default_rng(7)
    arrays = [
        rng.integers(-(2**31), 2**31, size=24).astype(np.int64)
        for _ in range(4)
    ]
    injector = FaultInjector(FaultPlan([drop_messages(0, rank=1, count=1)]))
    buffers, telemetry = run_guarded(
        ALLREDUCE_COMPILERS[name],
        lambda: [ArrayBuffer(a.copy()) for a in arrays],
        retry=RetryPolicy(5.0, 2, 0.1),
        fault_injector=injector,
        iteration=0,
    )
    assert telemetry.retries == 1  # the drop fired and cost one attempt
    expected = np.sum(arrays, axis=0)
    for buf in buffers:
        np.testing.assert_array_equal(buf.array, expected)


def test_timeout_diagnosis_names_dropping_sender():
    from repro.train.injection import FaultInjector, FaultPlan, drop_messages

    injector = FaultInjector(
        FaultPlan([drop_messages(0, rank=2, count=1, max_firings=10)])
    )
    make = lambda: [ArrayBuffer(np.full(8, r, dtype=np.int64)) for r in range(4)]
    with pytest.raises(CollectiveTimeout) as exc:
        run_guarded(
            ALLREDUCE_COMPILERS["ring"],
            make,
            retry=RetryPolicy(1.0, 1, 0.1),
            fault_injector=injector,
        )
    diag = exc.value.diagnosis
    assert diag is not None
    assert diag.cause == "message-loss"
    assert diag.suspect_rank == 2
    assert diag.suspect_step is not None
    msg = str(exc.value)
    assert "timed out" in msg
    assert "suspect rank 2" in msg
    assert "message-loss" in msg


def test_timeout_diagnosis_for_never_posted_send():
    """An orphan receive (its sender never posts) is attributed to the
    silent peer, not the rank that is visibly stuck."""

    def stuck_compiler(n, count, itemsize):
        b = ScheduleBuilder(n, name="stuck", count=count, itemsize=itemsize)
        b.recv_reduce(0, 1, "never", 0, count)
        return b.build()

    with pytest.raises(CollectiveTimeout) as exc:
        run_guarded(
            stuck_compiler,
            lambda: [SizeBuffer(4, 4), SizeBuffer(4, 4)],
            retry=RetryPolicy(0.5, 0, 0.1),
        )
    diag = exc.value.diagnosis
    assert diag is not None
    assert diag.cause == "silent-rank"
    assert diag.suspect_rank == 1
    assert diag.stalled_ranks == (0,)
    assert diag.stalled[0].kind == "RecvReduceStep"


def test_surgical_repair_continues_with_survivors():
    from repro.train.injection import FaultInjector, FaultPlan, crash

    arrays = [np.full(8, r + 1, dtype=np.int64) for r in range(4)]
    injector = FaultInjector(FaultPlan([crash(1, 0)]))
    buffers, telemetry = run_guarded(
        ALLREDUCE_COMPILERS["multicolor"],
        lambda: [ArrayBuffer(a.copy()) for a in arrays],
        retry=RetryPolicy(5.0),
        fault_injector=injector,
    )
    assert telemetry.repaired_ranks == [1]
    assert telemetry.repairs == 1
    assert telemetry.retries == 0  # repair happens inside the same attempt
    assert len(buffers) == 3
    expected = arrays[0] + arrays[2] + arrays[3]
    for buf in buffers:
        np.testing.assert_array_equal(buf.array, expected)


def test_executor_progress_counters_reach_totals():
    sched = ALLREDUCE_COMPILERS["ring"](4, 8, 8)
    bufs = [ArrayBuffer(np.full(8, r, dtype=np.int64)) for r in range(4)]
    engine, world, comm = build_world(4, topology="star")
    executor = ScheduleExecutor(comm, sched, bufs)
    executor.run()
    progress = executor.progress
    for r in range(4):
        assert progress.steps_done[r] == progress.steps_total[r] > 0
    assert None not in progress.end
    assert all(b <= e for b, e in zip(progress.start, progress.end))


# -- compute steps in the unified training-step DAG ---------------------------


def _toy_step_schedule():
    """1 rank, staged: bwd copies local->grad, optim writes update."""
    b = ScheduleBuilder(1, name="toy-step", count=4, itemsize=4)
    fwd = b.compute(0, 1e-3, note="fwd")
    bwd = b.compute(0, 2e-3, buf="grad", lo=0, hi=4, src_buf="local",
                    deps=fwd, note="bwd")
    b.optim(0, 5e-4, 0, 4, buf="grad", dst_buf="update", deps=bwd,
            note="optim")
    return b.build(validate=True)


def test_builder_emits_compute_and_optim_steps():
    sched = _toy_step_schedule()
    assert sched.step_counts() == {"ComputeStep": 2, "OptimStep": 1}
    assert sched.steps[1].deps == (0,)
    assert sched.steps[2].deps == (1,)


def test_validate_rejects_negative_compute_duration():
    b = ScheduleBuilder(1, count=4)
    b.compute(0, -1.0)
    with pytest.raises(ScheduleError, match="negative duration"):
        b.build(validate=True)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", ["compute", "optim"])
def test_validate_rejects_non_finite_durations(kind, seconds):
    # NaN slips past a plain ``seconds < 0`` check; executing such a step
    # either crashes the engine or runs its clock to infinity.
    b = ScheduleBuilder(1, count=4)
    if kind == "compute":
        b.compute(0, seconds)
    else:
        b.optim(0, seconds, 0, 4)
    with pytest.raises(ScheduleError, match="step 0 has non-finite duration"):
        b.build(validate=True)
    report = verify_schedule(b.build())
    assert not report.ok
    assert [issue.kind for issue in report.issues] == ["lint-error"]
    assert report.resources is None


def test_validate_catches_optim_range_beyond_count():
    b = ScheduleBuilder(1, count=4)
    b.optim(0, 1e-3, 0, 5)
    with pytest.raises(ScheduleError, match="range"):
        b.build(validate=True)


def test_format_schedule_renders_compute_steps():
    text = format_schedule(_toy_step_schedule())
    assert "compute 1.000ms" in text            # pure timing, no buffer
    assert "compute 2.000ms -> grad[0:4) from local" in text
    assert "optim 0.500ms reads grad[0:4) -> update[0:4)" in text
    assert "1 ComputeStep" not in text           # counts are aggregated
    assert "2 ComputeStep, 1 OptimStep" in text


def test_executor_runs_staged_compute_and_optim():
    sched = _toy_step_schedule()
    engine, world, comm = build_world(1, topology="star")
    bufs = [{
        "local": ArrayBuffer(np.arange(4, dtype=np.int64)),
        "grad": ArrayBuffer(np.zeros(4, dtype=np.int64)),
        "update": ArrayBuffer(np.zeros(4, dtype=np.int64)),
    }]
    executor = ScheduleExecutor(comm, sched, bufs)
    elapsed = executor.run()
    np.testing.assert_array_equal(bufs[0]["grad"].array, np.arange(4))
    np.testing.assert_array_equal(bufs[0]["update"].array, np.arange(4))
    # fwd + bwd + optim occupy the single GPU back-to-back.
    assert elapsed == pytest.approx(3.5e-3)
    assert executor.progress.end == pytest.approx([1e-3, 3e-3, 3.5e-3])


def test_optim_step_reads_gradient_at_start():
    # The optimizer snapshots its gradient when it STARTS, so a write
    # landing during its GPU occupancy must not leak into dst_buf — the
    # property that makes dropped-gate mutants dynamically wrong.
    b = ScheduleBuilder(2, name="stale-read", count=2, itemsize=8)
    b.optim(0, 1e-3, 0, 2, buf="grad", dst_buf="update")
    b.send(1, 0, "k", 0, 2, buf="grad")
    b.recv_reduce(0, 1, "k", 0, 2, buf="grad", deps=None)
    sched = b.build(validate=False)  # racy by construction
    engine, world, comm = build_world(2, topology="star")
    bufs = [
        {"grad": ArrayBuffer(np.ones(2, dtype=np.int64)),
         "update": ArrayBuffer(np.zeros(2, dtype=np.int64))},
        {"grad": ArrayBuffer(np.full(2, 7, dtype=np.int64)),
         "update": ArrayBuffer(np.zeros(2, dtype=np.int64))},
    ]
    ScheduleExecutor(comm, sched, bufs).run()
    # The reduce landed (grad = 1 + 7) but the optimizer read before it.
    np.testing.assert_array_equal(bufs[0]["grad"].array, [8, 8])
    np.testing.assert_array_equal(bufs[0]["update"].array, [1, 1])


def test_gpu_resource_serializes_same_rank_concurrent_compute():
    b = ScheduleBuilder(2, name="gpu-serial", count=1, itemsize=4)
    b.compute(0, 1e-3)   # two dependency-free compute steps, same rank
    b.compute(0, 1e-3)
    b.compute(1, 1e-3)   # and one on the other rank's own GPU
    sched = b.build(validate=True)
    engine, world, comm = build_world(2, topology="star")
    elapsed = ScheduleExecutor(
        comm, sched, [SizeBuffer(1, 4), SizeBuffer(1, 4)]
    ).run()
    # Rank 0's two steps serialize on its GPU; rank 1 overlaps fully.
    assert elapsed == pytest.approx(2e-3)


def test_strands_never_fuse_across_the_gpu_boundary():
    from repro.mpi.schedule import _partition_strands

    b = ScheduleBuilder(2, name="mixed", count=4, itemsize=4)
    fwd = b.compute(0, 1e-3, note="fwd")
    bwd = b.compute(0, 2e-3, buf="data", lo=0, hi=4, deps=fwd, note="bwd")
    snd = b.send(0, 1, "k", 0, 4, deps=bwd)
    b.optim(0, 5e-4, 0, 4, deps=snd)
    b.recv_reduce(1, 0, "k", 0, 4)
    sched = b.build(validate=True)

    strands = _partition_strands(sched.rank_steps(0))
    shapes = [[type(s).__name__ for s, _cross in strand] for strand in strands]
    # fwd+bwd fuse (both GPU); the send and the optim each start a new
    # strand — dep-chained but across the GPU/network boundary.
    assert shapes == [
        ["ComputeStep", "ComputeStep"], ["SendStep"], ["OptimStep"]
    ]
    # The boundary deps become cross-strand waits, preserving order.
    assert [cross for s, cross in strands[1]] == [(1,)]
    assert [cross for s, cross in strands[2]] == [(2,)]


def test_comm_only_schedules_partition_exactly_as_before():
    from repro.mpi.schedule import _partition_strands

    sched = ALLREDUCE_COMPILERS["ring"](4, 16, 4, segment_bytes=64)
    for rank in range(4):
        for strand in _partition_strands(sched.rank_steps(rank)):
            assert len(strand) >= 1  # pure-comm strands always fuse
    # One strand per hand-written generator process: reduce + broadcast.
    assert len(_partition_strands(sched.rank_steps(0))) <= 3


def test_diagnose_reports_compute_stall():
    from repro.mpi.schedule import ExecutionProgress, diagnose_execution

    sched = _toy_step_schedule()
    progress = ExecutionProgress(sched)
    progress.start[0] = 0.0     # fwd ComputeStep, 1 ms budget
    diag = diagnose_execution(sched, progress, now=10.0)
    assert diag.cause == "compute-stall"
    assert diag.suspect_rank == 0
    assert diag.suspect_sid == 0
    assert diag.suspect_kind == "ComputeStep"
