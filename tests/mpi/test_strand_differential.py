"""Call-driven strands against the generator strands they replaced (hypothesis).

Drawn schedules — every allreduce compiler, bucketed training steps with GPU
compute and optimizer steps, alltoallv, barrier, reduce and broadcast, on 1-6
ranks with a fast or a slow reduce/copy CPU — run once through
:class:`ScheduleExecutor` and once through the generator reference in
``strand_reference``.  Some runs also interrupt drawn strands or rank proxies
at drawn times (right after launch, at an exact time the clean run had an
event, or between events); a guard then abandons the attempt by interrupting
every live strand, as the fleet's attempt does.  Both runs must agree on the
outcome, clock, engine step count, :class:`ExecutionProgress`, buffer
contents and leftover mailbox state, and each
must drain without an unhandled failure, leaving every CPU and GPU idle with
no waiters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mpi.collectives import (
    ALLREDUCE_COMPILERS,
    compile_alltoallv,
    compile_binomial_bcast,
    compile_binomial_reduce,
    compile_dissemination_barrier,
)
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.schedule import ScheduleBuilder, ScheduleExecutor
from repro.mpi.verify import (
    allreduce_contract,
    alltoallv_contract,
    barrier_contract,
    broadcast_contract,
    reduce_contract,
    train_step_contract,
)
from repro.mpi.world import MPIWorld
from repro.net import CONNECTX5_DUAL, Fabric, fat_tree
from repro.sim import Engine, Interrupt
from repro.train.stepdag import compile_bucketed_step

from tests.mpi.strand_reference import ReferenceExecutor

ITEMSIZE = 8
KINDS = sorted(ALLREDUCE_COMPILERS) + ["step", "alltoallv", "barrier", "reduce", "bcast"]


class StepCountingEngine(Engine):
    """Counts heap entries and records the time of each."""

    def __init__(self):
        super().__init__()
        self.times = []

    def step(self):
        super().step()
        self.times.append(self.now)


def compile_case(kind, n, count, seg_kib, buckets):
    if kind in ALLREDUCE_COMPILERS:
        schedule = ALLREDUCE_COMPILERS[kind](
            n, count, ITEMSIZE, segment_bytes=seg_kib * 1024
        )
        return schedule, allreduce_contract(n, count)
    if kind == "step":
        schedule = compile_bucketed_step(
            n, count, ITEMSIZE, forward_time=1e-5, backward_time=2e-5,
            optim_time=5e-6, n_buckets=buckets, algorithm="ring",
            segment_bytes=seg_kib * 1024, memory="staged",
        )
        return schedule, train_step_contract(n, count)
    if kind == "alltoallv":
        counts = tuple(
            tuple((s * 7 + d * 3 + count) % 11 for d in range(n)) for s in range(n)
        )
        return compile_alltoallv(counts, ITEMSIZE), alltoallv_contract(counts)
    if kind == "barrier":
        return compile_dissemination_barrier(n), barrier_contract(n)
    if kind == "reduce":
        return compile_binomial_reduce(n, count, ITEMSIZE), reduce_contract(n, count)
    return compile_binomial_bcast(n, count, ITEMSIZE), broadcast_contract(n, count)


def bind(contract, n):
    return [
        {
            name: ArrayBuffer(np.arange(size, dtype=np.int64) * (r + 1) + 1000 * r)
            for name, size in sorted(contract.buffers(r).items())
        }
        for r in range(n)
    ]


def simulate(executor_cls, case, interrupts=(), abandon_reversed=False):
    """Run one case to exhaustion; returns everything two runs must share.

    ``interrupts`` holds ``(when, target, index)``: ``when`` is ``None`` for
    right after launch, else an absolute time; ``target`` is ``"strand"`` or
    ``"proxy"``.  The abandon interrupts the live strands in launch order,
    or in reverse (so a strand queued for a CPU/GPU can die before the
    strand holding it releases it).
    """
    schedule, contract, cpu_bw = case
    n = schedule.n_ranks
    engine = StepCountingEngine()
    topology = fat_tree(n, CONNECTX5_DUAL, hosts_per_leaf=2)
    fabric = Fabric(engine, topology, software_overhead=CONNECTX5_DUAL.software_overhead)
    world = MPIWorld(engine, fabric, n, reduce_bandwidth=cpu_bw, copy_bandwidth=cpu_bw)
    buffers = bind(contract, n)
    executor = executor_cls(world.comm_world(), schedule, buffers, tag="t")
    done = executor.launch()
    outcome = []

    def guard():
        try:
            yield done
            outcome.append(("ok", engine.now.hex()))
        except Interrupt as exc:
            outcome.append(("failed", engine.now.hex(), repr(exc.cause)))
            strands = executor.strands[::-1] if abandon_reversed else executor.strands
            for strand in strands:  # abandon the attempt
                if strand.is_alive:
                    strand.interrupt("abandon")

    def target_of(kind, index):
        procs = executor.strands if kind == "strand" else executor.rank_procs
        return procs[index % len(procs)] if procs else None

    def interrupter(when, kind, index):
        yield engine.timeout(when)
        proc = target_of(kind, index)
        if proc is not None and proc.is_alive:
            proc.interrupt(f"{kind}{index}@{when.hex()}")

    engine.process(guard())
    for when, kind, index in interrupts:
        if when is None:
            proc = target_of(kind, index)
            if proc is not None and proc.is_alive:
                proc.interrupt(f"{kind}{index}@launch")
        else:
            engine.process(interrupter(when, kind, index))
    engine.run()

    for res in world.cpus + world.gpus:
        assert res.in_use == 0 and res.queue_length == 0, res.name
    progress = executor.progress
    return {
        "outcome": outcome,
        "clock": engine.now.hex(),
        "steps": len(engine.times),
        "steps_done": progress.steps_done,
        "start": [None if t is None else t.hex() for t in progress.start],
        "end": [None if t is None else t.hex() for t in progress.end],
        "buffers": [
            {name: buf.array.tolist() for name, buf in bufmap.items()}
            for bufmap in buffers
        ],
        "mailbox": [{k: len(v) for k, v in box.items()} for box in world._mailbox],
        "waiting": [{k: len(v) for k, v in box.items()} for box in world._waiting],
        "times": engine.times,
    }


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 600))
    seg_kib = draw(st.sampled_from([1, 2, 64]))
    buckets = draw(st.integers(1, 3))
    cpu_bw = draw(st.sampled_from([15e9, 2e6]))  # a slow CPU makes strands queue
    schedule, contract = compile_case(kind, n, count, seg_kib, buckets)
    return schedule, contract, cpu_bw


def assert_same(case, interrupts=(), abandon_reversed=False):
    new = simulate(ScheduleExecutor, case, interrupts, abandon_reversed)
    ref = simulate(ReferenceExecutor, case, interrupts, abandon_reversed)
    new.pop("times")
    ref.pop("times")
    assert new == ref
    return new


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# Bucketed steps reach cross-strand deps that already fired (a call one hop
# later); a slow CPU makes reductions and copies queue for it.
@example((*compile_case("step", 3, 100, 1, 3), 15e9))
@example((*compile_case("multicolor", 6, 600, 1, 1), 2e6))
def test_clean_runs_match_the_generator_strands(case):
    result = assert_same(case)
    assert result["outcome"][0][0] == "ok"
    assert None not in result["end"]
    assert result["steps_done"] == [
        len(case[0].rank_steps(r)) for r in range(case[0].n_ranks)
    ]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(), st.data())
def test_interrupted_runs_match_and_drain(case, data):
    times = simulate(ScheduleExecutor, case)["times"]
    when = st.one_of(
        st.none(),
        st.sampled_from(times),  # exactly at an event of the clean run
        st.floats(0.0, times[-1] * 1.1 if times else 1e-3),
    )
    interrupts = data.draw(st.lists(
        st.tuples(when, st.sampled_from(["strand", "proxy"]), st.integers(0, 40)),
        min_size=1, max_size=3,
    ))
    assert_same(case, interrupts, data.draw(st.booleans()))


def test_interrupt_before_boot_still_boots_first():
    # A strand interrupted before its first call still runs up to its first
    # wait (here: sends, then a receive), exactly as a process's boot does.
    case = (*compile_case("ring", 3, 30, 1, 1), 15e9)
    result = assert_same(case, [(None, "strand", 0)])
    assert result["outcome"][0][0] == "failed"
    # The boot ran before the interrupt landed.
    assert any(t is not None for t in result["end"])


def test_proxy_interrupt_then_abandon_does_not_crash():
    # A directly interrupted proxy leaves its strands' AllOf with no waiter;
    # abandoning the attempt then fails that AllOf, which must not crash.
    case = (*compile_case("multicolor", 4, 500, 1, 1), 15e9)
    times = simulate(ScheduleExecutor, case)["times"]
    result = assert_same(case, [(times[len(times) // 2], "proxy", 1)])
    assert result["outcome"][0][0] == "failed"


@pytest.mark.parametrize("resource", ["cpu", "gpu"])
def test_strand_queued_for_a_slot_withdraws_its_request(resource):
    # Two independent strands of one rank want the same slot at time 0:
    # the second queues, and interrupting it must withdraw the request
    # (not release the slot the first one holds).
    b = ScheduleBuilder(1, name="pair", count=8, itemsize=ITEMSIZE)
    for _ in range(2):
        if resource == "cpu":
            b.reduce_local(0, 0, 4, 4, 8)
        else:
            b.compute(0, 1e-3)
    case = (b.build(validate=True), allreduce_contract(1, 8), 2e6)
    result = assert_same(case, [(None, "strand", 1)])
    assert result["outcome"][0][0] == "failed"
