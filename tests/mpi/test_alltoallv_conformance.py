"""The proved ``compile_alltoallv`` schedule against the generator ``alltoallv``.

The verifier proves :func:`compile_alltoallv` against ``alltoallv_contract``,
but the shuffle runs the generator :func:`alltoallv`.  Here both run on the
same ragged counts with integer payloads.  The generator's sends are recorded
by a fault controller that delivers everything, and its receives through
:meth:`ShuffleProgress.begin_recv`.  Per rank, the order of send destinations
and their byte counts, the order of receive sources and the landed ``in{s}``
payloads must equal the compiled schedule's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.shuffle import ShuffleProgress
from repro.mpi import ArrayBuffer, build_world, run_rank_programs
from repro.mpi.collectives import alltoallv, compile_alltoallv
from repro.mpi.schedule import CopyStep, ScheduleExecutor, SendStep

ITEMSIZE = 8


class RecordingFaults:
    """Fault controller that delivers every message and records its send."""

    def __init__(self, n):
        self.sends = [[] for _ in range(n)]

    def on_send(self, src, dst, tag, nbytes):
        self.sends[src].append((dst, nbytes))
        return "deliver", 0


class RecordingProgress(ShuffleProgress):
    """Shuffle progress that also keeps every receive's source in order."""

    def __init__(self, n):
        super().__init__(n)
        self.sources = [[] for _ in range(n)]

    def begin_recv(self, rank, src, key, now):
        self.sources[rank].append(src)
        super().begin_recv(rank, src, key, now)


def payload(src, dst, count):
    return np.arange(count, dtype=np.int64) + 1000 * src + 100 * dst


def run_generator(counts):
    n = len(counts)
    engine, world, comm = build_world(n, topology="star")
    faults = world.fault_controller = RecordingFaults(n)
    progress = RecordingProgress(n)
    send = [
        [ArrayBuffer(payload(s, d, counts[s][d])) for d in range(n)] for s in range(n)
    ]
    out = run_rank_programs(
        comm, alltoallv, per_rank_args=[(send[r],) for r in range(n)], progress=progress
    )
    landed = [[np.asarray(p).tolist() for p in received] for received in out.results]
    return faults.sends, progress.sources, landed


def run_schedule(counts):
    n = len(counts)
    schedule = compile_alltoallv(counts, ITEMSIZE)
    sends = [
        [(s.dst, (s.hi - s.lo) * ITEMSIZE) for s in schedule.rank_steps(r) if type(s) is SendStep]
        for r in range(n)
    ]
    sources = [
        [s.src for s in schedule.rank_steps(r) if type(s) is CopyStep] for r in range(n)
    ]
    engine, world, comm = build_world(n, topology="star")
    buffers = [
        {
            **{f"out{d}": ArrayBuffer(payload(r, d, counts[r][d])) for d in range(n)},
            **{f"in{s}": ArrayBuffer(np.zeros(counts[s][r], np.int64)) for s in range(n)},
        }
        for r in range(n)
    ]
    executor = ScheduleExecutor(comm, schedule, buffers)
    executor.run()
    assert None not in executor.progress.end
    landed = [[buffers[r][f"in{s}"].array.tolist() for s in range(n)] for r in range(n)]
    return sends, sources, landed


@st.composite
def ragged_counts(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(ragged_counts())
@example([[0, 3, 1], [2, 0, 0], [5, 1, 4]])  # empty blocks, own and remote
def test_generator_alltoallv_matches_the_compiled_schedule(counts):
    gen_sends, gen_sources, gen_landed = run_generator(counts)
    sched_sends, sched_sources, sched_landed = run_schedule(counts)
    assert gen_sends == sched_sends
    assert gen_sources == sched_sources
    assert gen_landed == sched_landed
    n = len(counts)
    assert gen_landed == [
        [payload(s, r, counts[s][r]).tolist() for s in range(n)] for r in range(n)
    ]
