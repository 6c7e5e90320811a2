"""The retired bucket-release overlap driver: the step DAG's parity oracle.

:func:`repro.train.overlap.simulate_bucketed_overlap` lowers a whole
training iteration into one unified schedule.  This module keeps the
driver it replaced — one executor *per bucket*, released by a driver
process at the bucket's gradient-ready time — as an independent
reference: ``tests/train/test_stepdag.py`` and
``benchmarks/test_whatif_overlap.py`` assert the two agree within 1%.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import SizeBuffer, chunk_ranges
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleExecutor
from repro.net.params import CONNECTX5_DUAL
from repro.train.overlap import OverlapResult

__all__ = ["legacy_simulate_bucketed_overlap"]


def legacy_simulate_bucketed_overlap(
    *,
    n_ranks: int,
    forward_time: float,
    backward_time: float,
    gradient_bytes: int,
    n_buckets: int,
    algorithm: str = "multicolor",
    itemsize: int = 4,
    topology: str = "fat_tree",
    network=None,
    serialize_buckets: bool = True,
    segment_bytes: Callable[[int], int] | int | None = None,
    **alg_kwargs,
) -> OverlapResult:
    """Bucketed overlap via one executor per bucket.

    Bucket *i*'s collective is released at the gradient-ready time
    ``forward + backward * (i+1)/n`` (and, with ``serialize_buckets``,
    not before bucket *i-1* finished).  Same arguments and result as
    :func:`~repro.train.overlap.simulate_bucketed_overlap`.
    """
    compiler = ALLREDUCE_COMPILERS[algorithm]
    network = network if network is not None else CONNECTX5_DUAL
    compute = forward_time + backward_time
    count = max(1, gradient_bytes // itemsize)

    def seg_for(nbytes: int) -> int:
        if segment_bytes is None:
            return max(64 * 1024, nbytes // 16)
        if callable(segment_bytes):
            return segment_bytes(nbytes)
        return segment_bytes

    def compile_for(n_elems: int) -> object:
        return compiler(
            n_ranks, n_elems, itemsize,
            segment_bytes=seg_for(n_elems * itemsize), **alg_kwargs,
        )

    engine, world, comm = build_world(n_ranks, topology=topology, network=network)
    bufs = [SizeBuffer(count, itemsize) for _ in range(n_ranks)]
    full = ScheduleExecutor(comm, compile_for(count), bufs)
    serial_time = compute + full.run()

    engine, world, comm = build_world(n_ranks, topology=topology, network=network)
    spans: list[list[float]] = [[0.0, 0.0] for _ in range(n_buckets)]
    bucket_sizes = [hi - lo for lo, hi in chunk_ranges(count, n_buckets)]

    def driver():
        dones = []
        prev_done = None
        for i, n_elems in enumerate(bucket_sizes):
            ready = forward_time + backward_time * (i + 1) / n_buckets
            if engine.now < ready:
                yield engine.timeout(ready - engine.now)
            if serialize_buckets and prev_done is not None:
                yield prev_done  # already-triggered events resume immediately
            if n_elems < 1:
                continue
            bucket_bufs = [SizeBuffer(n_elems, itemsize) for _ in range(n_ranks)]
            executor = ScheduleExecutor(
                comm, compile_for(n_elems), bucket_bufs, tag=("bkt", i)
            )
            done = executor.launch()
            spans[i][0] = engine.now
            done.callbacks.append(
                lambda _ev, i=i: spans[i].__setitem__(1, engine.now)
            )
            dones.append(done)
            prev_done = done
        for done in dones:
            yield done

    engine.run(engine.process(driver(), name="bucket-driver"))
    last_done = max((s[1] for s in spans), default=0.0)
    return OverlapResult(
        n_buckets=n_buckets,
        compute_time=compute,
        total_comm_time=sum(s[1] - s[0] for s in spans),
        iteration_time=max(compute, last_done),
        serial_iteration_time=serial_time,
        bucket_spans=tuple((s[0], s[1]) for s in spans),
    )
