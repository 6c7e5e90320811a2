"""Gradient bucketing: overlapping the allreduce with backpropagation.

The paper's related work (§2) notes that Goyal et al. "pipelined the
computation and communication of gradient of different layers of the model
to other nodes to minimize the impact of communication overhead".  The
paper itself reduces communication *after* the backward pass; this module
models the complementary optimization so the two can be compared.

Model: the backward pass produces gradients back-to-front at a uniform
rate over its duration; gradients are grouped into ``n_buckets`` equal
buckets, and a bucket's allreduce may start once the bucket is complete,
with bucket allreduces serialized on the NIC (the standard DDP/Horovod
execution).  Iteration communication cost becomes only the part that
cannot hide behind compute.

Two fidelity levels:

* :func:`bucketed_iteration_time` — closed-form pipeline arithmetic over a
  caller-supplied ``allreduce_time(nbytes)`` cost function;
* :func:`simulate_bucketed_overlap` — the real thing: the whole iteration
  (forward, backward segments, bucket allreduces, update) is lowered by
  :func:`repro.train.stepdag.compile_bucketed_step` into **one** unified
  :class:`~repro.mpi.schedule.Schedule` run by **one**
  :class:`~repro.mpi.schedule.ScheduleExecutor` — overlap falls out of
  the dependency structure instead of a bespoke bucket-release driver,
  and the same schedule is provable by :mod:`repro.mpi.verify`.

The retired bucket-release driver lives on in the test suite
(``tests/train/overlap_reference.py``) as the independent reference the
unified DAG is cross-checked against (CI asserts agreement within 1%).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["OverlapResult", "bucketed_iteration_time", "simulate_bucketed_overlap"]


@dataclass(frozen=True)
class OverlapResult:
    """Timing of one iteration with bucketed comm/compute overlap."""

    n_buckets: int
    compute_time: float        # fwd + bwd
    total_comm_time: float     # sum of bucket allreduce times
    iteration_time: float      # with overlap
    serial_iteration_time: float  # compute + full allreduce, no overlap
    #: (start, end) sim-time span of each bucket's collective (simulated
    #: path only; empty for the closed-form model).
    bucket_spans: tuple = ()

    @property
    def exposed_comm(self) -> float:
        """Communication time that could not hide behind the backward.

        Well-defined 0.0 for steps with no communication at all, and
        clamped at 0.0 so float jitter in ``iteration_time`` vs
        ``compute_time`` never reports negative exposure.
        """
        if self.total_comm_time <= 0:
            return 0.0
        return max(0.0, self.iteration_time - self.compute_time)

    @property
    def overlap_gain(self) -> float:
        """Fraction of the serial iteration saved by overlapping.

        Well-defined 0.0 for degenerate steps — zero serial time (nothing
        to divide by) or zero communication (nothing to overlap).
        """
        if self.serial_iteration_time <= 0 or self.total_comm_time <= 0:
            return 0.0
        return 1.0 - self.iteration_time / self.serial_iteration_time


def _check_overlap_args(forward_time, backward_time, gradient_bytes, n_buckets):
    if forward_time < 0 or backward_time < 0:
        raise ValueError("compute times must be >= 0")
    if gradient_bytes < 1 or n_buckets < 1:
        raise ValueError("gradient_bytes and n_buckets must be >= 1")


def bucketed_iteration_time(
    *,
    forward_time: float,
    backward_time: float,
    allreduce_time: Callable[[int], float],
    gradient_bytes: int,
    n_buckets: int,
) -> OverlapResult:
    """Iteration time with ``n_buckets`` bucketed gradient allreduces.

    ``allreduce_time(nbytes)`` maps a payload size to its collective time
    (callers pass a closure over the simulated fabric, so per-message
    overheads make many tiny buckets genuinely worse — the real trade-off).
    Bucket *i* (back-to-front) completes at
    ``forward_time + backward_time * (i+1)/n`` and its allreduce runs as
    soon as both the bucket and the NIC are free.
    """
    _check_overlap_args(forward_time, backward_time, gradient_bytes, n_buckets)
    bucket_bytes = gradient_bytes // n_buckets
    bucket_comm = allreduce_time(max(1, bucket_bytes))
    full_comm = allreduce_time(gradient_bytes)
    compute = forward_time + backward_time

    nic_free = 0.0
    for i in range(n_buckets):
        ready = forward_time + backward_time * (i + 1) / n_buckets
        nic_free = max(ready, nic_free) + bucket_comm
    return OverlapResult(
        n_buckets=n_buckets,
        compute_time=compute,
        total_comm_time=n_buckets * bucket_comm,
        iteration_time=max(compute, nic_free),
        serial_iteration_time=compute + full_comm,
    )


def simulate_bucketed_overlap(
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
    """Run the bucketed overlap for real on the simulated fabric.

    The whole iteration compiles to one unified training-step DAG
    (:func:`repro.train.stepdag.compile_bucketed_step`, data memory mode):
    forward/backward :class:`~repro.mpi.schedule.ComputeStep` chains make
    bucket *i*'s gradient dependency-visible at
    ``forward + backward * (i+1)/n``, each bucket's allreduce schedule is
    spliced in behind that edge (and, with ``serialize_buckets``, behind
    the previous bucket — the DDP execution model), and one executor run
    yields the iteration time.  Concurrent bucket collectives
    (``serialize_buckets=False``) share NIC and link bandwidth through
    the fabric instead of a closed-form sum.

    ``segment_bytes`` may be an int, a callable of the bucket's byte size,
    or ``None`` for the benchmark default ``max(64 KiB, bytes/16)``.
    """
    from repro.mpi.collectives import ALLREDUCE_COMPILERS
    from repro.mpi.datatypes import SizeBuffer
    from repro.mpi.runner import build_world
    from repro.mpi.schedule import ScheduleExecutor
    from repro.net.params import CONNECTX5_DUAL
    from repro.train.stepdag import _segment_rule, compile_bucketed_step

    _check_overlap_args(forward_time, backward_time, gradient_bytes, n_buckets)
    try:
        compiler = ALLREDUCE_COMPILERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}"
        ) from None
    network = network if network is not None else CONNECTX5_DUAL
    compute = forward_time + backward_time
    count = max(1, gradient_bytes // itemsize)
    seg_for = _segment_rule(segment_bytes)

    # Serial baseline: compute, then one full-gradient allreduce (own world
    # so its traffic does not pollute the overlapped run).
    engine, world, comm = build_world(n_ranks, topology=topology, network=network)
    bufs = [SizeBuffer(count, itemsize) for _ in range(n_ranks)]
    full = ScheduleExecutor(
        comm,
        compiler(
            n_ranks, count, itemsize,
            segment_bytes=seg_for(count * itemsize), **alg_kwargs,
        ),
        bufs,
    )
    serial_time = compute + full.run()

    # Overlapped run: one unified step DAG, one executor, one world.
    step = compile_bucketed_step(
        n_ranks, count, itemsize,
        forward_time=forward_time,
        backward_time=backward_time,
        n_buckets=n_buckets,
        algorithm=algorithm,
        segment_bytes=segment_bytes,
        serialize_buckets=serialize_buckets,
        memory="data",
        **alg_kwargs,
    )

    engine, world, comm = build_world(n_ranks, topology=topology, network=network)
    step_bufs = [SizeBuffer(count, itemsize) for _ in range(n_ranks)]
    executor = ScheduleExecutor(comm, step, step_bufs, tag="stepdag")
    elapsed = executor.run()

    # A bucket's span runs from its first step's begin to its last step's
    # finish; its steps carry the ``b{i}|`` note prefix.
    progress = executor.progress
    sids: list[list[int]] = [[] for _ in range(n_buckets)]
    for s in step.steps:
        head, sep, _rest = s.note.partition("|")
        if sep and head.startswith("b"):
            sids[int(head[1:])].append(s.sid)
    spans = [
        (
            min((progress.start[k] for k in ks), default=0.0),
            max((progress.end[k] for k in ks), default=0.0),
        )
        for ks in sids
    ]
    return OverlapResult(
        n_buckets=n_buckets,
        compute_time=compute,
        total_comm_time=sum(end - start for start, end in spans),
        iteration_time=max(compute, elapsed),
        serial_iteration_time=serial_time,
        bucket_spans=tuple(spans),
    )
