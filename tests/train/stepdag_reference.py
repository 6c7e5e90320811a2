"""The step compiler as it was before its splice built steps directly: the
differential reference for :func:`repro.train.stepdag.compile_bucketed_step`.

Each spliced allreduce step is rebuilt through ``dataclasses.replace`` with
a per-step dependency set, and every bucket's exits are found by set
difference.  The compiler must emit the same steps for every input.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import chunk_ranges
from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    SendStep,
)
from repro.train.stepdag import _segment_rule

from tests.mpi.analysis_reference import reference_validate_schedule


def reference_splice_step(step, base, extra_deps, bucket, lo, comm_buf):
    """Renumber one allreduce sub-step into the unified step DAG.

    sids and deps shift by ``base``; root steps gain ``extra_deps`` (the
    gradient-ready and bucket-serialization edges); ``"data"`` ranges
    shift by the bucket's offset ``lo`` and rebind to ``comm_buf``;
    message keys are namespaced per bucket so concurrent buckets never
    cross-match; notes get a ``b{bucket}|`` prefix for span tracking.
    """
    deps = tuple(d + base for d in step.deps)
    if not step.deps:
        deps = tuple(sorted(extra_deps))
    fields = dict(
        sid=step.sid + base,
        deps=deps,
        note=f"b{bucket}|{step.note}" if step.note else f"b{bucket}|",
    )
    if isinstance(step, (SendStep, RecvReduceStep, CopyStep)):
        fields["key"] = (bucket, step.key)
    if isinstance(step, ReduceLocalStep):
        fields.update(
            buf=comm_buf, lo=step.lo + lo, hi=step.hi + lo,
            src_buf=comm_buf, src_lo=step.src_lo + lo, src_hi=step.src_hi + lo,
        )
    elif step.buf is not None:
        fields.update(buf=comm_buf, lo=step.lo + lo, hi=step.hi + lo)
    return dataclasses.replace(step, **fields)


def reference_compile_bucketed_step(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    forward_time: float = 0.0,
    backward_time: float = 0.0,
    optim_time: float = 0.0,
    n_buckets: int = 1,
    algorithm: str = "multicolor",
    segment_bytes: Callable[[int], int] | int | None = None,
    serialize_buckets: bool = True,
    memory: str = "data",
    audit: bool = False,
    audit_time: float = 0.0,
    **alg_kwargs,
) -> Schedule:
    """The bucketed step compiler, splicing with :func:`reference_splice_step`."""
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if forward_time < 0 or backward_time < 0 or optim_time < 0:
        raise ValueError("compute times must be >= 0")
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    if audit_time < 0:
        raise ValueError(f"audit_time must be >= 0, got {audit_time}")
    if memory not in ("data", "staged"):
        raise ValueError(f"memory must be 'data' or 'staged', got {memory!r}")
    try:
        compiler = ALLREDUCE_COMPILERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}"
        ) from None

    staged = memory == "staged"
    comm_buf = "grad" if staged else "data"
    bwd_src = "local" if staged else None
    optim_dst = "update" if staged else None

    seg_for = _segment_rule(segment_bytes)
    buckets = chunk_ranges(count, n_buckets)
    steps: list = []

    def emit(cls, rank, deps, note, **kw):
        sid = len(steps)
        steps.append(cls(sid, rank, tuple(sorted(deps)), note, **kw))
        return sid

    # Forward pass, then the backward split back-to-front into buckets:
    # bucket i's gradient slice exists once segment i completes.
    bwd_sid = [[0] * n_buckets for _ in range(n_ranks)]
    for rank in range(n_ranks):
        prev = emit(
            ComputeStep, rank, (), "fwd", seconds=forward_time, buf=None,
        )
        for i, (lo, hi) in enumerate(buckets):
            prev = emit(
                ComputeStep, rank, (prev,), f"bwd bucket {i}",
                seconds=backward_time / n_buckets,
                buf=comm_buf, lo=lo, hi=hi, src_buf=bwd_src,
            )
            bwd_sid[rank][i] = prev

    # Splice each non-empty bucket's compiled allreduce, gated on the
    # bucket's gradient (and, when serializing, the previous bucket).
    prev_exits: list[set] = [set() for _ in range(n_ranks)]
    bucket_exits: list[list[set]] = []
    for i, (lo, hi) in enumerate(buckets):
        n_elems = hi - lo
        exits: list[set] = [set() for _ in range(n_ranks)]
        bucket_exits.append(exits)
        if n_elems < 1:
            continue
        sub = compiler(
            n_ranks, n_elems, itemsize,
            segment_bytes=seg_for(n_elems * itemsize), **alg_kwargs,
        )
        base = len(steps)
        interior = [set() for _ in range(n_ranks)]
        for s in sub.steps:
            extra = {bwd_sid[s.rank][i]}
            if serialize_buckets:
                extra |= prev_exits[s.rank]
            steps.append(reference_splice_step(s, base, extra, i, lo, comm_buf))
            exits[s.rank].add(s.sid + base)
            interior[s.rank].update(d + base for d in s.deps)
        for rank in range(n_ranks):
            exits[rank] -= interior[rank]
            if exits[rank]:
                prev_exits[rank] = exits[rank]

    # Per-bucket parameter updates, chained in bucket order per rank.
    # With auditing, a read-only OptimStep (dst_buf=None) sits between
    # the bucket's allreduce and its real update: the verifier's
    # unreduced-optim-read check then proves the fingerprint audit sees
    # fully reduced data, and the update is gated on the audit.
    for rank in range(n_ranks):
        prev_optim = None
        for i, (lo, hi) in enumerate(buckets):
            if hi - lo < 1:
                continue
            deps = set(bucket_exits[i][rank]) or {bwd_sid[rank][i]}
            if prev_optim is not None:
                deps.add(prev_optim)
            if audit:
                audit_sid = emit(
                    OptimStep, rank, deps, f"sdc audit bucket {i}",
                    seconds=audit_time * (hi - lo) / count,
                    buf=comm_buf, lo=lo, hi=hi, dst_buf=None,
                )
                deps = {audit_sid}
            prev_optim = emit(
                OptimStep, rank, deps, f"optim bucket {i}",
                seconds=optim_time * (hi - lo) / count,
                buf=comm_buf, lo=lo, hi=hi, dst_buf=optim_dst,
            )

    schedule = Schedule(
        name=(
            f"step[{algorithm} x{n_buckets} {memory}"
            f"{' audit' if audit else ''}]"
            f"(n={n_ranks}, count={count})"
        ),
        n_ranks=n_ranks,
        steps=tuple(steps),
        count=count,
        itemsize=itemsize,
    )
    reference_validate_schedule(schedule)
    return schedule
