"""Unified training-step DAG: compute + communication in one Schedule.

Following the DAG model of synchronous SGD (Shi et al., arXiv:1805.03812)
and the layer-wise compute/comm interleaving of Das et al.
(arXiv:1602.06709), this module lowers one whole training iteration —
forward pass, back-to-front backward segments, per-bucket gradient
allreduces and the parameter update — into a single
:class:`~repro.mpi.schedule.Schedule`:

* the forward and backward passes become :class:`ComputeStep` chains on
  each rank's GPU resource, the backward split into ``n_buckets``
  segments so bucket *i*'s gradient is *produced* (dependency-visible)
  at ``forward + backward * (i+1)/n``;
* each bucket's allreduce is the unmodified compiled schedule of the
  chosen algorithm, spliced in with its sids/deps renumbered, its ranges
  shifted into the bucket's slice of the gradient buffer and its message
  keys namespaced per bucket — the compilers are reused, not
  re-implemented;
* a per-bucket :class:`OptimStep` consumes the reduced slice, chained so
  updates apply in bucket order.

Overlap is no longer special-cased: it falls out of the dependency
structure when the one strand-fused
:class:`~repro.mpi.schedule.ScheduleExecutor` runs the DAG, and the
whole step is provable by every :mod:`repro.mpi.verify` pass (the
semantic pass asserts each bucket's gradient is fully reduced before its
``OptimStep`` reads it).

Two memory modes:

* ``memory="data"`` — everything lives in the single ``"data"`` buffer:
  compute steps are timing-only (no memory writes), so the schedule binds
  to per-rank gradient buffers unchanged.  The sums are *not* in general
  bit-identical to the plain allreduce's: bucketing re-chunks the
  collective, and with three or more ranks a re-chunked element can be
  summed in a different order (with two, ``a + b == b + a`` hides it).
  Used by :func:`repro.train.overlap.simulate_bucketed_overlap`.
* ``memory="staged"`` — three buffers ``local``/``grad``/``update``: the
  backward copies ``local`` into ``grad``, the allreduce runs over
  ``grad`` and the optimizer writes ``update``.  Data flow is real, so
  the verifier's dynamic mutation oracle can execute it with integer
  payloads and catch miscomputation.  Used by ``repro step``, the verify
  sweep and the mutation self-test.
"""

from __future__ import annotations

import math
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
    memoize_compiler,
    validate_schedule,
)

__all__ = ["compile_bucketed_step", "compile_model_step"]

#: Pipeline segment rule used by the Figure 5/6 benchmarks.
_DEFAULT_SEGMENT_DIVISOR = 16


def _segment_rule(
    segment_bytes: Callable[[int], int] | int | None,
) -> Callable[[int], int]:
    """Pipeline segment size per payload: an int, a callable of the
    payload's byte size, or ``None`` for ``max(64 KiB, bytes/16)``."""
    if segment_bytes is None:
        return lambda nbytes: max(64 * 1024, nbytes // _DEFAULT_SEGMENT_DIVISOR)
    if callable(segment_bytes):
        return segment_bytes
    return lambda _nbytes: segment_bytes


def _splice_step(step, base, root_deps, bucket, lo, comm_buf):
    """Renumber one allreduce sub-step into the unified step DAG.

    sids and deps shift by ``base``; root steps take ``root_deps`` (the
    sorted gradient-ready and bucket-serialization edges); ``"data"``
    ranges shift by the bucket's offset ``lo`` and rebind to
    ``comm_buf``; message keys are namespaced per bucket so concurrent
    buckets never cross-match; notes get a ``b{bucket}|`` prefix for span
    tracking.  Each step is built by its positional constructor, which
    costs about half of a ``dataclasses.replace``.
    """
    sid = step.sid + base
    deps = tuple([d + base for d in step.deps]) if step.deps else root_deps
    note = f"b{bucket}|{step.note}"
    cls = type(step)
    if cls is ReduceLocalStep:
        return ReduceLocalStep(
            sid, step.rank, deps, note, comm_buf, step.lo + lo, step.hi + lo,
            comm_buf, step.src_lo + lo, step.src_hi + lo,
        )
    if step.buf is None:
        buf, s_lo, s_hi = None, step.lo, step.hi
    else:
        buf, s_lo, s_hi = comm_buf, step.lo + lo, step.hi + lo
    if cls is SendStep:
        return SendStep(
            sid, step.rank, deps, note, step.dst, (bucket, step.key), buf, s_lo, s_hi,
        )
    if cls is RecvReduceStep or cls is CopyStep:
        return cls(
            sid, step.rank, deps, note, step.src, (bucket, step.key), buf, s_lo, s_hi,
        )
    raise TypeError(f"an allreduce schedule cannot hold a {cls.__name__}")


def compile_bucketed_step(
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
    """Lower one training iteration to a single unified Schedule.

    The positional ``(n_ranks, count, itemsize)`` prefix matches the
    allreduce compiler convention, so the result drops into
    :func:`~repro.mpi.schedule.run_guarded` unchanged.  ``segment_bytes``
    may be an int, a callable of the bucket's byte size, or ``None`` for
    the benchmark default ``max(64 KiB, bytes/16)``.

    With ``serialize_buckets`` (the DDP/Horovod execution model) each
    rank's bucket-*i* collective additionally waits for that rank's
    bucket-*i-1* steps — the schedule-DAG rendering of the legacy
    driver's "one collective on the NIC at a time" rule.

    With ``audit`` (the SDC defense of :mod:`repro.train.sdc`) each
    bucket gains a read-only ``OptimStep`` ("sdc audit") between the
    bucket's allreduce and its real optimizer step: ``dst_buf=None``
    with the bucket's window, so the semantic verify pass proves the
    fingerprint check reads *fully reduced* data — the audit inherits
    the ``unreduced-optim-read`` contract coverage for free — and the
    real update cannot fire before the audit.  ``audit_time`` models the
    per-element cost of fingerprinting; at the default ``0.0`` the added
    steps leave every timing bit-identical.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not all(0 <= t < math.inf for t in (forward_time, backward_time, optim_time)):
        raise ValueError("compute times must be finite and >= 0")
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    if not 0 <= audit_time < math.inf:
        raise ValueError(f"audit_time must be finite and >= 0, got {audit_time}")
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
        root_deps = []
        for rank in range(n_ranks):
            extra = {bwd_sid[rank][i]}
            if serialize_buckets:
                extra |= prev_exits[rank]
            root_deps.append(tuple(sorted(extra)))
        steps.extend(
            _splice_step(s, base, root_deps[s.rank], i, lo, comm_buf) for s in sub.steps
        )
        # A rank's exits are its spliced steps no later step of it depends on.
        interior = {d for s in sub.steps for d in s.deps}
        for s in sub.steps:
            if s.sid not in interior:
                exits[s.rank].add(s.sid + base)
        for rank in range(n_ranks):
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
    validate_schedule(schedule)
    return schedule


compile_bucketed_step = memoize_compiler(compile_bucketed_step)


def compile_model_step(
    model,
    *,
    n_ranks: int,
    algorithm: str,
    compute,
    batch_per_gpu: int = 32,
    n_buckets: int = 8,
    fp16: bool = False,
    optim_flops_per_param: float = 4.0,
    memory: str = "staged",
    **step_kwargs,
) -> Schedule:
    """Lower a model descriptor + knobs into one training-step Schedule.

    ``model`` is a :class:`~repro.models.descriptors.ModelDescriptor`;
    ``compute`` a :class:`~repro.cluster.gpu.GPUComputeModel` (e.g. from
    :func:`repro.core.calibration.compute_model_for`).  Forward/backward
    times follow the 1:2 FLOP accounting of the compute model; ``fp16``
    halves the wire payload (itemsize 2), composing with bucketing and
    any ``algorithm`` in one schedule.
    """
    step = compute.step_time(model.forward_flops, batch_per_gpu, model.n_layers)
    itemsize = 2 if fp16 else 4
    count = max(1, model.n_params)
    optim_time = (
        optim_flops_per_param * model.n_params / compute.effective_flops(batch_per_gpu)
    )
    return compile_bucketed_step(
        n_ranks, count, itemsize,
        forward_time=step / 3.0,
        backward_time=step * 2.0 / 3.0,
        optim_time=optim_time,
        n_buckets=n_buckets,
        algorithm=algorithm,
        memory=memory,
        **step_kwargs,
    )
