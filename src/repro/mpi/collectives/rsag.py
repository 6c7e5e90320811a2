"""Reduce-scatter + allgather ring allreduce (the NCCL/Horovod ring).

Bandwidth-optimal: each rank sends ``2 (N-1)/N`` of the payload in total.
The payload is split into N chunks; in step *t* of the reduce-scatter phase
rank *r* sends chunk ``(r - t) mod N`` to its successor and accumulates the
chunk arriving from its predecessor.  After ``N-1`` steps rank *r* owns the
fully-reduced chunk ``(r + 1) mod N``; the allgather phase circulates the
finished chunks the same way without arithmetic.

The two phases are exposed as reusable schedule *emitters*
(:func:`emit_ring_reduce_scatter`, :func:`emit_ring_allgather`) that append
steps for an arbitrary member list with arbitrary chunk spans — the
hierarchical 2-D allreduce composes them into a single schedule with a
cross-group exchange in between.
"""

from __future__ import annotations

from repro.mpi.datatypes import chunk_ranges
from repro.mpi.schedule import Schedule, ScheduleBuilder, memoize_compiler

__all__ = [
    "compile_rsag",
    "compile_ring_reduce_scatter",
    "compile_ring_allgather",
    "emit_ring_reduce_scatter",
    "emit_ring_allgather",
]


def emit_ring_reduce_scatter(
    b: ScheduleBuilder,
    members: list[int],
    chunks: list[tuple[int, int]],
    ns: tuple,
    entry: list[int | None],
) -> list[int | None]:
    """Append a ring reduce-scatter over ``members`` to builder ``b``.

    ``members`` are schedule ranks in ring order; ``chunks[i]`` is member
    *i*'s chunk as an element range of the schedule's buffer; ``ns`` is a
    key namespace tuple so composed phases never collide; ``entry[i]`` is
    the step each member must wait for before starting (or ``None``).
    Afterwards member *i* owns the fully-reduced chunk ``(i + 1) mod N``.
    Returns the per-member tail step ids.
    """
    n = len(members)
    tails: list[int | None] = []
    for i, rank in enumerate(members):
        prev = entry[i]
        succ = members[(i + 1) % n]
        pred = members[(i - 1) % n]
        for t in range(n - 1):
            slo, shi = chunks[(i - t) % n]
            rlo, rhi = chunks[(i - t - 1) % n]
            prev = b.send(
                rank, succ, ns + ("rs", t), slo, shi, deps=prev, note=f"rs t{t}"
            )
            prev = b.recv_reduce(
                rank, pred, ns + ("rs", t), rlo, rhi, deps=prev, note=f"rs t{t}"
            )
        tails.append(prev)
    return tails


def emit_ring_allgather(
    b: ScheduleBuilder,
    members: list[int],
    chunks: list[tuple[int, int]],
    ns: tuple,
    entry: list[int | None],
) -> list[int | None]:
    """Append a ring allgather over ``members``; member *i* is assumed to
    own chunk ``(i + 1) mod N`` (the reduce-scatter convention).  Returns
    the per-member tail step ids."""
    n = len(members)
    tails: list[int | None] = []
    for i, rank in enumerate(members):
        prev = entry[i]
        succ = members[(i + 1) % n]
        pred = members[(i - 1) % n]
        for t in range(n - 1):
            slo, shi = chunks[(i + 1 - t) % n]
            rlo, rhi = chunks[(i - t) % n]
            prev = b.send(
                rank, succ, ns + ("ag", t), slo, shi, deps=prev, note=f"ag t{t}"
            )
            prev = b.copy(
                rank, pred, ns + ("ag", t), rlo, rhi, deps=prev, note=f"ag t{t}"
            )
        tails.append(prev)
    return tails


@memoize_compiler
def compile_ring_reduce_scatter(n_ranks: int, count: int, itemsize: int) -> Schedule:
    """Standalone ring reduce-scatter schedule over N equal chunks."""
    b = ScheduleBuilder(
        n_ranks, name=f"ring_reduce_scatter(n={n_ranks})",
        count=count, itemsize=itemsize,
    )
    if n_ranks > 1:
        emit_ring_reduce_scatter(
            b, list(range(n_ranks)), chunk_ranges(count, n_ranks),
            (), [None] * n_ranks,
        )
    return b.build()


@memoize_compiler
def compile_ring_allgather(n_ranks: int, count: int, itemsize: int) -> Schedule:
    """Standalone ring allgather schedule (owner convention ``(i+1) mod N``)."""
    b = ScheduleBuilder(
        n_ranks, name=f"ring_allgather(n={n_ranks})",
        count=count, itemsize=itemsize,
    )
    if n_ranks > 1:
        emit_ring_allgather(
            b, list(range(n_ranks)), chunk_ranges(count, n_ranks),
            (), [None] * n_ranks,
        )
    return b.build()


@memoize_compiler
def compile_rsag(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    segment_bytes: int | None = None,  # accepted for API uniformity; unused
) -> Schedule:
    """Compile the reduce-scatter + allgather ring allreduce."""
    b = ScheduleBuilder(
        n_ranks, name=f"rsag(n={n_ranks})", count=count, itemsize=itemsize
    )
    if n_ranks > 1:
        members = list(range(n_ranks))
        chunks = chunk_ranges(count, n_ranks)
        tails = emit_ring_reduce_scatter(b, members, chunks, ("p1",), [None] * n_ranks)
        emit_ring_allgather(b, members, chunks, ("p2",), tails)
    return b.build()
