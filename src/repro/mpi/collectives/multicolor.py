"""The paper's multi-color MPI_Allreduce (§4.2), as a schedule compiler.

The payload is split into ``n_colors`` chunks.  Chunk *c* is reduced down
color *c*'s k-ary BFS spanning tree to that color's root and then broadcast
back.  Internal vertices are disjoint across colors (see
:mod:`repro.mpi.collectives.trees`), so the k reductions progress
concurrently on a fat-tree without sharing the summing nodes.

Within a color the chunk is pipelined in fixed-size segments, and the
reduce and broadcast phases themselves overlap: the root broadcasts segment
*s* the moment it finishes summing it, while segments ``> s`` are still
being reduced below.  :func:`compile_multicolor` emits exactly that
structure as a :class:`~repro.mpi.schedule.Schedule`: per rank and color,
a *reduce strand* (chained recv+reduce steps ending in a send to the
parent) and a *broadcast strand* (chained copy/send steps); at the root
the broadcast of segment *s* additionally depends on the last reduce step
of segment *s* — the explicit form of the old generator's ``reduced[s]``
hand-off event.

The same schedule performs real NumPy arithmetic when executed over
:class:`~repro.mpi.datatypes.ArrayBuffer` payloads, so correctness and
timing come from one implementation.
"""

from __future__ import annotations

from repro.mpi.collectives.trees import Tree, color_trees, feasible_colors
from repro.mpi.datatypes import chunk_ranges
from repro.mpi.schedule import Schedule, ScheduleBuilder, memoize_compiler

__all__ = [
    "compile_multicolor",
    "segments_of",
    "DEFAULT_SEGMENT_BYTES",
]

#: Pipeline segment size.  64 KiB segments keep tree stages busy without
#: excessive per-message overhead (matches InfiniBand mid-size messages).
DEFAULT_SEGMENT_BYTES = 64 * 1024


def segments_of(start: int, stop: int, itemsize: int, segment_bytes: int):
    """(seg_index, lo, hi) element ranges covering ``[start, stop)``.

    ``segment_bytes`` smaller than one element clamps to one element per
    segment (the finest pipelining the datatype allows).
    """
    if segment_bytes < 1:
        raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
    per = max(1, segment_bytes // itemsize)
    out = []
    s = 0
    lo = start
    while lo < stop:
        hi = min(lo + per, stop)
        out.append((s, lo, hi))
        s += 1
        lo = hi
    return out


@memoize_compiler
def compile_multicolor(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    n_colors: int = 4,
    arity: int | None = None,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    trees: tuple[Tree, ...] | list[Tree] | None = None,
) -> Schedule:
    """Compile the k-color pipelined tree allreduce to a schedule.

    Parameters mirror §4.2: ``n_colors`` concurrent trees of the given
    ``arity`` (default ``n_colors``), pipelined in ``segment_bytes``
    segments.  ``trees`` may be passed to override the (deterministic)
    construction.
    """
    if trees is None:
        trees = color_trees(n_ranks, feasible_colors(n_ranks, n_colors, arity), arity)
    chunks = chunk_ranges(count, len(trees))
    b = ScheduleBuilder(
        n_ranks,
        name=f"multicolor(n={n_ranks}, colors={len(trees)})",
        count=count,
        itemsize=itemsize,
    )
    for color, tree in enumerate(trees):
        lo, hi = chunks[color]
        if hi <= lo:
            continue
        segs = segments_of(lo, hi, itemsize, segment_bytes)
        for rank in range(n_ranks):
            parent = tree.parent.get(rank)
            children = tree.children.get(rank, ())
            # Reduce strand: sum each segment from the children, forward up.
            rprev = None
            reduce_done: dict[int, int | None] = {}
            for s, slo, shi in segs:
                note = f"c{color} s{s}"
                for child in children:
                    rprev = b.recv_reduce(
                        rank, child, ("mcr", color, s), slo, shi,
                        deps=rprev, note=note,
                    )
                if parent is not None:
                    rprev = b.send(
                        rank, parent, ("mcr", color, s), slo, shi,
                        deps=rprev, note=note,
                    )
                else:
                    reduce_done[s] = rprev
            # Broadcast strand: forward finished segments down the tree.
            bprev = None
            for s, slo, shi in segs:
                note = f"c{color} s{s}"
                if parent is None:
                    # Root hand-off: segment s leaves once it is fully
                    # summed here (the generator's reduced[s] event).
                    deps = [bprev, reduce_done[s]]
                else:
                    bprev = b.copy(
                        rank, parent, ("mcb", color, s), slo, shi,
                        deps=bprev, note=note,
                    )
                    deps = [bprev]
                for child in children:
                    bprev = b.send(
                        rank, child, ("mcb", color, s), slo, shi,
                        deps=deps, note=note,
                    )
                    deps = [bprev]
    return b.build()
