"""Ring allreduce algorithms.

Two variants:

* :func:`compile_pipelined_ring` — the ring the paper implemented as its
  strong baseline (§5.1): "a pipelined ring algorithm where packets are
  reduced to a single root node along the ring then broadcast from the root
  to all peers in the opposite direction".  Segment *s* travels rank
  ``N-1 -> N-2 -> ... -> 0`` being summed at every hop, then ``0 -> 1 -> ...
  -> N-1`` carrying the final value; the two directions use opposite sides
  of each full-duplex cable, and segments are pipelined so all links stay
  busy.

* :func:`~repro.mpi.collectives.rsag.compile_rsag` — the
  bandwidth-optimal ring used by NCCL/Horovod, provided as an additional
  modern reference point.

:func:`compile_pipelined_ring` emits the schedule: per rank, a reduce
strand (chained toward rank 0) and a broadcast strand (chained away from
it); at rank 0 the broadcast of segment *s* depends on the reduce strand
finishing that segment — the explicit form of the old ``reduced[s]``
hand-off event.
"""

from __future__ import annotations

from repro.mpi.collectives.multicolor import DEFAULT_SEGMENT_BYTES, segments_of
from repro.mpi.schedule import Schedule, ScheduleBuilder, memoize_compiler

__all__ = ["compile_pipelined_ring"]


@memoize_compiler
def compile_pipelined_ring(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> Schedule:
    """Compile the paper's pipelined reduce-to-root ring to a schedule."""
    segs = segments_of(0, count, itemsize, segment_bytes)
    b = ScheduleBuilder(
        n_ranks, name=f"ring(n={n_ranks})", count=count, itemsize=itemsize
    )
    for rank in range(n_ranks):
        upstream = rank + 1   # data flows from high ranks toward the root at 0
        downstream = rank - 1
        rprev = None
        reduce_done: dict[int, int | None] = {}
        for s, slo, shi in segs:
            if upstream < n_ranks:
                rprev = b.recv_reduce(
                    rank, upstream, ("rr", s), slo, shi, deps=rprev, note=f"s{s}"
                )
            if downstream >= 0:
                rprev = b.send(
                    rank, downstream, ("rr", s), slo, shi, deps=rprev, note=f"s{s}"
                )
            else:
                reduce_done[s] = rprev
        bprev = None
        for s, slo, shi in segs:
            if rank == 0:
                deps = [bprev, reduce_done[s]]
            else:
                bprev = b.copy(
                    rank, rank - 1, ("rb", s), slo, shi, deps=bprev, note=f"s{s}"
                )
                deps = [bprev]
            if rank + 1 < n_ranks:
                bprev = b.send(
                    rank, rank + 1, ("rb", s), slo, shi, deps=deps, note=f"s{s}"
                )
    return b.build()
