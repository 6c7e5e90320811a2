"""Hierarchical 2-D allreduce — an extension beyond the paper.

The multi-color algorithm treats the network as flat; on an
*oversubscribed* fat-tree (uplinks thinner than downlinks, or per-flow
rail caps) the winning strategy is two-dimensional:

1. **intra-group ring reduce-scatter** — after it, group member *k* owns
   the group-sum of shard *k* (traffic stays inside the leaf switch);
2. **cross-group shard allreduce** — the *k*-th members of all groups run
   a ring allreduce over shard *k* only, so the constrained core carries
   each byte once and ``group_size`` independent flows per leaf keep every
   NIC rail busy;
3. **intra-group ring allgather** — finished shards circulate locally.

This is the NCCL-2D / Horovod-hierarchical layout.  The compiler composes
the ring-phase *emitters* from :mod:`.rsag` into one flat
:class:`~repro.mpi.schedule.Schedule` — no sub-communicators at runtime,
just namespaced keys and per-rank dependency chains threading phase 1 into
phase 2 into phase 3.  Group sizes that do not divide the communicator
fall back to the flat ring (documented, tested).  Registered as
``"hierarchical"`` in ``ALLREDUCE_COMPILERS``.
"""

from __future__ import annotations

from repro.mpi.collectives.rsag import (
    emit_ring_allgather,
    emit_ring_reduce_scatter,
)
from repro.mpi.datatypes import chunk_ranges
from repro.mpi.schedule import Schedule, ScheduleBuilder, memoize_compiler

__all__ = ["compile_hierarchical"]


@memoize_compiler
def compile_hierarchical(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    group_size: int = 4,
    segment_bytes: int | None = None,  # accepted for API uniformity; unused
) -> Schedule:
    """Compile the 2-D (group x cross-group) ring allreduce.

    ``group_size`` should match the physical hosts-per-leaf.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    g = min(group_size, n_ranks)
    b = ScheduleBuilder(
        n_ranks, name=f"hierarchical(n={n_ranks}, g={g})",
        count=count, itemsize=itemsize,
    )
    if n_ranks == 1:
        return b.build()
    if n_ranks % g != 0 or g == 1:
        # Ragged or degenerate grouping: flat ring is the safe equivalent.
        members = list(range(n_ranks))
        chunks = chunk_ranges(count, n_ranks)
        tails = emit_ring_reduce_scatter(
            b, members, chunks, ("hflat", "p1"), [None] * n_ranks
        )
        emit_ring_allgather(b, members, chunks, ("hflat", "p2"), tails)
        return b.build()

    n_groups = n_ranks // g
    group_chunks = chunk_ranges(count, g)
    tails: list[int | None] = [None] * n_ranks

    # Phase 1: local reduce-scatter; member k ends up owning shard (k+1)%g.
    for gi in range(n_groups):
        members = list(range(gi * g, (gi + 1) * g))
        phase_tails = emit_ring_reduce_scatter(
            b, members, group_chunks, ("h1", gi), [None] * g
        )
        for pos, rank in enumerate(members):
            tails[rank] = phase_tails[pos]

    # Phase 2: the k-th members of all groups allreduce shard (k+1)%g.
    if n_groups > 1:
        for k in range(g):
            peers = [gi * g + k for gi in range(n_groups)]
            slo, shi = group_chunks[(k + 1) % g]
            shard_chunks = [
                (slo + clo, slo + chi)
                for clo, chi in chunk_ranges(shi - slo, n_groups)
            ]
            entry = [tails[rank] for rank in peers]
            phase_tails = emit_ring_reduce_scatter(
                b, peers, shard_chunks, ("h2", k, "p1"), entry
            )
            phase_tails = emit_ring_allgather(
                b, peers, shard_chunks, ("h2", k, "p2"), phase_tails
            )
            for pos, rank in enumerate(peers):
                tails[rank] = phase_tails[pos]

    # Phase 3: local allgather of the finished shards.
    for gi in range(n_groups):
        members = list(range(gi * g, (gi + 1) * g))
        entry = [tails[rank] for rank in members]
        emit_ring_allgather(b, members, group_chunks, ("h3", gi), entry)
    return b.build()
