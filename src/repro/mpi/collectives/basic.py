"""Basic collectives: broadcast, reduce, barrier, binomial allreduce.

These are the building blocks the training loop and the DIMD shuffle use
around the headline allreduce: binomial-tree bcast/reduce (the classical
MPI algorithms), a dissemination barrier, and the naive
reduce-then-broadcast allreduce they compose into
(:func:`compile_binomial_allreduce`, registered as ``"binomial"``).

All fixed-size collectives here are schedule compilers; only
:func:`ring_allgatherv` remains a hand-written generator because its
per-rank message sizes are unknown at compile time (each step forwards
whatever payload arrived in the previous step).
"""

from __future__ import annotations

from repro.mpi.collectives.trees import binomial_tree
from repro.mpi.datatypes import ArrayBuffer, Buffer, SizeBuffer
from repro.mpi.schedule import Schedule, ScheduleBuilder, memoize_compiler
from repro.mpi.world import Communicator

__all__ = [
    "compile_binomial_allreduce",
    "compile_binomial_bcast",
    "compile_binomial_reduce",
    "compile_dissemination_barrier",
    "ring_allgatherv",
]


def _emit_binomial_reduce(
    b: ScheduleBuilder, count: int, root: int, ns: tuple,
    prev: list[int | None],
) -> None:
    """Sum every rank's buffer to ``root`` over a binomial tree."""
    tree = binomial_tree(b.n_ranks, root)
    for rank in range(b.n_ranks):
        for child in tree.children.get(rank, ()):
            prev[rank] = b.recv_reduce(
                rank, child, ns + ("rd",), 0, count, deps=prev[rank], note="reduce"
            )
        parent = tree.parent.get(rank)
        if parent is not None:
            prev[rank] = b.send(
                rank, parent, ns + ("rd",), 0, count, deps=prev[rank], note="reduce"
            )


def _emit_binomial_bcast(
    b: ScheduleBuilder, count: int, root: int, ns: tuple,
    prev: list[int | None],
) -> None:
    """Broadcast ``root``'s buffer over a binomial tree."""
    tree = binomial_tree(b.n_ranks, root)
    for rank in range(b.n_ranks):
        parent = tree.parent.get(rank)
        if parent is not None:
            prev[rank] = b.copy(
                rank, parent, ns + ("bc",), 0, count, deps=prev[rank], note="bcast"
            )
        # Children in binomial order: largest subtree first (classical).
        for child in tree.children.get(rank, ()):
            prev[rank] = b.send(
                rank, child, ns + ("bc",), 0, count, deps=prev[rank], note="bcast"
            )


@memoize_compiler
def compile_binomial_bcast(
    n_ranks: int, count: int, itemsize: int, *, root: int = 0
) -> Schedule:
    b = ScheduleBuilder(
        n_ranks, name=f"binomial_bcast(n={n_ranks}, root={root})",
        count=count, itemsize=itemsize,
    )
    if n_ranks > 1:
        _emit_binomial_bcast(b, count, root, (), [None] * n_ranks)
    return b.build()


@memoize_compiler
def compile_binomial_reduce(
    n_ranks: int, count: int, itemsize: int, *, root: int = 0
) -> Schedule:
    b = ScheduleBuilder(
        n_ranks, name=f"binomial_reduce(n={n_ranks}, root={root})",
        count=count, itemsize=itemsize,
    )
    if n_ranks > 1:
        _emit_binomial_reduce(b, count, root, (), [None] * n_ranks)
    return b.build()


@memoize_compiler
def compile_binomial_allreduce(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    root: int = 0,
    segment_bytes: int | None = None,  # accepted for API uniformity; unused
) -> Schedule:
    """Reduce-to-root + broadcast: the naive latency-bound allreduce.

    ``2 log2 N`` full-payload hops; included as the classical small-message
    baseline the tuned algorithms are measured against.
    """
    b = ScheduleBuilder(
        n_ranks, name=f"binomial_allreduce(n={n_ranks})",
        count=count, itemsize=itemsize,
    )
    if n_ranks > 1:
        prev: list[int | None] = [None] * n_ranks
        _emit_binomial_reduce(b, count, root, ("ar",), prev)
        _emit_binomial_bcast(b, count, root, ("ar",), prev)
    return b.build()


@memoize_compiler
def compile_dissemination_barrier(n_ranks: int) -> Schedule:
    """Dissemination barrier: ceil(log2 N) zero-byte token rounds."""
    b = ScheduleBuilder(n_ranks, name=f"barrier(n={n_ranks})")
    prev: list[int | None] = [None] * n_ranks
    step = 1
    round_no = 0
    while step < n_ranks:
        for rank in range(n_ranks):
            dst = (rank + step) % n_ranks
            prev[rank] = b.send(
                rank, dst, ("bar", round_no), buf=None,
                deps=prev[rank], note=f"round {round_no}",
            )
        for rank in range(n_ranks):
            src = (rank - step) % n_ranks
            prev[rank] = b.recv(
                rank, src, ("bar", round_no),
                deps=prev[rank], note=f"round {round_no}",
            )
        step <<= 1
        round_no += 1
    return b.build()


def ring_allgatherv(
    comm: Communicator,
    rank: int,
    contribution: Buffer,
    *,
    tag: object = None,
):
    """Rank program: gather every rank's (variable-size) buffer everywhere.

    Returns a list of payloads indexed by source group rank.  Uses the ring
    algorithm: in step ``t`` each rank forwards the block it received in
    step ``t-1``.  This collective stays a generator (not a schedule
    compiler): per-step message sizes depend on *other ranks'* payloads,
    which a static compile cannot know.
    """
    n = comm.size
    gathered: list[object] = [None] * n
    gathered[rank] = contribution.extract()
    if n == 1:
        return gathered
    succ = (rank + 1) % n
    pred = (rank - 1) % n
    carry: Buffer = contribution
    for t in range(n - 1):
        comm.isend(rank, succ, ("agv", tag, t), carry)
        msg = yield comm.recv(rank, pred, ("agv", tag, t))
        src = (rank - t - 1) % n
        gathered[src] = msg.payload
        carry = _as_buffer(msg)
    return gathered


def _as_buffer(msg) -> Buffer:
    """Wrap a received payload back into a Buffer for forwarding."""
    if msg.payload is None:
        # Size-only mode: reconstruct a SizeBuffer of the same byte count.
        return SizeBuffer(msg.nbytes, itemsize=1)
    return ArrayBuffer(msg.payload)
