"""MPI_AlltoAllv — the collective behind the DIMD distributed shuffle.

Each rank contributes one buffer per destination (variable sizes).  The
implementation posts all sends immediately (they serialize FIFO per channel
in :class:`~repro.mpi.world.MPIWorld`) and receives from peers in a
rank-rotated order so the pattern does not hot-spot a single destination —
the classical "balanced" linear alltoall schedule.

Returns the received payloads indexed by source group rank, with the local
contribution passed through directly (no self-send on the wire, matching
MPI implementations that short-circuit self messages through memcpy).
"""

from __future__ import annotations

from repro.mpi.datatypes import Buffer
from repro.mpi.schedule import Schedule, ScheduleBuilder
from repro.mpi.world import Communicator

__all__ = ["alltoallv", "compile_alltoallv"]


def alltoallv(
    comm: Communicator,
    rank: int,
    send_bufs: list[Buffer],
    *,
    tag: object = None,
    progress=None,
):
    """Rank program: exchange ``send_bufs[d] -> rank d`` for all d.

    Returns ``received`` where ``received[s]`` is the payload sent by group
    rank ``s`` (for :class:`~repro.mpi.datatypes.SizeBuffer` runs the
    payloads are ``None`` but byte counts are still simulated).

    ``progress``, when given, receives ``sent``/``begin_recv``/``end_recv``
    callbacks keyed by ``("a2a", tag, src, dst)`` — synchronous Python
    bookkeeping that adds no simulation events (see
    :class:`repro.data.shuffle.ShuffleProgress`).
    """
    n = comm.size
    if len(send_bufs) != n:
        raise ValueError(
            f"rank {rank}: expected {n} send buffers, got {len(send_bufs)}"
        )
    received: list[object] = [None] * n
    # Local block: a host-memory copy, modelled on the copy engine.
    received[rank] = send_bufs[rank].extract()
    if send_bufs[rank].nbytes > 0:
        yield from comm.copy_cpu(rank, send_bufs[rank].nbytes)
    # Rotated post order spreads instantaneous load across destinations.
    for offset in range(1, n):
        dst = (rank + offset) % n
        comm.isend(rank, dst, ("a2a", tag), send_bufs[dst])
        if progress is not None:
            progress.sent(rank, ("a2a", tag, rank, dst), comm.engine.now)
    for offset in range(1, n):
        src = (rank - offset) % n
        if progress is not None:
            progress.begin_recv(
                rank, src, ("a2a", tag, src, rank), comm.engine.now
            )
        msg = yield comm.recv(rank, src, ("a2a", tag))
        if progress is not None:
            progress.end_recv(rank, comm.engine.now)
        received[src] = msg.payload
    return received


def compile_alltoallv(
    counts: list[list[int]] | tuple[tuple[int, ...], ...],
    itemsize: int = 1,
) -> Schedule:
    """Compile the balanced linear alltoallv into Schedule IR.

    ``counts[s][d]`` is the element count rank ``s`` sends to rank ``d``.
    The schedule mirrors :func:`alltoallv` step for step: rank ``r``
    lands its own block via a local reduce (``out{r} -> in{r}``, which
    equals a copy because the ``in`` landing zones start zeroed), posts
    all remote sends in the rotated order ``(r+1)%n, (r+2)%n, ...``, and
    drains receives in the mirrored order ``(r-1)%n, (r-2)%n, ...``,
    serialized per rank exactly like the blocking ``comm.recv`` loop.

    Buffer naming matches
    :func:`repro.mpi.verify.contracts.alltoallv_contract`: rank ``r``
    sends from ``out0..out{n-1}`` and receives into ``in0..in{n-1}``
    (``in{s}`` holding rank ``s``'s payload).
    """
    n = len(counts)
    if any(len(row) != n for row in counts):
        raise ValueError("counts must be a square n_ranks x n_ranks matrix")
    b = ScheduleBuilder(n, name=f"alltoallv(n={n})", itemsize=itemsize)
    for rank in range(n):
        b.reduce_local(
            rank, 0, counts[rank][rank], 0, counts[rank][rank],
            buf=f"in{rank}", src_buf=f"out{rank}", note="local block",
        )
        for offset in range(1, n):
            dst = (rank + offset) % n
            b.send(
                rank, dst, "a2a", 0, counts[rank][dst],
                buf=f"out{dst}", note=f"block for {dst}",
            )
        prev: int | None = None
        for offset in range(1, n):
            src = (rank - offset) % n
            prev = b.copy(
                rank, src, "a2a", 0, counts[src][rank],
                buf=f"in{src}", deps=prev, note=f"block from {src}",
            )
    return b.build()
