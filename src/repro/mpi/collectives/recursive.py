"""Recursive-doubling and Rabenseifner (halving/doubling) allreduce.

:func:`compile_recursive_doubling` exchanges the *full* payload in each of
``log2 N`` rounds — latency-optimal but bandwidth-poor (``log2(N) * n``
bytes per rank).  Untuned OpenMPI falls back to this basic algorithm, which
is why the paper's Figure 5/6 "default OpenMPI" curve trails both the ring
and the multi-color algorithm at gradient-sized payloads; we therefore use
it as the *default OpenMPI* model (see :data:`..ALLREDUCE_COMPILERS`).

:func:`compile_rabenseifner` is the tuned MPICH/OpenMPI large-message
algorithm (recursive *halving* reduce-scatter followed by recursive
doubling allgather, ``2 n (N-1)/N`` bytes per rank).

Both handle non-power-of-two sizes with the classical fold: the first
``2 r`` ranks (``r = N - 2^⌊log2 N⌋``) pre-combine pairwise so a
power-of-two set of survivors runs the core exchange, then results are
copied back to the folded ranks.  The compilers emit the fold prelude, the
core exchange rounds, and the unfold postlude as one per-rank step chain.
"""

from __future__ import annotations

from repro.mpi.datatypes import chunk_ranges
from repro.mpi.schedule import Schedule, ScheduleBuilder, memoize_compiler

__all__ = [
    "compile_recursive_doubling",
    "compile_rabenseifner",
]


def _pow2_below(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def _survivor_to_world(new_rank: int, n: int) -> int:
    """Inverse of the survivor numbering in the fold prelude."""
    p = _pow2_below(n)
    r = n - p
    if new_rank < r:
        return 2 * new_rank + 1
    return new_rank + r


def _survivor_of(rank: int, n: int) -> int | None:
    """Survivor number of ``rank`` after the fold, or None if folded out.

    With ``r = N - 2^⌊log2 N⌋``: even ranks ``< 2r`` ship their payload to
    the odd neighbour and drop out; odd ranks ``< 2r`` absorb it (becoming
    survivor ``rank // 2``); ranks ``>= 2r`` become ``rank - r``.
    """
    r = n - _pow2_below(n)
    if rank < 2 * r:
        return None if rank % 2 == 0 else rank // 2
    return rank - r


def _emit_fold_prelude(b: ScheduleBuilder, count: int, prev: list[int | None]) -> None:
    """Pre-combine the remainder ranks pairwise (chains into ``prev``)."""
    n = b.n_ranks
    r = n - _pow2_below(n)
    for rank in range(2 * r):
        if rank % 2 == 0:
            prev[rank] = b.send(
                rank, rank + 1, ("fold",), 0, count, deps=prev[rank], note="fold"
            )
        else:
            prev[rank] = b.recv_reduce(
                rank, rank - 1, ("fold",), 0, count, deps=prev[rank], note="fold"
            )


def _emit_fold_postlude(b: ScheduleBuilder, count: int, prev: list[int | None]) -> None:
    """Deliver the final result back to the folded-out even ranks."""
    n = b.n_ranks
    r = n - _pow2_below(n)
    for rank in range(2 * r):
        if rank % 2 == 0:
            prev[rank] = b.copy(
                rank, rank + 1, ("unfold",), 0, count, deps=prev[rank], note="unfold"
            )
        else:
            prev[rank] = b.send(
                rank, rank - 1, ("unfold",), 0, count, deps=prev[rank], note="unfold"
            )


@memoize_compiler
def compile_recursive_doubling(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    segment_bytes: int | None = None,  # accepted for API uniformity; unused
) -> Schedule:
    """Compile recursive-doubling allreduce (full payload per round)."""
    b = ScheduleBuilder(
        n_ranks, name=f"recursive_doubling(n={n_ranks})",
        count=count, itemsize=itemsize,
    )
    if n_ranks == 1:
        return b.build()
    prev: list[int | None] = [None] * n_ranks
    _emit_fold_prelude(b, count, prev)
    p = _pow2_below(n_ranks)
    for rank in range(n_ranks):
        new_rank = _survivor_of(rank, n_ranks)
        if new_rank is None:
            continue
        mask = 1
        round_no = 0
        while mask < p:
            partner = _survivor_to_world(new_rank ^ mask, n_ranks)
            note = f"round {round_no}"
            prev[rank] = b.send(
                rank, partner, ("rd", round_no), 0, count,
                deps=prev[rank], note=note,
            )
            prev[rank] = b.recv_reduce(
                rank, partner, ("rd", round_no), 0, count,
                deps=prev[rank], note=note,
            )
            mask <<= 1
            round_no += 1
    _emit_fold_postlude(b, count, prev)
    return b.build()


@memoize_compiler
def compile_rabenseifner(
    n_ranks: int,
    count: int,
    itemsize: int,
    *,
    segment_bytes: int | None = None,  # accepted for API uniformity; unused
) -> Schedule:
    """Compile recursive halving reduce-scatter + doubling allgather."""
    b = ScheduleBuilder(
        n_ranks, name=f"rabenseifner(n={n_ranks})",
        count=count, itemsize=itemsize,
    )
    if n_ranks == 1:
        return b.build()
    prev: list[int | None] = [None] * n_ranks
    _emit_fold_prelude(b, count, prev)
    p = _pow2_below(n_ranks)
    chunks = chunk_ranges(count, p)

    def span(lo_chunk: int, hi_chunk: int) -> tuple[int, int]:
        return chunks[lo_chunk][0], chunks[hi_chunk - 1][1]

    for rank in range(n_ranks):
        new_rank = _survivor_of(rank, n_ranks)
        if new_rank is None:
            continue
        # Recursive halving reduce-scatter: each round exchanges half of the
        # currently-owned span with the partner and keeps the other half.
        lo_chunk, hi_chunk = 0, p
        mask = p // 2
        round_no = 0
        while mask >= 1:
            partner = _survivor_to_world(new_rank ^ mask, n_ranks)
            mid = (lo_chunk + hi_chunk) // 2
            if new_rank & mask:
                send_lo, send_hi = span(lo_chunk, mid)
                keep_lo, keep_hi = span(mid, hi_chunk)
                lo_chunk = mid
            else:
                send_lo, send_hi = span(mid, hi_chunk)
                keep_lo, keep_hi = span(lo_chunk, mid)
                hi_chunk = mid
            note = f"halve {round_no}"
            prev[rank] = b.send(
                rank, partner, ("rh", round_no), send_lo, send_hi,
                deps=prev[rank], note=note,
            )
            prev[rank] = b.recv_reduce(
                rank, partner, ("rh", round_no), keep_lo, keep_hi,
                deps=prev[rank], note=note,
            )
            mask >>= 1
            round_no += 1
        # Recursive doubling allgather: widen the owned span back out.
        mask = 1
        while mask < p:
            partner = _survivor_to_world(new_rank ^ mask, n_ranks)
            width = hi_chunk - lo_chunk
            if new_rank & mask:
                other_lo, other_hi = lo_chunk - width, lo_chunk
            else:
                other_lo, other_hi = hi_chunk, hi_chunk + width
            note = f"gather x{mask}"
            prev[rank] = b.send(
                rank, partner, ("ag2", mask), *span(lo_chunk, hi_chunk),
                deps=prev[rank], note=note,
            )
            prev[rank] = b.copy(
                rank, partner, ("ag2", mask), *span(other_lo, other_hi),
                deps=prev[rank], note=note,
            )
            lo_chunk = min(lo_chunk, other_lo)
            hi_chunk = max(hi_chunk, other_hi)
            mask <<= 1
    _emit_fold_postlude(b, count, prev)
    return b.build()
