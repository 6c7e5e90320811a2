"""Postcondition contracts for the semantic verification pass.

A :class:`Contract` declares, per rank, which named buffers a schedule
operates on, what abstract value each buffer element starts with, and
what multiset of *rank contributions* each element must hold when the
schedule completes.  The abstract value of one element is a multiset of
contribution tokens in *offset form*: the token ``(origin_rank,
origin_buf, d)`` held by element ``i`` stands for origin index ``i + d``.
Every shipped contract is index-uniform in that form — element ``i``
starts with ``{(rank, buf, 0): 1}`` ("my own value") rather than
``{(rank, buf, i): 1}`` — so one multiset describes a whole buffer and
the semantic interpreter can move runs of elements at once.

Shipped contracts:

* :func:`allreduce_contract` — every rank ends with exactly one
  contribution from every rank at every element index;
* :func:`reduce_contract` — the root ends with the full multiset; other
  ranks are unconstrained (like MPI, only the root's result is defined);
* :func:`broadcast_contract` — every rank ends with exactly the root's
  original element;
* :func:`barrier_contract` — no data buffers at all (the schedule only
  moves zero-byte tokens);
* :func:`alltoallv_contract` — rank ``r``'s ``in{s}`` buffer ends with
  exactly rank ``s``'s original ``out{r}`` buffer;
* :func:`train_step_contract` — one unified training step over staged
  buffers: the backward pass moves ``local`` gradients into ``grad``,
  the allreduce fills every ``grad`` element with the full multiset, and
  the optimizer writes the fully-reduced values into ``update``.

Every factory rejects arguments that would describe no real collective
(``n_ranks < 1``, a negative count, a root outside ``[0, n_ranks)``, a
ragged or negative alltoallv matrix) with :class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Contract",
    "allreduce_contract",
    "alltoallv_contract",
    "barrier_contract",
    "broadcast_contract",
    "reduce_contract",
    "train_step_contract",
]

#: One rank-contribution: (origin rank, origin buffer name, index offset).
Token = tuple[int, str, int]
#: Abstract value of one buffer element: contribution token -> multiplicity.
Multiset = dict[Token, int]


@dataclass(frozen=True)
class Contract:
    """Buffers, initial abstract state and postcondition of a collective.

    ``buffers(rank)`` maps buffer name -> element count for that rank.
    ``initial(rank, buf)`` returns the offset-form multiset every element
    of the buffer starts with.  ``expected(rank, buf)`` returns the
    offset-form multiset every element must end with, or ``None`` when
    the buffer's final value is unconstrained.
    """

    name: str
    n_ranks: int
    buffers: Callable[[int], dict[str, int]]
    initial: Callable[[int, str], Multiset]
    expected: Callable[[int, str], Multiset | None]


def _check(n_ranks: int, count: int = 0, root: int = 0) -> None:
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= root < n_ranks:
        raise ValueError(f"root {root} out of range [0, {n_ranks})")


def _own_element(rank: int, buf: str) -> Multiset:
    return {(rank, buf, 0): 1}


def _full(n_ranks: int, buf: str) -> Multiset:
    return {(r, buf, 0): 1 for r in range(n_ranks)}


def allreduce_contract(n_ranks: int, count: int) -> Contract:
    """Every rank ends with one contribution from every rank, elementwise."""
    _check(n_ranks, count)
    full = _full(n_ranks, "data")
    return Contract(
        name="allreduce",
        n_ranks=n_ranks,
        buffers=lambda rank: {"data": count},
        initial=_own_element,
        expected=lambda rank, buf: full,
    )


def reduce_contract(n_ranks: int, count: int, *, root: int = 0) -> Contract:
    """The root ends with the full sum; other ranks are undefined (MPI)."""
    _check(n_ranks, count, root)
    full = _full(n_ranks, "data")
    return Contract(
        name=f"reduce(root={root})",
        n_ranks=n_ranks,
        buffers=lambda rank: {"data": count},
        initial=_own_element,
        expected=lambda rank, buf: full if rank == root else None,
    )


def broadcast_contract(n_ranks: int, count: int, *, root: int = 0) -> Contract:
    """Every rank ends with exactly the root's original element."""
    _check(n_ranks, count, root)
    return Contract(
        name=f"broadcast(root={root})",
        n_ranks=n_ranks,
        buffers=lambda rank: {"data": count},
        initial=_own_element,
        expected=lambda rank, buf: {(root, "data", 0): 1},
    )


def barrier_contract(n_ranks: int) -> Contract:
    """No data buffers: the schedule may only move zero-byte tokens."""
    _check(n_ranks)
    return Contract(
        name="barrier",
        n_ranks=n_ranks,
        buffers=lambda rank: {},
        initial=_own_element,  # unreachable: no buffers declared
        expected=lambda rank, buf: None,
    )


def train_step_contract(n_ranks: int, count: int) -> Contract:
    """One unified training step over staged buffers.

    ``local`` holds each rank's own backward-pass gradient (one own token
    per element); ``grad`` is the communication buffer the backward pass
    stages into and the allreduce runs over; ``update`` receives the
    optimizer's output.  Postcondition: every ``grad`` *and* ``update``
    element carries exactly one ``local`` contribution from every rank —
    i.e. the optimizer consumed a fully-reduced gradient.  ``local`` is
    unconstrained (it may be consumed in place).

    The semantic pass additionally checks the ``grad`` expectation at the
    moment each :class:`~repro.mpi.schedule.OptimStep` *reads* it
    (``unreduced-optim-read``), which is strictly stronger than the final
    state check alone.
    """
    _check(n_ranks, count)
    full = _full(n_ranks, "local")

    def initial(rank: int, buf: str) -> Multiset:
        if buf == "local":
            return {(rank, "local", 0): 1}
        return {}

    return Contract(
        name="train-step",
        n_ranks=n_ranks,
        buffers=lambda rank: {"local": count, "grad": count, "update": count},
        initial=initial,
        expected=lambda rank, buf: None if buf == "local" else full,
    )


def alltoallv_contract(counts: tuple[tuple[int, ...], ...]) -> Contract:
    """Rank ``r`` ends with ``in{s}`` == rank ``s``'s original ``out{r}``.

    ``counts[s][d]`` is the element count rank ``s`` sends to rank ``d``;
    the matrix must be square with non-negative entries.  Receive buffers
    start *empty* (they are pure landing zones — the compiled schedule
    overwrites or fills them, so their prior content must never leak into
    the result).
    """
    n = len(counts)
    _check(n)
    for s, row in enumerate(counts):
        if len(row) != n:
            raise ValueError(
                f"alltoallv counts must be square: row {s} has {len(row)} "
                f"entries for {n} ranks"
            )
        for d, c in enumerate(row):
            if c < 0:
                raise ValueError(f"alltoallv count [{s}][{d}] is negative: {c}")

    def buffers(rank: int) -> dict[str, int]:
        out = {f"out{d}": counts[rank][d] for d in range(n)}
        out.update({f"in{s}": counts[s][rank] for s in range(n)})
        return out

    def initial(rank: int, buf: str) -> Multiset:
        if buf.startswith("in"):
            return {}
        return {(rank, buf, 0): 1}

    def expected(rank: int, buf: str) -> Multiset | None:
        if not buf.startswith("in"):
            return None  # send buffers may be consumed in place
        return {(int(buf[2:]), f"out{rank}", 0): 1}

    return Contract(
        name="alltoallv",
        n_ranks=n,
        buffers=buffers,
        initial=initial,
        expected=expected,
    )
