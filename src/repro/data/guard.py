"""Guarded execution for the distributed shuffle (data-plane fault tolerance).

:func:`run_shuffle_guarded` binds a shuffle attempt to the shared guard
(:func:`repro.mpi.guard.guard`): it runs one transactional shuffle round
under the watchdog, rolls every store back to its pre-shuffle snapshot
on any fault, and either retries (transient: lost/delayed/corrupted
messages) or surgically repairs around a permanent rank loss by dealing
the victim's partition to the survivors and re-running the round over the
survivor group.  Because the re-run draws its randomness from the same
``(seed, round_id)`` and the dealing policy is shared with the trainer's
elastic shrink (:func:`repro.data.dimd.deal_records`), a repaired shuffle
is bit-identical to a fault-free shuffle over the same survivor group.

Failure attribution mirrors the executor layer: :func:`diagnose_shuffle`
turns the :class:`~repro.data.shuffle.ShuffleProgress` bookkeeping into a
:class:`~repro.mpi.schedule.FailureDiagnosis` naming the suspected victim
rank/link, distinguishing a payload lost on the wire (matching send was
posted) from a rank that went silent (cascade of blocked receives traced
to its root).  CRC failures get their own ``"corruption"`` diagnosis that
names the corrupting sender directly from the raised
:class:`~repro.data.integrity.ShuffleIntegrityError`.
"""

from __future__ import annotations

from repro.data.dimd import DIMDStore, deal_records
from repro.data.integrity import ShuffleIntegrityError
from repro.data.shuffle import (
    MPI_OFFSET_LIMIT,
    ShuffleProgress,
    ShuffleReport,
    distributed_shuffle,
)
from repro.mpi.guard import Attempt, CollectiveTelemetry, RetryPolicy, drive, guard
from repro.mpi.runner import build_world
from repro.mpi.schedule import FailureDiagnosis, StalledStep, attribute_stall
from repro.sim.engine import Event
from repro.utils.rng import rng_for

__all__ = ["diagnose_shuffle", "run_shuffle_guarded"]


def _steps_total(progress: ShuffleProgress) -> tuple[int, ...]:
    """Message steps each rank has done plus one pending unless finished."""
    return tuple(
        done + (0 if fin else 1)
        for done, fin in zip(progress.steps_done, progress.finished)
    )


def diagnose_shuffle(progress: ShuffleProgress, now: float) -> FailureDiagnosis:
    """Attribute a stalled shuffle attempt from its progress bookkeeping.

    The attribution walk of :func:`repro.mpi.schedule.diagnose_execution`
    (:func:`~repro.mpi.schedule.attribute_stall`) at message granularity:
    each rank's blocked receive, oldest first, is the evidence; one whose
    matching send was posted is ``"message-loss"`` on that wire, otherwise
    the chain of blocked receives is walked backwards to the rank that
    stopped making progress without waiting on anyone (``"silent-rank"``),
    or to a cycle.
    """
    steps_done = progress.steps_done
    blocked: list[StalledStep] = []
    for rank in sorted(progress.waiting):
        src, key, since = progress.waiting[rank]
        blocked.append(
            StalledStep(
                rank=rank,
                sid=steps_done[rank],
                kind="ShuffleRecv",
                waiting_on=src,
                note=str(key),
                since=since,
                waited=now - since,
                overdue=now - since,
            )
        )
    blocked.sort(key=lambda s: (s.since, s.rank))
    return attribute_stall(
        blocked,
        blocked,
        lambda s: progress.waiting[s.rank][1] in progress.sends,
        now=now,
        n_ranks=progress.n_ranks,
        steps_done=tuple(steps_done),
        steps_total=_steps_total(progress),
    )


def _corruption_diagnosis(
    progress: ShuffleProgress, exc: ShuffleIntegrityError, now: float
) -> FailureDiagnosis:
    link = None
    if exc.suspect is not None and exc.detected_by is not None:
        link = (exc.suspect, exc.detected_by)
    return FailureDiagnosis(
        now=now,
        n_ranks=progress.n_ranks,
        steps_done=tuple(progress.steps_done),
        steps_total=_steps_total(progress),
        stalled=(),
        cause="corruption",
        suspect_rank=exc.suspect,
        suspect_link=link,
    )


class _ShuffleAttempt(Attempt[list[ShuffleReport]]):
    """One transactional shuffle round on a fresh private world.

    Rollback undoes the round on every store (including ranks that had
    already committed); dropping a victim deals its rolled-back partition
    to the survivors, so the re-run starts from pristine post-deal state.
    """

    def __init__(
        self, stores, *, seed, round_id, topology, max_chunk_bytes, tag,
        fault_injector, iteration,
    ):
        super().__init__(fault_injector=fault_injector, iteration=iteration)
        self.stores = list(stores)
        self.seed = seed
        self.round_id = round_id
        self.topology = topology
        self.max_chunk_bytes = max_chunk_bytes
        self.tag = tag

    @property
    def size(self) -> int:
        return len(self.stores)

    def drop(self, rank: int) -> None:
        deal_records(self.stores.pop(rank), self.stores)

    def solo(self) -> list[ShuffleReport]:
        store = self.stores[0]
        store.local_permute(rng_for(self.seed, "perm", self.round_id, 0))
        return [ShuffleReport(0.0, 0.0, store.nbytes, 1)]

    def launch(self) -> Event:
        for s in self.stores:
            s.begin_shuffle(self.round_id)
        self.engine, world, comm = build_world(self.size, topology=self.topology)
        self.progress = ShuffleProgress(self.size)
        self.procs = [
            self.engine.process(
                distributed_shuffle(
                    comm,
                    r,
                    store,
                    seed=self.seed,
                    round_id=self.round_id,
                    max_chunk_bytes=self.max_chunk_bytes,
                    tag=self.tag,
                    progress=self.progress,
                ),
                name=f"shuffle{r}",
            )
            for r, store in enumerate(self.stores)
        ]
        done = self.engine.all_of(self.procs)
        self.arm(self.engine, world, self.procs)
        return done

    def diagnose(self, failure: Exception | None) -> FailureDiagnosis | None:
        if failure is None:
            return diagnose_shuffle(self.progress, self.engine.now)
        if isinstance(failure, ShuffleIntegrityError):
            return _corruption_diagnosis(self.progress, failure, self.engine.now)
        return None

    def rollback(self) -> None:
        for s in self.stores:
            s.rollback_shuffle(self.round_id)

    def commit(self) -> list[ShuffleReport]:
        for s in self.stores:
            s.finalize_shuffle(self.round_id)
        return [p.value for p in self.procs]


def run_shuffle_guarded(
    stores: list[DIMDStore],
    *,
    retry: RetryPolicy,
    seed: int = 0,
    round_id: int = 0,
    topology: str = "star",
    max_chunk_bytes: int = MPI_OFFSET_LIMIT,
    tag: object = None,
    fault_injector=None,
    iteration: int = 0,
    telemetry: CollectiveTelemetry | None = None,
) -> tuple[list[ShuffleReport], CollectiveTelemetry]:
    """Run one shuffle round to completion under watchdog/retry/repair.

    Transient faults (lost, delayed or corrupted messages) roll the round
    back and retry under ``retry``; a corrupted payload is diagnosed as
    ``"corruption"`` naming the sender.  A surgically repaired victim's
    records are dealt to the survivors, and the group-rank of every repair
    is appended to ``telemetry.repaired_ranks`` in order, so callers can
    replay the pops against their own slot bookkeeping — the
    :func:`~repro.mpi.schedule.run_guarded` contract.  Returns
    ``(reports, telemetry)`` with one
    :class:`~repro.data.shuffle.ShuffleReport` per surviving rank.
    """
    telemetry = telemetry if telemetry is not None else CollectiveTelemetry()
    attempt = _ShuffleAttempt(
        stores, seed=seed, round_id=round_id, topology=topology,
        max_chunk_bytes=max_chunk_bytes, tag=tag,
        fault_injector=fault_injector, iteration=iteration,
    )
    return drive(guard(attempt, retry, telemetry)), telemetry
