"""The guarded-allreduce attempt of fleet jobs sharing one live engine.

A fleet job is *one process among many* on the shared cluster engine, so
it runs the shared guard (:func:`repro.mpi.guard.guard`) with ``yield
from`` inside its own process — through the trainer's audited reduce
loop — instead of driving a private engine.  This module supplies the
fleet's attempt, which differs from the private one of
:func:`~repro.mpi.schedule.run_guarded` in four ways (DESIGN §4h):
pending victims (dead nodes, controlled shrinks, drains) are absorbed
before each launch; retry backoff is slept in shared simulated time;
a failed attempt is abandoned by interrupting its strands only; and each
attempt carries its own ``(job, iteration, sequence)`` wire tag, so a
stale message from an abandoned attempt can never satisfy a retry's recv.
Any interrupt other than ``RankFailure`` (a preemption) abandons the
attempt and propagates to the job program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.schedule import ExecutorAttempt
from repro.mpi.world import Communicator
from repro.sim.engine import Event

if TYPE_CHECKING:  # circular at runtime: jobs imports this module
    from repro.fleet.cluster import SharedCluster
    from repro.fleet.jobs import FleetJob

__all__ = ["FleetAttempt", "JobLost"]


class JobLost(RuntimeError):
    """A job ran out of live learners and must requeue from checkpoint."""

    def __init__(self, job_name: str, detail: str):
        super().__init__(f"job {job_name!r} lost all learners: {detail}")
        self.job_name = job_name
        self.detail = detail


class _Abandoned(Exception):
    """Interrupt cause delivered to a doomed attempt's strands."""


class FleetAttempt(ExecutorAttempt):
    """An allreduce attempt over the job's live slots on the shared world."""

    sleeps_backoff = True

    def __init__(
        self, cluster: SharedCluster, job: FleetJob, grads: list[np.ndarray]
    ) -> None:
        super().__init__(
            ALLREDUCE_COMPILERS[job.spec.reducer],
            [ArrayBuffer(g.copy()) for g in grads],
            iteration=job.trainer.iteration,
        )
        self.cluster = cluster
        self.job = job

    def next_victim(self) -> int | None:
        victim = self.job.next_victim()
        if victim is not None and self.size <= 1:
            raise JobLost(self.job.spec.name, "last learner's node died")
        return victim

    def drop(self, rank: int) -> None:
        super().drop(rank)
        self.job.drop_slot(rank)

    def launch(self) -> Event:
        comm = Communicator(self.cluster.world, list(self.job.placement))
        self.tag = (self.job.spec.name, self.iteration, self.job.next_collective_seq())
        done = self.execute(comm)
        self.job.active_executor = self.executor
        return done

    def rollback(self) -> None:
        # Interrupt the *strands*: each rank proxy still waiting then dies
        # of its inner AllOf's failure, so every failure along the chain is
        # defused by its consumer (a proxy a node kill already interrupted
        # pre-defused its AllOf).
        for strand in self.executor.strands:
            if strand.is_alive:
                strand.interrupt(_Abandoned())
        self.job.active_executor = None
        super().rollback()

    def commit(self) -> list[ArrayBuffer]:
        self.job.active_executor = None
        return self.buffers
