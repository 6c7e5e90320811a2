"""Fleet jobs: specs, runtime state and the per-job training program.

A :class:`FleetJob` wraps one :class:`DistributedSGDTrainer` whose
compute/apply halves run as a generator process on the shared cluster
engine; the gradient sum goes through the trainer's audited reduce loop
(:meth:`~repro.train.distributed.DistributedSGDTrainer.audited_reduce`)
over a :class:`~repro.fleet.collective.FleetAttempt`, so every job
independently gets the shared guard's watchdog + surgical-repair
semantics (:mod:`repro.mpi.guard`) and the SDC audit while contending
with its neighbours for links and CPUs.

Fault and preemption semantics:

* a **node death** reaches the job either as a mid-collective
  ``Interrupt(RankFailure)`` (the scheduler kills the victim's rank
  proxy) or, between collectives, through the pending-victim scan at the
  next attempt launch — both funnel into the same elastic shrink;
* a **preemption** is a *controlled* fault: the job checkpoints
  (``TrainerCheckpoint`` capture plus a simulated write window), releases
  every slot and requeues; restore is bit-exact, so a preempted job's
  final params equal an uninterrupted run's;
* **shrink-mode preemption** instead surrenders one learner at the next
  collective boundary (same pending-victim path, but the slot's node is
  alive, so the freed slot backfills immediately);
* a **total loss** (:class:`JobLost`) requeues from the last periodic
  checkpoint (or from scratch if none was taken yet).

For bit-exactness audits the job keeps ``shrink_log`` and ``grow_log``:
the ``(iteration, slot)`` histories of its *current lineage*.  A
checkpoint stores both logs alongside the trainer state; restoring rolls
them back with it, so the logs always script exactly the shrinks and
grows a fault-free reference run must replay (see
``JobSpec.scripted_shrinks`` / ``scripted_grows``) to land on identical
weights.

Elastic grow (the inverse of the shrink): when the scheduler grants a
freed slot to a shrunk job (node revival, a neighbour finishing, a
proactive drain's replacement), the grant is *ledgered immediately* —
the slot is allocated at grant time, so it can never be double-granted —
and the learner joins at the job's next iteration boundary: the trainer
re-deals a share of the survivors' DIMD records to the newcomer, seeds
its replicas from the live weights and rescales the LR schedule back up
(:meth:`~repro.train.distributed.DistributedSGDTrainer.grow_learner`).
A granted node that dies before the boundary is revoked, never joined.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.fleet import control
from repro.fleet.collective import FleetAttempt
from repro.fleet.control import Job
from repro.mpi.guard import CollectiveTelemetry, RetryPolicy
from repro.sim.engine import Event, Interrupt, Process

if TYPE_CHECKING:  # circular at runtime: scheduler imports this module
    from repro.fleet.cluster import SharedCluster
    from repro.fleet.scheduler import FleetScheduler
from repro.train.checkpoint import TrainerCheckpoint
from repro.train.distributed import DistributedSGDTrainer
from repro.train.sdc import flip_bit
from repro.train.tiny import build_tiny_trainer, tiny_net_factory

__all__ = [
    "JobSpec",
    "FleetJob",
    "PreemptionNotice",
    "validate_scripted_lineage",
]

#: Terminal job states (the no-lost-no-duplicated invariant counts these).
TERMINAL = ("finished", "failed", "rejected")


class PreemptionNotice(Exception):
    """Interrupt cause asking a job to checkpoint and yield its slots."""


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)create one job deterministically."""

    name: str
    n_learners: int = 2
    n_steps: int = 5
    arrival: float = 0.0
    priority: int = 0
    seed: int = 0
    compute_time: float = 2e-4
    records_per_learner: int = 24
    n_classes: int = 3
    batch_per_gpu: int = 4
    reducer: str = "multicolor"
    #: Watchdog, retry budget and backoff of every job collective.
    retry: RetryPolicy = RetryPolicy(timeout=5.0, max_retries=2, backoff=0.05)
    checkpoint_every: int = 2
    checkpoint_time: float = 1e-3
    preemption: str = "requeue"  # "requeue" | "shrink"
    #: Opt-in elastic grow: a shrunk job reclaims learners when the
    #: scheduler has slots to spare (back up to ``n_learners``).
    elastic_grow: bool = False
    #: Controlled shrinks a fault-free reference run replays to mirror a
    #: faulted run's lineage: ``((iteration, slot), ...)`` applied between
    #: gradient compute and the collective of that iteration.
    scripted_shrinks: tuple[tuple[int, int], ...] = ()
    #: Controlled grows the reference run replays: ``((iteration, slot),
    #: ...)`` applied at the *top* of that iteration, before gradient
    #: compute (slot is the appended index, i.e. the live count before
    #: the grow).
    scripted_grows: tuple[tuple[int, int], ...] = ()
    #: Audit every collective boundary for silent data corruption
    #: (:mod:`repro.train.sdc`) over this many gradient buckets per
    #: learner; ``None`` turns the audit off.  Pure bookkeeping, so a
    #: clean run's fleet event log is byte-identical with it on or off.
    sdc_buckets: int | None = None
    #: SDC injections: ``((iteration, slot, bucket), ...)`` — flip one bit
    #: of that slot's gradient bucket between backward and the collective.
    sdc_faults: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n_learners < 1 or self.n_steps < 1:
            raise ValueError("n_learners and n_steps must be >= 1")
        for name in ("arrival", "compute_time", "checkpoint_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.preemption not in ("requeue", "shrink"):
            raise ValueError(f"unknown preemption mode {self.preemption!r}")
        validate_scripted_lineage(
            self.n_learners, self.n_steps,
            self.scripted_shrinks, self.scripted_grows,
        )
        if self.sdc_buckets is not None and self.sdc_buckets < 1:
            raise ValueError("sdc_buckets must be >= 1")
        if self.sdc_faults and self.sdc_buckets is None:
            raise ValueError(
                "sdc_faults without sdc_buckets would poison training "
                "undetected"
            )
        for iteration, slot, bucket in self.sdc_faults:
            if not 0 <= iteration < self.n_steps:
                raise ValueError(
                    f"sdc fault at iteration {iteration} outside "
                    f"[0, {self.n_steps})"
                )
            if slot < 0:
                raise ValueError(f"sdc fault slot must be >= 0, got {slot}")
            if not 0 <= bucket < self.sdc_buckets:
                raise ValueError(
                    f"sdc fault bucket {bucket} outside "
                    f"[0, {self.sdc_buckets})"
                )


def validate_scripted_lineage(
    n_learners: int,
    n_steps: int,
    shrinks: tuple[tuple[int, int], ...],
    grows: tuple[tuple[int, int], ...],
) -> None:
    """Reject an unreplayable script at construction, not mid-replay.

    Replays a merged timeline of the scripted shrinks and grows (grows
    apply at the top of their iteration, shrinks after that iteration's
    gradient compute) over a live-learner counter and raises
    ``ValueError`` on the first entry that could not happen: iterations
    must be non-decreasing within each log and inside ``[0, n_steps)``, a
    shrink slot must name a live learner and may never drop the last one,
    and a grow slot must equal the live count at its boundary (grown
    learners are always appended).
    """
    for name, log in (("scripted_shrinks", shrinks), ("scripted_grows", grows)):
        iterations = [it for it, _slot in log]
        if iterations != sorted(iterations):
            raise ValueError(
                f"{name} iterations must be non-decreasing, got {iterations}"
            )
    merged = sorted(
        [(it, 0, slot) for it, slot in grows]
        + [(it, 1, slot) for it, slot in shrinks],
        key=lambda e: (e[0], e[1]),
    )
    live = n_learners
    for iteration, phase, slot in merged:
        kind = "grow" if phase == 0 else "shrink"
        if not 0 <= iteration < n_steps:
            raise ValueError(
                f"scripted {kind} at iteration {iteration} outside "
                f"[0, {n_steps})"
            )
        if phase == 0:
            if slot != live:
                raise ValueError(
                    f"scripted grow ({iteration}, {slot}): grown learners "
                    f"append at the end, expected slot {live}"
                )
            live += 1
        else:
            if live <= 1:
                raise ValueError(
                    f"scripted shrink ({iteration}, {slot}) would drop the "
                    "last learner"
                )
            if not 0 <= slot < live:
                raise ValueError(
                    f"scripted shrink ({iteration}, {slot}): slot outside "
                    f"[0, {live})"
                )
            live -= 1


@dataclass
class JobTelemetry:
    """Per-job fleet metrics, in simulated seconds."""

    submitted: float = 0.0
    first_start: float | None = None
    finished: float | None = None
    queue_wait: float = 0.0
    steps: int = 0
    retries: int = 0
    backoff: float = 0.0
    preemptions: int = 0
    checkpoints: int = 0
    grows: int = 0
    migrations: int = 0
    #: Node-slot-seconds spent making forward progress (steps that landed).
    goodput_node_seconds: float = 0.0


class FleetJob(Job):
    """One job: its control state (:class:`~repro.fleet.control.Job`,
    mutated only by :mod:`repro.fleet.control`) plus the engine side —
    spec, trainer, program process, telemetry."""

    def __init__(self, spec: JobSpec):
        super().__init__(
            spec.name, spec.priority, spec.n_learners, spec.elastic_grow,
            spec.preemption,
        )
        self.spec = spec
        self.trainer: DistributedSGDTrainer | None = None
        self.proc: Process | None = None
        self.active_executor: Any = None
        self.telemetry = JobTelemetry()
        self.final_params: np.ndarray | None = None
        self.final_iteration = 0
        #: Why the program died (read when the scheduler logs the loss).
        self.error: Exception | None = None
        self._enqueued_at: float | None = None
        self._collective_seq = 0
        self._scripted: dict[int, list[int]] = {}
        for iteration, slot in spec.scripted_shrinks:
            self._scripted.setdefault(iteration, []).append(slot)
        self._scripted_grows: dict[int, list[int]] = {}
        for iteration, slot in spec.scripted_grows:
            self._scripted_grows.setdefault(iteration, []).append(slot)
        self._sdc_by_iter: dict[int, list[tuple[int, int]]] = {}
        for iteration, slot, bucket in spec.sdc_faults:
            self._sdc_by_iter.setdefault(iteration, []).append((slot, bucket))
        #: ``(iteration, slot, bucket)`` flips that actually fired — the
        #: chaos sweep checks every one of these produced a detection.
        self.sdc_injected: list[tuple[int, int, int]] = []

    # -- identity / bookkeeping --------------------------------------------
    def next_collective_seq(self) -> int:
        self._collective_seq += 1
        return self._collective_seq

    def learner_id(self, slot: int) -> int:
        assert self.trainer is not None
        return int(self.trainer.learner_ids[slot])

    def mark_enqueued(self, now: float) -> None:
        self._enqueued_at = now

    # -- control transitions (applied through the scheduler) ------------------
    def next_victim(self) -> int | None:
        return control.next_victim(self._scheduler.control, self)

    def drop_slot(self, slot: int) -> None:
        self._scheduler.apply(control.drop_slot, self, slot)

    def _absorb(self, slot: int) -> None:
        assert self.trainer is not None
        self._scheduler.apply(control.absorb, self, slot, self.trainer.iteration)

    def _quarantine(self, slot: int, detail: str) -> None:
        """Expel a learner the SDC audit named: book the strike against
        its node, shrink, then free the slot."""
        assert self.trainer is not None
        self._scheduler.apply(
            control.sdc, self, slot, self.trainer.iteration, detail
        )

    # -- engine side of control effects ---------------------------------------
    def launch(self, cluster: SharedCluster, scheduler: FleetScheduler) -> None:
        """Build (or restore) the trainer and spawn the training process."""
        self._cluster = cluster
        self._scheduler = scheduler
        now = cluster.engine.now
        if self._enqueued_at is not None:
            self.telemetry.queue_wait += now - self._enqueued_at
            self._enqueued_at = None
        if self.telemetry.first_start is None:
            self.telemetry.first_start = now
        spec = self.spec
        if self.saved is not None:
            self.trainer = DistributedSGDTrainer.from_checkpoint(
                self.saved[0], tiny_net_factory(spec.n_classes),
                sdc_buckets=spec.sdc_buckets,
            )
        else:
            self.trainer = build_tiny_trainer(
                spec.n_learners, spec.seed, n_classes=spec.n_classes,
                records_per_learner=spec.records_per_learner,
                batch_per_gpu=spec.batch_per_gpu, reducer=spec.reducer,
                reshuffle_on_shrink=False, sdc_buckets=spec.sdc_buckets,
            )
        self.proc = cluster.engine.process(self._program(), name=f"job:{self.name}")

    def grow_learner(self, nth: int) -> int:
        """Seed the lineage's ``nth`` grown learner; returns its slot."""
        assert self.trainer is not None
        self.telemetry.grows += 1
        return int(self.trainer.grow_learner(self.spec.n_learners + nth))

    def shrink_learner(self, slot: int) -> None:
        """Absorb a dropped learner into the trainer.

        Fleet shrinks never run the Algorithm 2 reshuffle, whatever the
        trainer's ``reshuffle_on_shrink``: the job's data plane only
        re-deals the lost learner's records.
        """
        assert self.trainer is not None
        self.trainer.absorb_failure(slot, reshuffle=False)

    # -- program -------------------------------------------------------------
    def _program(self) -> Iterator[Event]:
        engine = self._cluster.engine
        trainer = self.trainer
        assert trainer is not None
        spec = self.spec
        try:
            while trainer.iteration < spec.n_steps:
                step_start = engine.now
                try:
                    self._incorporate_grows()
                    yield engine.timeout(spec.compute_time)
                    grads, losses = trainer.step_compute()
                    grads = self._apply_scripted_shrinks(grads)
                    telemetry = CollectiveTelemetry()
                    buffers = yield from trainer.audited_reduce(
                        grads,
                        lambda live: FleetAttempt(self._cluster, self, live),
                        spec.retry,
                        telemetry,
                        inject=self._inject_sdc,
                        absorb=self._absorb,
                        quarantine=self._quarantine,
                    )
                    trainer.step_apply(buffers[0].array, len(buffers), losses)
                    self.telemetry.steps += 1
                    self.telemetry.retries += telemetry.retries
                    self.telemetry.backoff += telemetry.backoff
                    productive = max(
                        0.0, engine.now - step_start - telemetry.backoff
                    )
                    self.telemetry.goodput_node_seconds += (
                        productive * self.n_live
                    )
                    if (
                        spec.checkpoint_every
                        and trainer.iteration % spec.checkpoint_every == 0
                        and trainer.iteration < spec.n_steps
                    ):
                        yield from self._take_checkpoint(absorb_preempts=False)
                except Interrupt as exc:
                    if isinstance(exc.cause, PreemptionNotice):
                        yield from self._preempt_requeue()
                        return
                    raise
            self._finish()
        except Exception as exc:
            self._scheduler.on_job_error(self, exc)

    def _apply_scripted_shrinks(
        self, grads: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Replay a reference script's controlled shrinks for this step.

        Applied between gradient compute and the collective — exactly
        where a surgically-repaired crash removes the victim's
        contribution — so the scripted run's sums, LR rescales and record
        deals land identically to the faulted run's.
        """
        assert self.trainer is not None
        for slot in self._scripted.get(self.trainer.iteration, ()):
            del grads[slot]
            self._absorb(slot)
            self.drop_slot(slot)
        return grads

    def _inject_sdc(
        self, grads: list[np.ndarray], ranges: list[tuple[int, int]]
    ) -> None:
        """Fire this iteration's scripted SDC flips (mid-bucket bit 62).

        A slot whose learner is already gone (shrunk earlier in the
        lineage) is skipped — the fault targeted hardware that no longer
        hosts a learner of ours.
        """
        assert self.trainer is not None
        for slot, bucket in self._sdc_by_iter.get(self.trainer.iteration, ()):
            if slot >= len(grads):
                continue
            lo, hi = ranges[bucket]
            flip_bit(grads[slot], lo + (hi - lo) // 2)
            self.sdc_injected.append((self.trainer.iteration, slot, bucket))

    def _incorporate_grows(self) -> None:
        """Join scripted and granted learners at this iteration boundary.

        Runs at the *top* of the iteration, before gradient compute, so
        the newcomer contributes fully to this step — the ordering the
        scripted-lineage validator and the reference replay both assume.
        Pure Python state changes only (no engine events), so a job with
        no grants pays nothing.
        """
        assert self.trainer is not None
        iteration = self.trainer.iteration
        for _slot in self._scripted_grows.get(iteration, ()):
            self._scheduler.apply(control.grow_scripted, self, iteration)
        if self.pending_grows:
            self._scheduler.apply(control.join_grows, self, iteration)

    def _take_checkpoint(self, *, absorb_preempts: bool) -> Iterator[Event]:
        """Capture state, then pay the simulated write window.

        Capture is atomic (plain Python state), so a fault *during* the
        write window can neither tear the snapshot nor corrupt the
        previous one — interrupts here only re-run the remaining wait.
        The lineage cannot move during the window (only this job's own
        program shrinks or grows it), so the commit logs the captured
        lineage.  A preemption landing inside the window (the chaos
        sweep's preemption-during-checkpoint point) lets the write finish
        and commit first; with ``absorb_preempts=False`` it is then
        re-raised so the program's preemption path runs against the fresh
        save, with ``absorb_preempts=True`` (already preempting) it is
        dropped.
        """
        engine = self._cluster.engine
        self.status = "checkpointing"
        state = TrainerCheckpoint.capture(self.trainer)
        self.telemetry.checkpoints += 1
        end = engine.now + self.spec.checkpoint_time
        preempted = False
        while True:
            remaining = end - engine.now
            if remaining <= 0:
                break
            try:
                yield engine.timeout(remaining)
                break
            except Interrupt as exc:
                if isinstance(exc.cause, PreemptionNotice):
                    preempted = True
                    continue
                control.commit_checkpoint(self, state)
                self.status = "running"
                raise
        control.commit_checkpoint(self, state)
        self.status = "running"
        if preempted and not absorb_preempts:
            raise Interrupt(PreemptionNotice())

    def _preempt_requeue(self) -> Iterator[Event]:
        """Controlled preemption: checkpoint, release everything, requeue."""
        self.telemetry.preemptions += 1
        yield from self._take_checkpoint(absorb_preempts=True)
        self.teardown()
        self.mark_enqueued(self._cluster.engine.now)
        self._scheduler.apply(control.preempt_yield, self)

    def teardown(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
        self.trainer = None

    def _finish(self) -> None:
        assert self.trainer is not None
        self.final_params = self.trainer.params().copy()
        self.final_iteration = self.trainer.iteration
        self.teardown()
        self.telemetry.finished = self._cluster.engine.now
        self._scheduler.apply(control.finish, self)
