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

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fleet.collective import FleetAttempt
from repro.mpi.guard import CollectiveTelemetry, RetryPolicy
from repro.sim.engine import Event, Interrupt

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
    requeues: int = 0
    preemptions: int = 0
    checkpoints: int = 0
    grows: int = 0
    migrations: int = 0
    #: Node-slot-seconds spent making forward progress (steps that landed).
    goodput_node_seconds: float = 0.0


class FleetJob:
    """Runtime state of one job: placement, lineage, process handle."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.status = "pending"
        self.trainer: DistributedSGDTrainer | None = None
        #: World rank (= node index) of each live slot, group-rank order.
        self.placement: list[int] = []
        self.proc = None
        self.active_executor = None
        self.telemetry = JobTelemetry()
        self.shrink_log: list[tuple[int, int]] = []
        self.grow_log: list[tuple[int, int]] = []
        self.saved: tuple[TrainerCheckpoint, tuple, tuple] | None = None
        self.pending_shrinks = 0  # controlled (preemption) shrink requests
        self.preempt_pending = False
        #: Nodes granted by the scheduler (slots already allocated), to be
        #: incorporated as learners at the next iteration boundary.
        self.pending_grows: list[int] = []
        #: Nodes that died while hosting one of our slots — the victim
        #: scan keys on this, not on current liveness, so a revived
        #: (flapping) node can never resurrect a doomed learner.
        self.dead_nodes: set[int] = set()
        #: Nodes being drained under us: surrender that slot at the next
        #: collective boundary (the proactive-migration shrink half).
        self.pending_migrations: set[int] = set()
        self.final_params: np.ndarray | None = None
        self._enqueued_at: float | None = None
        self._collective_seq = 0
        self._scripted = {}
        for iteration, slot in spec.scripted_shrinks:
            self._scripted.setdefault(iteration, []).append(slot)
        self._scripted_grows = {}
        for iteration, slot in spec.scripted_grows:
            self._scripted_grows.setdefault(iteration, []).append(slot)
        self._sdc_by_iter: dict[int, list[tuple[int, int]]] = {}
        for iteration, slot, bucket in spec.sdc_faults:
            self._sdc_by_iter.setdefault(iteration, []).append((slot, bucket))
        #: ``(iteration, slot, bucket)`` flips that actually fired — the
        #: chaos sweep checks every one of these produced a detection.
        self.sdc_injected: list[tuple[int, int, int]] = []

    # -- identity / bookkeeping --------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_live(self) -> int:
        return len(self.placement)

    def learners_needed(self) -> int:
        """Gang size for the next (re)start."""
        if self.saved is not None:
            return len(self.saved[0].learner_ids)
        return self.spec.n_learners

    def placement_ranks(self) -> list[int]:
        return list(self.placement)

    def next_collective_seq(self) -> int:
        self._collective_seq += 1
        return self._collective_seq

    def learner_id(self, slot: int) -> int:
        return self.trainer.learner_ids[slot]

    # -- victim plumbing (called from the guarded collective) ---------------
    def next_victim(self) -> int | None:
        """Lowest slot whose node died, else a pending controlled shrink,
        else a slot being drained off a sick node (proactive migration)."""
        for slot, node_index in enumerate(self.placement):
            if (
                node_index in self.dead_nodes
                or not self._cluster.nodes[node_index].alive
            ):
                return slot
        if self.pending_shrinks > 0 and self.n_live > 1:
            self.pending_shrinks -= 1
            return self.n_live - 1
        if self.n_live > 1:
            for slot, node_index in enumerate(self.placement):
                if node_index in self.pending_migrations:
                    return slot
        return None

    def drop_slot(self, slot: int) -> None:
        """Forget a victim slot and return its allocation to the ledger."""
        node_index = self.placement.pop(slot)
        self.dead_nodes.discard(node_index)
        self.pending_migrations.discard(node_index)
        self._cluster.release(self.name, node_index)
        self._scheduler.on_slot_freed(self, node_index)

    def record_shrink(self, iteration: int, slot: int) -> None:
        self.shrink_log.append((iteration, slot))

    def record_grow(self, iteration: int, slot: int) -> None:
        self.grow_log.append((iteration, slot))

    # -- program -------------------------------------------------------------
    def start(
        self, cluster: SharedCluster, scheduler: FleetScheduler,
        placement: list[int],
    ) -> None:
        """Claim ``placement`` and spawn the training process."""
        self._cluster = cluster
        self._scheduler = scheduler
        now = cluster.engine.now
        if self._enqueued_at is not None:
            self.telemetry.queue_wait += now - self._enqueued_at
            self._enqueued_at = None
        if self.telemetry.first_start is None:
            self.telemetry.first_start = now
        for node_index in placement:
            cluster.allocate(self.name, node_index)
        self.placement = list(placement)
        if self.trainer is None:
            if self.saved is not None:
                ckpt, shrinks, grows = self.saved
                self.trainer = DistributedSGDTrainer.from_checkpoint(
                    ckpt, tiny_net_factory(self.spec.n_classes),
                    sdc_buckets=self.spec.sdc_buckets,
                )
                self.shrink_log = list(shrinks)
                self.grow_log = list(grows)
            else:
                spec = self.spec
                self.trainer = build_tiny_trainer(
                    spec.n_learners, spec.seed, n_classes=spec.n_classes,
                    records_per_learner=spec.records_per_learner,
                    batch_per_gpu=spec.batch_per_gpu, reducer=spec.reducer,
                    reshuffle_on_shrink=False, sdc_buckets=spec.sdc_buckets,
                )
                self.shrink_log = []
                self.grow_log = []
        self.status = "running"
        self.proc = cluster.engine.process(self._program(), name=f"job:{self.name}")

    def mark_enqueued(self, now: float) -> None:
        self.status = "queued"
        self._enqueued_at = now

    def _program(self) -> Iterator[Event]:
        engine = self._cluster.engine
        trainer = self.trainer
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
        for slot in self._scripted.get(self.trainer.iteration, ()):
            del grads[slot]
            self._absorb(slot)
            self.drop_slot(slot)
        return grads

    def _absorb(self, slot: int) -> None:
        """Shrink the trainer by one learner and log it in the lineage.

        Fleet shrinks never run the Algorithm 2 reshuffle, whatever the
        trainer's ``reshuffle_on_shrink``: the job's data plane only
        re-deals the lost learner's records.
        """
        self.record_shrink(self.trainer.iteration, slot)
        self.trainer.absorb_failure(slot, reshuffle=False)

    def _quarantine(self, slot: int, detail: str) -> None:
        """Expel a learner the SDC audit named: book the strike against
        its node, shrink, then free the slot."""
        self._scheduler.on_sdc(self, slot, self.placement[slot], detail)
        self._absorb(slot)
        self.drop_slot(slot)

    def _inject_sdc(
        self, grads: list[np.ndarray], ranges: list[tuple[int, int]]
    ) -> None:
        """Fire this iteration's scripted SDC flips (mid-bucket bit 62).

        A slot whose learner is already gone (shrunk earlier in the
        lineage) is skipped — the fault targeted hardware that no longer
        hosts a learner of ours.
        """
        for slot, bucket in self._sdc_by_iter.get(self.trainer.iteration, ()):
            if slot >= len(grads):
                continue
            lo, hi = ranges[bucket]
            flip_bit(grads[slot], lo + (hi - lo) // 2)
            self.sdc_injected.append((self.trainer.iteration, slot, bucket))

    def _incorporate_grows(self) -> None:
        """Join granted (or scripted) learners at this iteration boundary.

        Runs at the *top* of the iteration, before gradient compute, so
        the newcomer contributes fully to this step — the ordering the
        scripted-lineage validator and the reference replay both assume.
        Pure Python state changes only (no engine events), so a job with
        no grants pays nothing.
        """
        trainer = self.trainer
        for _slot in self._scripted_grows.get(trainer.iteration, ()):
            node = self._scheduler.grant_scripted_grow(self)
            self._grow_onto(node)
        while self.pending_grows:
            node = self.pending_grows.pop(0)
            if not self._cluster.nodes[node].alive:
                # Granted node died before the boundary: the scheduler's
                # kill path normally revokes it, but guard anyway.
                self._cluster.release(self.name, node)
                self._scheduler.on_grow_revoked(self, node)
                continue
            self._grow_onto(node)

    def _grow_onto(self, node_index: int) -> None:
        """Turn one already-allocated node into a live learner."""
        trainer = self.trainer
        new_id = self.spec.n_learners + len(self.grow_log)
        slot = trainer.grow_learner(new_id)
        self.placement.append(node_index)
        self.record_grow(trainer.iteration, slot)
        self.telemetry.grows += 1
        self._scheduler.on_grown(self, node_index)

    def _take_checkpoint(self, *, absorb_preempts: bool) -> Iterator[Event]:
        """Capture state, then pay the simulated write window.

        Capture is atomic (plain Python state), so a fault *during* the
        write window can neither tear the snapshot nor corrupt the
        previous one — interrupts here only re-run the remaining wait.
        A preemption landing inside the window (the chaos sweep's
        preemption-during-checkpoint point) lets the write finish and
        commit first; with ``absorb_preempts=False`` it is then re-raised
        so the program's preemption path runs against the fresh save,
        with ``absorb_preempts=True`` (already preempting) it is dropped.
        """
        engine = self._cluster.engine
        self.status = "checkpointing"
        state = TrainerCheckpoint.capture(self.trainer)
        shrinks = tuple(self.shrink_log)
        grows = tuple(self.grow_log)
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
                self.saved = (state, shrinks, grows)
                self.status = "running"
                raise
        self.saved = (state, shrinks, grows)
        self.status = "running"
        if preempted and not absorb_preempts:
            raise Interrupt(PreemptionNotice())

    def _preempt_requeue(self) -> Iterator[Event]:
        """Controlled preemption: checkpoint, release everything, requeue."""
        self.telemetry.preemptions += 1
        yield from self._take_checkpoint(absorb_preempts=True)
        self._teardown_trainer()
        self._release_all()
        self.status = "preempted"
        self._scheduler.on_preempted(self)

    def requeue_from_loss(self) -> None:
        """After a total loss: drop the live trainer, keep the last save."""
        self._teardown_trainer()
        self._release_all()

    def _teardown_trainer(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
        self.trainer = None

    def _release_all(self) -> None:
        for node_index in self.placement:
            self._cluster.release(self.name, node_index)
            self._scheduler.on_slot_freed(self, node_index)
        self.placement = []
        while self.pending_grows:
            node_index = self.pending_grows.pop(0)
            self._cluster.release(self.name, node_index)
            self._scheduler.on_grow_revoked(self, node_index)
        self.dead_nodes.clear()
        self.pending_migrations.clear()

    def _finish(self) -> None:
        self.final_params = self.trainer.params().copy()
        self.final_iteration = self.trainer.iteration
        self._teardown_trainer()
        self._release_all()
        self.status = "finished"
        self.telemetry.finished = self._cluster.engine.now
        self._scheduler.on_finished(self)

