"""Algorithm 1, executed for real: data-parallel distributed SGD.

Every learner (node) holds a DataParallelTable of NumPy network replicas
(its "GPUs") and a DIMD store; each iteration

1. samples ``B_node`` images from its store with its own seeded RNG,
2. computes gradients across its GPUs (intra-node summation is inside the
   DataParallelTable),
3. sums gradients across learners — either exactly (``reducer="exact"``)
   or by actually running a simulated-MPI allreduce algorithm on the
   gradient buffers (``reducer="multicolor"`` etc.), and
4. applies an identical SGD update on every GPU.

Because every learner applies the same update to the same weights, the
replicas stay synchronized — asserted by :meth:`check_synchronized`.
The equivalence test in ``tests/train`` shows a K-learner trainer matches
serial large-batch SGD to float precision, which is the correctness claim
behind the paper's Algorithm 1.

Fault tolerance (see DESIGN.md §"Failure semantics"): with a
:class:`~repro.train.injection.FaultPlan` attached, the simulated
collective is guarded by a watchdog timeout.  Transient faults (delayed
or dropped messages, temporary link degradation) are retried with bounded
exponential backoff and surfaced in :class:`TrainStepResult`; a permanent
rank crash triggers an *elastic shrink* — the dead learner's DIMD records
are repartitioned over the survivors, the LR schedule is rescaled to the
smaller effective batch, and training continues on the remaining ranks.
The periodic Algorithm 2 shuffle gets the same treatment on the data
plane: it runs transactionally under its own guard
(:func:`~repro.data.guard.run_shuffle_guarded`), so a faulted round rolls
back to a no-op and retries, and a crashed rank's partition is reabsorbed
without losing or duplicating a single record.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.data.dimd import DIMDStore, collect_regrow_share, deal_records
from repro.data.guard import run_shuffle_guarded
from repro.dpt.table import (
    BaselineDataParallelTable,
    OptimizedDataParallelTable,
    _DataParallelTableBase,
)
from repro.models.nn.network import Network
from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import ArrayBuffer, Buffer
from repro.mpi.guard import (
    Attempt,
    CollectiveTelemetry,
    RankFailure,
    RetryPolicy,
    drive,
    guard,
)
from repro.mpi.schedule import ExecutorAttempt
from repro.sim.engine import Event
from repro.train.injection import FaultEvent, FaultInjector, FaultPlan
from repro.train.sdc import SDCDetected, SDCGuard
from repro.train.schedule import WarmupStepSchedule
from repro.utils.rng import rng_for

__all__ = ["DistributedSGDTrainer", "TrainStepResult"]


@dataclass
class TrainStepResult:
    """Per-iteration outcome, including fault/recovery telemetry."""

    iteration: int
    loss: float
    lr: float
    grad_norm: float
    n_learners: int = 0          # learners that contributed to this step
    sim_time: float = 0.0        # simulated seconds spent in collectives
    retries: int = 0             # collective attempts beyond the first
    backoff: float = 0.0         # simulated seconds of retry backoff
    faults: tuple[str, ...] = () # human-readable fault events this step
    quarantined: tuple[int, ...] = ()  # learner ids expelled for SDC


class DistributedSGDTrainer:
    """N learners x m GPUs running synchronous data-parallel SGD."""

    def __init__(
        self,
        network_factory: Callable[[np.random.Generator], Network],
        stores: list[DIMDStore],
        *,
        gpus_per_node: int = 2,
        batch_per_gpu: int = 8,
        schedule: WarmupStepSchedule | None = None,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        reducer: str = "exact",
        dpt_variant: str = "optimized",
        seed: int = 0,
        shuffle_every: int | None = None,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        lr_rescale: str = "linear",
        reshuffle_on_shrink: bool = True,
        topology: str = "star",
        sdc_buckets: int | None = None,
    ):
        """
        Parameters
        ----------
        network_factory:
            Builds one replica given an RNG; all replicas are forced to
            identical initial weights (Algorithm 1's identical random init).
        stores:
            One DIMD store per learner.
        reducer:
            ``"exact"`` for direct NumPy summation, or any name in
            :data:`~repro.mpi.collectives.ALLREDUCE_COMPILERS` to push the
            gradients through the simulated MPI.
        shuffle_every:
            If set, run the Algorithm 2 distributed shuffle across learners
            every that many iterations.
        fault_plan:
            Faults to inject into the simulated collectives (requires a
            simulated ``reducer``, not ``"exact"``).
        retry:
            The watchdog deadline, transient-fault retry budget and
            geometric backoff of every guarded collective (allreduce and
            shuffle); defaults to :class:`~repro.mpi.guard.RetryPolicy`'s
            60 s / 3 retries / 0.5 s.  Exhausting the budget raises
            :class:`~repro.train.injection.CollectiveTimeout`.  A permanent
            rank loss is always repaired surgically inside the guarded
            collective (the survivor group is recompiled and the attempt
            resumes from snapshotted inputs); the trainer absorbs the dead
            learner's state afterwards.
        lr_rescale:
            ``"linear"`` rescales the schedule's worker count after an
            elastic shrink (linear-scaling rule follows the smaller
            effective batch); ``"none"`` keeps the schedule fixed.
        reshuffle_on_shrink:
            After absorbing a dead learner's records, rebalance survivor
            partitions with the Algorithm 2 distributed shuffle.
        topology:
            Fabric the simulated collectives (allreduce *and* shuffle) run
            on: ``"star"`` (default), ``"ring"``, ``"full_mesh"`` or
            ``"fat_tree"``.
        sdc_buckets:
            Audit every allreduce boundary for silent data corruption
            (:mod:`repro.train.sdc`) over this many gradient buckets;
            ``None`` turns the audit off.  Each learner fingerprints its
            buckets after backward, and before any update applies the
            group cross-checks replica agreement and the allreduce's
            linearity.  A named corrupter is *quarantined* (elastic
            shrink) and the iteration re-runs on the survivors, bit-exact
            versus a scripted shrink; an unattributable hit (in-flight
            corruption spread to every replica) retries the collective.
            Pure bookkeeping outside the simulation: clean runs are
            byte-identical to audit-off runs.  Requires a simulated
            reducer.
        """
        if not stores:
            raise ValueError("need at least one learner store")
        if reducer != "exact" and reducer not in ALLREDUCE_COMPILERS:
            raise ValueError(
                f"unknown reducer {reducer!r}; use 'exact' or one of "
                f"{sorted(ALLREDUCE_COMPILERS)}"
            )
        if dpt_variant not in ("baseline", "optimized"):
            raise ValueError(f"unknown dpt_variant {dpt_variant!r}")
        if batch_per_gpu < 1 or gpus_per_node < 1:
            raise ValueError("batch_per_gpu and gpus_per_node must be >= 1")
        if fault_plan is not None and reducer == "exact":
            raise ValueError(
                "fault injection needs a simulated reducer (faults live in "
                "the MPI simulation); reducer='exact' bypasses it"
            )
        if lr_rescale not in ("linear", "none"):
            raise ValueError(f"unknown lr_rescale {lr_rescale!r}")
        if sdc_buckets is not None and sdc_buckets < 1:
            raise ValueError("sdc_buckets must be >= 1")
        if sdc_buckets is not None and reducer == "exact":
            raise ValueError(
                "sdc_buckets audits the simulated allreduce boundary; "
                "reducer='exact' bypasses it"
            )
        if fault_plan is not None and sdc_buckets is None:
            from repro.train.injection import FAULT_KINDS
            compute_kinds = sorted({
                s.kind for s in fault_plan.specs
                if FAULT_KINDS[s.kind].plane == "compute"
            })
            if compute_kinds:
                raise ValueError(
                    f"fault plan injects compute-plane kind(s) "
                    f"{compute_kinds} but the SDC audit is off — the flips "
                    "would poison training undetected"
                )
        self.gpus_per_node = gpus_per_node
        self.batch_per_gpu = batch_per_gpu
        self.stores = stores
        self.reducer = reducer
        self.dpt_variant = dpt_variant
        self.seed = seed
        self.shuffle_every = shuffle_every
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.retry = retry if retry is not None else RetryPolicy()
        self.lr_rescale = lr_rescale
        self.reshuffle_on_shrink = reshuffle_on_shrink
        self.topology = topology
        self.sdc_buckets = sdc_buckets
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: Original learner identity of each live slot; identities are
        #: stable across elastic shrinks so RNG streams never collide.
        self.learner_ids = [s.learner for s in stores]
        if len(set(self.learner_ids)) != len(self.learner_ids):
            # Stores built without distinct learner tags: fall back to index.
            self.learner_ids = list(range(len(stores)))
        self.schedule = schedule or WarmupStepSchedule(
            batch_per_gpu=batch_per_gpu,
            n_workers=len(stores) * gpus_per_node,
            warmup_epochs=0.0,
        )

        init_rng = rng_for(seed, "init")
        master = network_factory(init_rng)
        table_cls = (
            OptimizedDataParallelTable
            if dpt_variant == "optimized"
            else BaselineDataParallelTable
        )
        # Kept for elastic grow: a rejoining learner needs fresh replicas.
        self._network_factory = network_factory
        self._table_cls = table_cls
        self.tables: list[_DataParallelTableBase] = []
        for learner in range(len(stores)):
            replicas = [
                network_factory(rng_for(seed, "replica", learner, g))
                for g in range(gpus_per_node)
            ]
            table = table_cls(replicas)
            table.broadcast_params(master.get_flat_params())
            self.tables.append(table)
        self.n_params = master.n_params
        self._velocity = np.zeros(self.n_params)
        self.iteration = 0
        self._shuffle_round = 0
        self._step_stats = _StepStats()

    # -- public API ----------------------------------------------------------
    @property
    def n_learners(self) -> int:
        """Learners currently alive (shrinks after a permanent rank loss)."""
        return len(self.stores)

    @property
    def node_batch(self) -> int:
        return self.batch_per_gpu * self.gpus_per_node

    @property
    def global_batch(self) -> int:
        return self.node_batch * self.n_learners

    @property
    def steps_per_epoch(self) -> int:
        total = sum(len(s) for s in self.stores)
        return max(1, total // self.global_batch)

    @property
    def fault_log(self) -> list:
        """Every fault event that fired so far (empty without a plan)."""
        return list(self.fault_injector.events) if self.fault_injector else []

    def params(self) -> np.ndarray:
        return self.tables[0].replicas[0].get_flat_params()

    def step(self) -> TrainStepResult:
        """One iteration of Algorithm 1 across all live learners."""
        per_learner_grads, losses = self.step_compute()
        summed, n_contributing = self.reduce(per_learner_grads)
        return self.step_apply(summed, n_contributing, losses)

    def step_compute(self) -> tuple[list[np.ndarray], list[float]]:
        """Phase 1 of :meth:`step`: per-learner gradients and losses.

        Pure local compute — deterministic given ``(seed, learner_ids,
        iteration)`` and the current stores, with no simulated
        communication.  Split out so an external driver (the fleet job
        program) can run the collective phase on its own shared fabric
        between :meth:`step_compute` and :meth:`step_apply`.
        """
        self._step_stats = _StepStats()
        per_learner_grads: list[np.ndarray] = []
        losses: list[float] = []
        for slot, table in enumerate(self.tables):
            rng = rng_for(self.seed, "batch", self.learner_ids[slot], self.iteration)
            images, labels = self.stores[slot].random_batch(self.node_batch, rng)
            loss, grads = table.forward_backward(images, labels)
            per_learner_grads.append(grads)
            losses.append(loss)
        return per_learner_grads, losses

    def reduce(self, grads: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """Phase 2 of :meth:`step`: sum gradients across live learners.

        Returns ``(summed, n_contributing)``: a permanent rank loss during
        the collective shrinks the trainer mid-call, in which case the sum
        covers the survivors only and ``n_contributing < len(grads)``.
        The collective runs on a private engine per attempt
        (:func:`~repro.mpi.guard.drive`) under :meth:`audited_reduce`.
        """
        if self.reducer == "exact" or self.n_learners == 1:
            return np.sum(grads, axis=0), len(grads)

        def attempt(live: list[np.ndarray]) -> ExecutorAttempt:
            return ExecutorAttempt(
                ALLREDUCE_COMPILERS[self.reducer],
                [ArrayBuffer(g.copy()) for g in live],
                topology=self.topology,
                tag=("it", self.iteration),
                fault_injector=self.fault_injector,
                iteration=self.iteration,
            )

        telemetry = CollectiveTelemetry()
        try:
            buffers = drive(self.audited_reduce(
                grads, attempt, self.retry, telemetry,
                inject=self._inject_compute_faults,
                absorb=self._shrink_state,
                quarantine=lambda slot, _detail: self._shrink_state(slot),
            ))
        finally:
            self._fold(telemetry)
        return buffers[0].array, len(buffers)

    def audited_reduce(
        self,
        grads: list[np.ndarray],
        attempt: Callable[[list[np.ndarray]], Attempt],
        retry: RetryPolicy,
        telemetry: CollectiveTelemetry,
        *,
        inject: Callable[[list[np.ndarray], list[tuple[int, int]]], None],
        absorb: Callable[[int], None],
        quarantine: Callable[[int, str], None],
    ) -> Generator[Event, Any, list[Buffer]]:
        """Generator: the guarded, SDC-audited gradient sum of one step.

        The one loop behind :meth:`reduce` (private engines) and the
        fleet job program (``yield from`` on the shared engine).  With
        ``sdc_buckets`` set, every learner's gradient is fingerprinted,
        then ``inject(grads, bucket_ranges)`` fires this step's scripted
        flips.  Each pass runs ``guard(attempt(live_grads), retry,
        telemetry)``; every victim the guard repaired around goes to
        ``absorb(slot)``.  The audit then checks the reduced buffers: a
        named corrupter is logged, handed to ``quarantine(slot, detail)``
        and the sum re-runs on the survivors; an unattributable hit
        re-runs as is, at most ``retry.max_retries`` times before
        :class:`~repro.train.sdc.SDCDetected`.  Returns the committed
        survivor buffers.
        """
        grads = list(grads)
        sdc_guard = pre = None
        if self.sdc_buckets is not None:
            sdc_guard = SDCGuard(grads[0].size, self.sdc_buckets)
            # Each rank's post-backward claim, digested *before* any
            # compute fault fires: the flip lands between the fingerprint
            # and the send, exactly the window a silent GPU fault occupies.
            pre = [sdc_guard.fingerprint(g) for g in grads]
            inject(grads, sdc_guard.ranges)
        repaired = 0
        unattributed = 0
        while True:
            buffers = yield from guard(attempt(grads), retry, telemetry)
            # The collective already completed on the survivor group —
            # absorb each victim's learner state now.
            for victim in telemetry.repaired_ranks[repaired:]:
                repaired += 1
                absorb(victim)
                del grads[victim]
                if pre is not None:
                    del pre[victim]
            if sdc_guard is None:
                return buffers
            verdict = sdc_guard.check(
                pre, grads, [b.array for b in buffers],
                recompute=self._recompute_grad,
            )
            if verdict.ok:
                return buffers
            if verdict.suspects:
                # Quarantine each named corrupter before any optimizer
                # apply, then re-run on the survivors from their
                # already-computed honest gradients.
                for offset, suspect in enumerate(sorted(verdict.suspects)):
                    self._note_sdc(suspect, verdict.detail, telemetry.sim_time)
                    slot = suspect - offset
                    self._step_stats.quarantined.append(self.learner_ids[slot])
                    quarantine(slot, verdict.detail)
                    del grads[slot]
                    del pre[slot]
                continue
            # Detected but unattributable: corruption in flight that
            # spread to every replica (no rank's fed data contradicts its
            # claim).  Retry the collective — transient faults are
            # exhausted per attempt — and give up only if it persists.
            self._note_sdc(None, verdict.detail, telemetry.sim_time)
            unattributed += 1
            if unattributed > retry.max_retries:
                raise SDCDetected(verdict, self.iteration)
            self._step_stats.retries += 1

    def step_apply(
        self, summed: np.ndarray, n_contributing: int, losses: list[float]
    ) -> TrainStepResult:
        """Phase 3 of :meth:`step`: apply the reduced gradient everywhere.

        ``summed`` is the gradient sum over the ``n_contributing`` learners
        that completed the collective (fewer than computed when a permanent
        rank loss shrank the group mid-step).
        """
        mean_grad = summed / n_contributing
        epoch = self.iteration / self.steps_per_epoch
        lr = self.schedule.lr_at(epoch)
        self._apply_update(mean_grad, lr)

        self.iteration += 1
        if self.shuffle_every and self.iteration % self.shuffle_every == 0:
            self.shuffle()
        stats = self._step_stats
        return TrainStepResult(
            iteration=self.iteration,
            loss=float(np.mean(losses)),
            lr=lr,
            grad_norm=float(np.linalg.norm(mean_grad)),
            n_learners=n_contributing,
            sim_time=stats.sim_time,
            retries=stats.retries,
            backoff=stats.backoff,
            faults=tuple(str(ev) for ev in stats.fault_events),
            quarantined=tuple(stats.quarantined),
        )

    def train_epoch(self) -> list[TrainStepResult]:
        return [self.step() for _ in range(self.steps_per_epoch)]

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the (synchronized) model."""
        return self.tables[0].replicas[0].accuracy(images, labels)

    def shuffle(self) -> None:
        """Algorithm 2 across all learners' stores, guarded end to end.

        The round runs through
        :func:`~repro.data.guard.run_shuffle_guarded` on the trainer's
        configured fabric: a transactional exchange under a watchdog, with
        transient faults (lost/delayed/corrupted messages) retried from the
        rolled-back snapshots and permanent rank losses repaired the same
        way the gradient allreduce repairs them: the guard deals the
        victim's records to the survivors and re-runs the round over the
        survivor group.  Telemetry folds into the current step's stats
        alongside the allreduce's.
        """
        round_id = self._shuffle_round
        telemetry = CollectiveTelemetry()
        try:
            run_shuffle_guarded(
                self.stores,
                retry=self.retry,
                seed=self.seed,
                round_id=round_id,
                topology=self.topology,
                tag=("sh", round_id),
                fault_injector=self.fault_injector,
                iteration=self.iteration,
                telemetry=telemetry,
            )
        finally:
            self._fold(telemetry)
        # The guard already dealt each victim's records — absorb the rest
        # of its learner state now.
        for victim in telemetry.repaired_ranks:
            self._shrink_state(victim, records_dealt=True)
        self._shuffle_round += 1

    def _fold(self, telemetry: CollectiveTelemetry) -> None:
        """Fold one guarded collective's telemetry into the step's stats.

        Each diagnosis surfaces in the fault log named after the suspected
        victim rank and step.
        """
        stats = self._step_stats
        stats.sim_time += telemetry.sim_time
        stats.retries += telemetry.retries
        stats.backoff += telemetry.backoff
        stats.fault_events.extend(telemetry.fault_events)
        for diag in telemetry.diagnoses:
            kind = "corruption" if diag.cause == "corruption" else "stall"
            event = FaultEvent(
                kind, self.iteration, diag.suspect_rank, diag.now,
                str(diag), step=diag.suspect_step,
            )
            stats.fault_events.append(event)
            if self.fault_injector is not None:
                self.fault_injector.record(event)

    def grow_learner(self, learner_id: int | None = None) -> int:
        """Elastic grow: the inverse of the elastic shrink.

        Adds one learner to the group at an iteration boundary and returns
        its slot (always appended at the end):

        * its DIMD partition is funded by the survivors through the single
          deterministic regrow policy
          (:func:`~repro.data.dimd.collect_regrow_share` — the inverse of
          ``deal_records``), conserving every record;
        * its replicas are **checkpoint-seeded**: built fresh, then
          overwritten with the live group's current weights, so the group
          stays synchronized and the newcomer's init RNG never matters;
        * the LR schedule is rescaled back *up* (inverse of the shrink's
          linear rescale) so the linear-scaling rule follows the larger
          effective batch.

        Deterministic given ``(trainer state, learner_id)``, which is what
        makes a recorded grow replayable bit-exactly by a scripted
        reference run (``JobSpec.scripted_grows`` in the fleet).
        """
        if learner_id is None:
            learner_id = max(self.learner_ids) + 1
        if learner_id in self.learner_ids:
            raise ValueError(
                f"learner id {learner_id} is already live ({self.learner_ids})"
            )
        n = self.n_learners
        store = collect_regrow_share(self.stores, learner_id)
        replicas = [
            self._network_factory(rng_for(self.seed, "replica", learner_id, g))
            for g in range(self.gpus_per_node)
        ]
        table = self._table_cls(replicas)
        table.broadcast_params(self.params())
        self.stores.append(store)
        self.tables.append(table)
        self.learner_ids.append(learner_id)
        if self.lr_rescale == "linear":
            prev_workers = self.schedule.n_workers
            new_workers = max(1, round(prev_workers * (n + 1) / n))
            self.schedule = replace(self.schedule, n_workers=new_workers)
        return self.n_learners - 1

    def absorb_failure(self, lost_slot: int, *, reshuffle: bool | None = None) -> None:
        """Absorb a permanent learner loss delivered from outside the
        collective (a node-level fault domain dying, or a controlled
        preemption shrink).  Equivalent to the elastic shrink the guarded
        collective performs on a diagnosed :class:`RankFailure`: the dead
        slot's records are dealt to the survivors and the LR schedule is
        rescaled.  ``reshuffle`` overrides ``reshuffle_on_shrink``."""
        self._shrink_state(lost_slot, reshuffle=reshuffle)

    def check_synchronized(self) -> None:
        """Assert every replica on every learner holds identical weights."""
        reference = self.params()
        for li, table in enumerate(self.tables):
            for gi, replica in enumerate(table.replicas):
                if not np.array_equal(replica.get_flat_params(), reference):
                    raise AssertionError(
                        f"replica (learner {li}, gpu {gi}) diverged"
                    )

    # -- checkpoint / restore -------------------------------------------------
    def checkpoint(self):
        """Snapshot the full training state (see :mod:`repro.train.checkpoint`)."""
        from repro.train.checkpoint import TrainerCheckpoint

        return TrainerCheckpoint.capture(self)

    def save_checkpoint(self, path) -> None:
        self.checkpoint().save(path)

    @classmethod
    def from_checkpoint(
        cls,
        source,
        network_factory: Callable[[np.random.Generator], Network],
        **overrides,
    ) -> "DistributedSGDTrainer":
        """Rebuild a trainer from a checkpoint (object or path), bit-exact."""
        from repro.train.checkpoint import TrainerCheckpoint

        ckpt = (
            source
            if isinstance(source, TrainerCheckpoint)
            else TrainerCheckpoint.load(source)
        )
        return ckpt.restore(cls, network_factory, **overrides)

    def close(self) -> None:
        for table in self.tables:
            table.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- internals ----------------------------------------------------------
    def _inject_compute_faults(
        self, grads: list[np.ndarray], ranges: list[tuple[int, int]]
    ) -> None:
        """Fire the fault plan's compute-plane flips for this iteration."""
        if self.fault_injector is not None:
            # The guard only harvests injector events recorded after it
            # arms; these fire before the first attempt launches.
            self._step_stats.fault_events.extend(
                self.fault_injector.apply_compute_faults(
                    grads, self.iteration, bucket_ranges=ranges,
                )
            )

    def _note_sdc(self, rank: int | None, detail: str, now: float) -> None:
        """Log one SDC detection (``rank=None``: unattributable)."""
        event = FaultEvent("sdc-detect", self.iteration, rank, now, detail)
        self._step_stats.fault_events.append(event)
        if self.fault_injector is not None:
            self.fault_injector.record(event)

    def _recompute_grad(self, slot: int, lo: int, hi: int) -> np.ndarray:
        """Deterministically regenerate one learner's gradient window.

        The batch RNG is keyed by ``(seed, learner id, iteration)``, so
        re-running forward/backward reproduces the honest gradient bit
        for bit — the confirmation step of the SDC attribution.
        """
        rng = rng_for(self.seed, "batch", self.learner_ids[slot], self.iteration)
        images, labels = self.stores[slot].random_batch(self.node_batch, rng)
        _, grads = self.tables[slot].forward_backward(images, labels)
        return grads[lo:hi]

    def _shrink_state(
        self,
        lost_slot: int,
        *,
        records_dealt: bool = False,
        reshuffle: bool | None = None,
    ) -> None:
        """Absorb a dead learner's state into the survivors.

        The dead learner's DIMD records are dealt contiguously to the
        survivors (then rebalanced with the Algorithm 2 shuffle), its table
        is released, and the LR schedule is rescaled to the new effective
        batch.  ``lost_slot`` is the victim's slot (group rank) at failure
        time — the guard reports victims in repair order, so sequential
        pops here stay aligned with its group ranks.

        ``records_dealt=True`` means the guarded shuffle already dealt the
        victim's records to the survivor stores (shared objects), so only
        the table/identity/LR bookkeeping remains here.  ``reshuffle``
        overrides ``reshuffle_on_shrink`` — a shrink *inside* a shuffle
        round must not nest another round.
        """
        if self.n_learners <= 1:
            raise RankFailure(lost_slot)  # nobody left to recover on
        dead_store = self.stores.pop(lost_slot)
        dead_table = self.tables.pop(lost_slot)
        dead_table.close()
        self.learner_ids.pop(lost_slot)
        survivors = len(self.stores)
        if not records_dealt:
            deal_records(dead_store, self.stores)
            if reshuffle is None:
                reshuffle = self.reshuffle_on_shrink
            if reshuffle and survivors > 1:
                self.shuffle()
        if self.lr_rescale == "linear":
            prev_workers = self.schedule.n_workers
            new_workers = max(1, round(prev_workers * survivors / (survivors + 1)))
            self.schedule = replace(self.schedule, n_workers=new_workers)

    def _apply_update(self, mean_grad: np.ndarray, lr: float) -> None:
        """The identical SGD step every GPU performs."""
        w = self.params()
        g = mean_grad
        if self.weight_decay:
            g = g + self.weight_decay * w
        self._velocity = self.momentum * self._velocity + g
        new_w = w - lr * self._velocity
        for table in self.tables:
            table.broadcast_params(new_w)


@dataclass
class _StepStats:
    """Scratch accumulator for one step's fault telemetry."""

    sim_time: float = 0.0
    retries: int = 0
    backoff: float = 0.0
    fault_events: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
