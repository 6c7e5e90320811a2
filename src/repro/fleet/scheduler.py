"""The fleet scheduler: gang placement, preemption, requeue, backfill.

One :class:`FleetScheduler` drives a workload of :class:`JobSpec`s over a
:class:`~repro.fleet.cluster.SharedCluster`:

* **gang scheduling** — a job starts only when *all* its learners can be
  placed on distinct live nodes (a communicator rejects duplicate
  members, so one node hosts at most one learner per job);
* **topology-aware placement** — ``placement="pack"`` fills the fewest
  racks (cheap allreduce, correlated blast radius), ``"spread"``
  round-robins racks (expensive allreduce, independent fault domains);
* **priority preemption** — a higher-priority arrival that cannot be
  placed preempts strictly-lower-priority victims, delivered as a
  controlled fault (checkpoint + requeue, or a single-learner elastic
  shrink for ``preemption="shrink"`` victims);
* **bounded-backoff requeue** — a job that loses all learners requeues
  from its last checkpoint with exponential backoff whose jitter is drawn
  from the deterministic sim RNG (``rng_for(seed, "requeue", job, n)``),
  so fleet sweeps are bit-reproducible run to run;
* **backfill** — every freed slot (finish, shrink, preemption) re-runs
  the placement scan over the whole queue, so small jobs flow around a
  blocked gang at the head.

Node deaths enter here: :meth:`FleetScheduler.kill_node` marks the fault
domain dead, emits one correlated ``RankFailure`` into every hosted job's
in-flight collective, and logs a diagnosis naming every victim — the
chaos sweep asserts on that naming.

Two elastic flows run on top (both opt-in, both no-ops for a clean
fleet):

* **grow-after-shrink** — whenever the queue is empty and slots are
  spare, shrunk jobs with ``elastic_grow=True`` are offered nodes back
  (up to their original gang size).  The grant allocates the slot in the
  slot ledger *immediately* — one slot can never back two grants —
  and the job joins the learner at its next iteration boundary
  (``grow`` event) or the grant is revoked if the node dies first
  (``grow-revoked`` event).  Queued gangs strictly outrank grow-backs.
* **proactive migration** — a :mod:`repro.fleet.health` monitor (enabled
  by passing ``health=``) watches per-node straggler signals and calls
  :meth:`drain_node`: every hosted learner is surrendered at its next
  collective boundary (the controlled-shrink path) while a replacement
  node is granted up front (the grow path), so the job moves off the
  sick node before the collective watchdog ever fires.

Every mutation above is a :mod:`repro.fleet.control` transition (the
same functions the model checker explores); this module adds the engine
side — processes, interrupts, the requeue backoff timer — and the
``FleetEvent`` log.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.fleet import control
from repro.fleet.cluster import SharedCluster
from repro.fleet.collective import JobLost
from repro.fleet.control import ControlState
from repro.fleet.health import HealthPolicy, health_monitor
from repro.fleet.jobs import TERMINAL, FleetJob, JobSpec, PreemptionNotice
from repro.mpi.schedule import RankFailure
from repro.sim.engine import Event, Process
from repro.utils.rng import rng_for

__all__ = ["FleetEvent", "FleetReport", "FleetScheduler", "JobSummary"]


@dataclass(frozen=True)
class FleetEvent:
    """One scheduler decision or fault, timestamped in simulated seconds."""

    t: float
    kind: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.t:10.4f}s] {self.kind:<12s} {self.text}"


@dataclass
class JobSummary:
    name: str
    status: str
    priority: int
    submitted: float
    first_start: float | None
    finished: float | None
    queue_wait: float
    steps: int
    retries: int
    requeues: int
    preemptions: int
    shrinks: tuple[tuple[int, int], ...]
    grows: tuple[tuple[int, int], ...] = ()
    migrations: int = 0


@dataclass
class FleetReport:
    """What one fleet run did: per-job summaries plus fleet metrics."""

    placement: str
    seed: int
    jobs: list[JobSummary]
    events: list[FleetEvent]
    makespan: float
    utilization: float
    goodput: float
    leaked: list[tuple[int, str, int]]

    @property
    def all_terminal(self) -> bool:
        return all(j.status in TERMINAL for j in self.jobs)

    def job(self, name: str) -> JobSummary:
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(name)

    def format(self) -> str:
        lines = [
            f"fleet: placement={self.placement} seed={self.seed} "
            f"makespan={self.makespan:.4f}s utilization={self.utilization:.1%} "
            f"goodput={self.goodput:.1%}"
        ]
        for j in self.jobs:
            lines.append(
                f"  {j.name:<10s} {j.status:<9s} prio={j.priority} "
                f"wait={j.queue_wait:.4f}s steps={j.steps} "
                f"retries={j.retries} requeues={j.requeues} "
                f"preempt={j.preemptions} shrinks={len(j.shrinks)} "
                f"grows={len(j.grows)}"
            )
        if self.leaked:
            lines.append(f"  LEAKED PLACEMENTS: {self.leaked}")
        return "\n".join(lines)


class FleetScheduler:
    """Queue + placement + failure-domain policy over one shared cluster.

    The control plane itself is :mod:`repro.fleet.control`: every entry
    point below runs one of its transitions through :meth:`apply`, which
    then carries out the transition's effects on the engine, the jobs'
    trainers and the event log.
    """

    def __init__(
        self,
        cluster: SharedCluster,
        specs: list[JobSpec],
        *,
        placement: str = "pack",
        seed: int = 0,
        max_queued: int | None = None,
        requeue_base: float = 0.05,
        max_requeues: int = 6,
        health: HealthPolicy | None = None,
    ):
        if placement not in ("pack", "spread"):
            raise ValueError(f"unknown placement policy {placement!r}")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names in workload: {names}")
        if max_queued is not None and max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        if not (math.isfinite(requeue_base) and requeue_base >= 0):
            raise ValueError(
                f"requeue_base must be finite and >= 0, got {requeue_base}"
            )
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues}")
        self.cluster = cluster
        self.placement = placement
        self.seed = seed
        self.max_queued = max_queued
        self.requeue_base = requeue_base
        self.max_requeues = max_requeues
        self.health = health
        self.jobs: dict[str, FleetJob] = {s.name: FleetJob(s) for s in specs}
        #: The control plane's state, shared with the cluster's node records
        #: and these jobs; a ledger breach raises ``SimulationError``.
        self.control = ControlState(
            placement, cluster.nodes, self.jobs, strict=True,
            on_ledger=cluster.account,
        )
        self.events: list[FleetEvent] = []
        self._ran = False

    @property
    def draining(self) -> set[int]:
        """Nodes under a proactive drain (no placements, no grants)."""
        return {n.index for n in self.cluster.nodes if n.draining}

    # -- driving ------------------------------------------------------------
    def run(self) -> FleetReport:
        """Submit every spec at its arrival time and drain the fleet."""
        if self._ran:
            raise RuntimeError("a FleetScheduler instance runs once")
        self._ran = True
        engine = self.cluster.engine
        for job in self.jobs.values():
            engine.process(self._arrival(job), name=f"arrive:{job.name}")
        if self.health is not None:
            self.spawn(
                health_monitor(self.cluster, self, self.health),
                name="health-monitor",
            )
        engine.run()
        return self.report()

    def spawn(self, generator: Iterator[Event], name: str = "chaos") -> Process:
        """Register an auxiliary process (chaos triggers) on the engine."""
        return self.cluster.engine.process(generator, name=name)

    def _arrival(self, job: FleetJob) -> Iterator[Event]:
        if job.spec.arrival > 0:
            yield self.cluster.engine.timeout(job.spec.arrival)
        job.telemetry.submitted = self.cluster.engine.now
        job.mark_enqueued(self.cluster.engine.now)
        self.apply(control.arrive, job, self.max_queued)

    # -- the control plane ---------------------------------------------------
    def apply(self, transition: Callable[..., None], *args: object) -> None:
        """Run one :mod:`repro.fleet.control` transition, then its effects
        (also the ones emitted before a breach aborted it), in order."""
        try:
            transition(self.control, *args)
        finally:
            effects, self.control.effects = self.control.effects, []
            for effect in effects:
                self._effect(*effect)

    def _effect(self, kind: object, name: object, *data: Any) -> None:
        """Carry out one control effect: engine work, then its log line."""
        job = self.jobs[name] if isinstance(name, str) else None
        now = self.cluster.engine.now
        if job is None:
            self._node_effect(kind, *data)
        elif kind == "start":
            nodes = list(data[0])
            job.launch(self.cluster, self)
            racks = sorted({self.cluster.rack_of(n) for n in nodes})
            self._log("start", f"{job.name} on nodes {nodes} (racks {racks})",
                      job=job.name, nodes=nodes)
        elif kind == "release":
            self._log("release", f"{job.name} released node {data[0]}",
                      job=job.name, node=data[0])
        elif kind == "absorb":
            job.shrink_learner(data[0])
        elif kind == "grow":
            node, nth = data
            slot = job.grow_learner(nth)
            self._log("grow", f"{job.name} grew onto node {node} "
                      f"(now {slot + 1} learners)", job=job.name, node=node)
        elif kind == "grow-grant":
            node, why = data
            reason = ("scripted replay" if why == "scripted" else
                      f"back towards {job.spec.n_learners} learners")
            self._log("grow-grant", f"{job.name} granted node {node} ({reason})",
                      job=job.name, node=node)
        elif kind == "grow-revoked":
            self._log("grow-revoked", f"{job.name}: granted node {data[0]} "
                      "revoked before joining", job=job.name, node=data[0])
        elif kind == "interrupt":
            slot = data[0]
            executor = job.active_executor
            if executor is not None and slot < len(executor.rank_procs):
                proc = executor.rank_procs[slot]
                if proc.is_alive:
                    proc.interrupt(RankFailure(slot, now))
            # Otherwise the job is between collectives; the pending-victim
            # scan absorbs the death at its next attempt launch.
        elif kind == "shrink-req":
            self._log("shrink-req", f"{job.name} surrenders one learner to "
                      f"{data[0]}", job=job.name, beneficiary=data[0])
        elif kind == "preempt":
            beneficiary = self.jobs[data[0]]
            assert job.proc is not None
            job.proc.interrupt(PreemptionNotice())
            self._log(
                "preempt",
                f"{job.name} (priority {job.spec.priority}) checkpoints for "
                f"{beneficiary.name} (priority {beneficiary.spec.priority})",
                job=job.name, beneficiary=beneficiary.name,
            )
        elif kind == "sdc-detect":
            slot, node, strikes, detail = data
            self._log(
                "sdc-detect",
                f"{job.name}: learner {job.learner_id(slot)} on node {node} "
                f"quarantined for silent data corruption (node strike "
                f"{strikes}): {detail}",
                job=job.name, node=node, slot=slot, strikes=strikes,
            )
        elif kind == "migrate":
            node, replacement, reason = data
            job.telemetry.migrations += 1
            prefix = (f"{job.name}: learner migrating off node {node} "
                      f"({reason}); ")
            if replacement is None:
                self._log("migrate", prefix + "no replacement free",
                          job=job.name, node=node, reason=reason)
            else:
                self._log("migrate",
                          prefix + f"replacement node {replacement} granted",
                          job=job.name, node=node, replacement=replacement,
                          reason=reason)
        elif kind == "submit":
            self._log("submit", f"{job.name} (priority {job.spec.priority})",
                      job=job.name)
        elif kind == "reject":
            alive = data[0]
            reason = (f"needs {job.spec.n_learners} nodes, {alive} alive"
                      if job.spec.n_learners > alive
                      else f"queue full ({self.max_queued})")
            self._log("reject", f"{job.name}: {reason}", job=job.name)
        elif kind == "finish":
            t = job.telemetry
            self._log(
                "finish",
                f"{job.name} after {t.steps} steps ({t.retries} retries, "
                f"{len(job.shrink_log)} shrinks, {len(job.grow_log)} grows)",
                job=job.name,
            )
        elif kind == "requeue":
            self._log("requeue", f"{job.name} (preempted, checkpoint saved)",
                      job=job.name)
        elif kind == "lost":
            self._lost(job)
        else:  # pragma: no cover - the core emits no other kinds
            raise ValueError(f"unknown control effect {kind!r}")

    def _node_effect(self, kind: object, node: int, *data: Any) -> None:
        rack = self.cluster.rack_of(node)
        if kind == "node-kill":
            parts = [
                f"job {name} grant revoked (not yet joined)" if slot is None
                else f"job {name} slot {slot} "
                f"(learner {self.jobs[name].learner_id(slot)})"
                for name, slot in data[0]
            ]
            detail = "; ".join(parts) if parts else "no hosted jobs"
            self._log("node-kill", f"node {node} (rack {rack}) died: {detail}",
                      node=node, jobs=[name for name, _ in data[0]])
        elif kind == "revive":
            self._log("revive", f"node {node} (rack {rack}) back in service "
                      f"({self.cluster.nodes[node].slots} slots)", node=node)
        elif kind == "drain":
            self._log("drain", f"node {node} (rack {rack}) draining: {data[0]}",
                      node=node, reason=data[0])
        elif kind == "undrain":
            self._log("undrain", f"node {node} restored to service", node=node)
        else:  # pragma: no cover - the core emits no other kinds
            raise ValueError(f"unknown control effect {kind!r}")

    def _lost(self, job: FleetJob) -> None:
        """A dead program's slots are back: log why, and for a total loss
        arm the bounded exponential backoff (jitter from the sim RNG)."""
        exc = job.error
        now = self.cluster.engine.now
        if not isinstance(exc, JobLost):
            job.telemetry.finished = now
            self._log("job-failed", f"{job.name}: {exc!r}", job=job.name)
            return
        self._log("job-lost", str(exc), job=job.name)
        if job.status == "failed":
            job.telemetry.finished = now
            self._log("job-failed", f"{job.name}: requeue budget exhausted "
                      f"({self.max_requeues})", job=job.name)
            return
        base = self.requeue_base * (2 ** (job.requeues - 1))
        jitter = rng_for(self.seed, "requeue", job.name, job.requeues).uniform(
            0.5, 1.5
        )
        delay = base * jitter
        self._log("requeue", f"{job.name} in {delay:.4f}s "
                  f"(attempt {job.requeues})", job=job.name, delay=delay)
        self.spawn(self._delayed_enqueue(job, delay), name=f"requeue:{job.name}")

    def _delayed_enqueue(self, job: FleetJob, delay: float) -> Iterator[Event]:
        yield self.cluster.engine.timeout(delay)
        job.mark_enqueued(self.cluster.engine.now)
        self.apply(control.requeue, job)

    # -- fault domains and job callbacks ------------------------------------
    def kill_node(self, node_index: int) -> None:
        """Kill a node: correlated ``RankFailure`` into every hosted job.

        A slot merely *granted* on the node (a grow not yet joined) is
        revoked on the spot.  A live slot's death is recorded in the
        job's ``dead_nodes`` so the pending-victim scan keys on the
        recorded death even if the node later revives (flap-safety).
        """
        self.apply(control.kill, node_index)

    def revive_node(self, node_index: int) -> None:
        """Bring a dead node back into service and re-run placement."""
        self.apply(control.revive, node_index)

    def drain_node(self, node_index: int, reason: str) -> None:
        """Proactively migrate learners off a degraded-but-alive node."""
        self.apply(control.drain, node_index, reason)

    def undrain_node(self, node_index: int) -> None:
        """Restore a drained (but alive) node to placement service."""
        self.apply(control.undrain, node_index)

    def on_job_error(self, job: FleetJob, exc: Exception) -> None:
        """A job's program died: requeue a total loss, fail anything else."""
        job.teardown()
        job.error = exc
        budget = self.max_requeues if isinstance(exc, JobLost) else None
        self.apply(control.lose, job, budget)

    # -- reporting -----------------------------------------------------------
    def _log(self, kind: str, text: str, **data: object) -> None:
        self.events.append(
            FleetEvent(self.cluster.engine.now, kind, text, data)
        )

    def report(self) -> FleetReport:
        jobs = []
        finishes = []
        submits = []
        for name in sorted(self.jobs):
            job = self.jobs[name]
            t = job.telemetry
            jobs.append(
                JobSummary(
                    name=name,
                    status=job.status,
                    priority=job.spec.priority,
                    submitted=t.submitted,
                    first_start=t.first_start,
                    finished=t.finished,
                    queue_wait=t.queue_wait,
                    steps=t.steps,
                    retries=t.retries,
                    requeues=job.requeues,
                    preemptions=t.preemptions,
                    shrinks=tuple(job.shrink_log),
                    grows=tuple(job.grow_log),
                    migrations=t.migrations,
                )
            )
            if t.finished is not None:
                finishes.append(t.finished)
            if job.status != "rejected":
                submits.append(t.submitted)
        makespan = (max(finishes) - min(submits)) if finishes and submits else 0.0
        # Account up to the last real fleet event: once drained, stale
        # watchdog deadlines coast the engine clock through pure idle time.
        end = max(finishes) if finishes else self.cluster.engine.now
        capacity = self.cluster.capacity_integral_at(end)
        goodput = (
            sum(j.telemetry.goodput_node_seconds for j in self.jobs.values())
            / capacity
            if capacity > 0
            else 0.0
        )
        return FleetReport(
            placement=self.placement,
            seed=self.seed,
            jobs=jobs,
            events=list(self.events),
            makespan=makespan,
            utilization=self.cluster.utilization(end),
            goodput=goodput,
            leaked=self.cluster.leaked_placements(),
        )
