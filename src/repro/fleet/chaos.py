"""Fleet-level chaos: kill nodes, degrade racks, burst arrivals, preempt
mid-checkpoint — and prove the fleet absorbs all of it.

Each chaos point runs a full multi-job fleet on a 2-rack cluster with one
injected disturbance, then asserts these invariants:

1. **no job lost or duplicated** — every submitted job reaches exactly
   one terminal state (``finished``, or ``rejected`` only where the
   scenario's admission limit predicts it), and every finished job ran
   its full step count;
2. **bit-exact survivors** — each finished job's final params equal a
   fault-free single-job reference run that replays the job's recorded
   shrink lineage as *controlled* shrinks (``JobSpec.scripted_shrinks``);
3. **bounded makespan** — the faulted fleet's makespan stays within a
   fixed factor of the fault-free fleet's (retries, requeues and backoff
   are bounded, so recovery cannot stall the fleet indefinitely);
4. **no leaked placements** — every slot allocation was returned to the
   ledger, dead nodes included;
5. **victim naming** — a node kill logs a diagnosis naming the node, its
   rack and *every* hosted job's slot and learner id;
6. **bit-exact grown jobs** — a job that shrank *and grew back* lands on
   the same params as a fault-free reference replaying its full recorded
   lineage (``scripted_shrinks`` **and** ``scripted_grows``), and every
   grow point actually produced at least one grow;
7. **no double-granted slots** — auditing the event log, every
   ``grow-grant`` (and every migration's replacement grant) resolves to
   exactly one ``grow`` or ``grow-revoked``, never two outstanding
   grants of one node to one job, and none left outstanding at drain;
8. **SDC contained** (``sdc`` points) — every scripted gradient bit-flip
   is detected at the allreduce boundary *before any optimizer apply*
   and logged as an ``sdc-detect`` event naming the corrupting learner
   and node; repeat strikes on one node drain it ("silent data
   corruption" reason) and hosted learners migrate off; and a clean
   fleet with fingerprinting enabled keeps its event log byte-identical
   to one with it disabled.

:data:`SCENARIOS` maps each kind to its workload, trigger, health
policy, queue limit, points and own invariants (5, 6, 8).  Triggers are
event-driven (they poll simulated state on a fixed tick and fire when the
fleet reaches the scenario's window), so every point is bit-reproducible:
same seed, same sweep, same report.  Determinism is also what lets each
fault-free run (makespan reference, lineage replay, clean sdc fleet) be
cached by its exact inputs and run at most once per sweep.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.chaos import ChaosOutcome, ChaosReport, References, select_kinds, sweep
from repro.fleet.cluster import SharedCluster
from repro.fleet.health import HealthPolicy
from repro.fleet.jobs import TERMINAL, JobSpec, PreemptionNotice
from repro.fleet.scheduler import FleetReport, FleetScheduler
from repro.sim.engine import Event
from repro.train.faults import DrainPolicy

__all__ = ["FleetChaosPoint", "FLEET_KINDS", "GROW_KINDS", "SCENARIOS",
           "SDC_KINDS", "fleet_chaos_sweep"]

#: Chaos trigger poll tick (simulated seconds) — well under one job step.
_POLL = 1e-4
#: Makespan bound: faulted <= factor * fault-free + slack (requeue backoff
#: and checkpoint windows are additive, not multiplicative).
_MAKESPAN_FACTOR = 10.0
_MAKESPAN_SLACK = 2.0


@dataclass(frozen=True)
class FleetChaosPoint:
    """One scenario: a disturbance against a workload under a policy."""

    kind: str
    placement: str
    n_jobs: int
    hosted: int | None = None  # node-kill: jobs on the victim node

    @property
    def group(self) -> str:
        return self.label()

    def label(self) -> str:
        extra = f" hosted={self.hosted}" if self.hosted is not None else ""
        return f"{self.kind} placement={self.placement} jobs={self.n_jobs}{extra}"


#: A chaos trigger: a generator process the scheduler spawns alongside the
#: fleet; it polls simulated state and fires its disturbance when the
#: scenario's window opens, leaving evidence in ``record``.
Trigger = Callable[[FleetChaosPoint, FleetScheduler, dict], Iterator[Event]]


class FleetRun(NamedTuple):
    """One fleet run: its report, its scheduler and the trigger's evidence."""

    report: FleetReport
    scheduler: FleetScheduler
    record: dict


#: A kind-specific invariant, checked once the trigger has fired; it
#: reads fault-free runs through the sweep's cache.
Check = Callable[[FleetChaosPoint, FleetRun, References], list[str]]


def _run_fleet(
    specs: list[JobSpec],
    placement: str,
    cluster_kw: dict,
    *,
    seed: int = 0,
    max_queued: int | None = None,
    trigger: Callable[[FleetScheduler, dict], Iterator[Event]] | None = None,
    health: HealthPolicy | None = None,
) -> FleetRun:
    scheduler = FleetScheduler(
        SharedCluster(**cluster_kw), specs, placement=placement, seed=seed,
        max_queued=max_queued, health=health,
    )
    record: dict = {}
    if trigger is not None:
        scheduler.spawn(trigger(scheduler, record))
    return FleetRun(scheduler.run(), scheduler, record)


def _fault_free(
    refs: References,
    specs: list[JobSpec],
    placement: str,
    cluster_kw: dict,
    *,
    seed: int = 0,
    max_queued: int | None = None,
    run: FleetRun | None = None,
) -> FleetReport:
    """The report of the fault-free fleet run (no trigger, no health
    monitor) of these inputs, keyed by exactly those inputs, so every
    point and check that needs the same run shares one.  ``run``, a
    finished run of these very inputs, fills the entry instead of a
    fresh run.  Only the report is kept, never the scheduler."""
    key = (tuple(specs), placement, tuple(sorted(cluster_kw.items())),
           seed, max_queued)
    return refs.get(key, lambda: (run or _run_fleet(
        specs, placement, cluster_kw, seed=seed, max_queued=max_queued
    )).report)


# -- triggers -----------------------------------------------------------------

def _until(
    scheduler: FleetScheduler, ready: Callable[[], object]
) -> Generator[Event, object, bool]:
    """Poll every tick until ``ready()`` holds (True) or the fleet drains
    first (False)."""
    while not all(j.status in TERMINAL for j in scheduler.jobs.values()):
        yield scheduler.cluster.engine.timeout(_POLL)
        if ready():
            return True
    return False


def _kill_trigger(
    point: FleetChaosPoint, scheduler: FleetScheduler, record: dict
) -> Iterator[Event]:
    """Kill the first node hosting exactly ``point.hosted`` jobs, once
    every job has made a step of progress (so the kill lands mid-training)."""

    def candidates() -> list:
        active = [
            j for j in scheduler.jobs.values() if j.status not in TERMINAL
        ]
        if not (active and all(j.telemetry.steps >= 1 for j in active)):
            return []
        return [
            n for n in scheduler.cluster.nodes
            if n.alive and len(n.held) == point.hosted
        ]

    if not (yield from _until(scheduler, candidates)):
        record["skipped"] = "fleet drained before a kill candidate appeared"
        return
    node = candidates()[0]
    record["node"] = node.index
    record["jobs"] = sorted(node.held)
    scheduler.kill_node(node.index)


def _degrade_trigger(
    point: FleetChaosPoint, scheduler: FleetScheduler, record: dict
) -> Iterator[Event]:
    """Degrade rack 0's spine uplinks to 5% mid-run, then restore them."""
    cluster = scheduler.cluster
    if not (yield from _until(scheduler, lambda: any(
        j.telemetry.steps >= 1 for j in scheduler.jobs.values()
    ))):
        record["skipped"] = "fleet drained before degrade window"
        return
    cluster.degrade_rack_uplinks(0, 0.05)
    yield cluster.engine.timeout(5e-4)
    cluster.degrade_rack_uplinks(0, 1.0)


def _preempt_in_checkpoint_trigger(
    point: FleetChaosPoint, scheduler: FleetScheduler, record: dict
) -> Iterator[Event]:
    """Deliver a preemption while the victim is inside a checkpoint write —
    the torn-write window the job must commit through, then vacate from."""
    victim = scheduler.jobs["victim"]
    if not (yield from _until(scheduler, lambda: (
        victim.status == "checkpointing"
        and not victim.preempt_pending
        and victim.proc is not None
        and victim.proc.is_alive
    ))):
        record["skipped"] = "victim never entered a checkpoint window"
        return
    victim.preempt_pending = True
    victim.proc.interrupt(PreemptionNotice())
    scheduler._log(
        "preempt", "victim preempted inside its checkpoint window",
        job="victim",
    )


def _shrink_then_revive(
    scheduler: FleetScheduler, record: dict
) -> Generator[Event, object, int | None]:
    """Shared grow preamble: kill one of "long"'s nodes mid-training,
    wait for the elastic shrink to land, then revive the node — the
    revival's placement kick hands the freed slot straight back as a
    grow grant (``job.pending_grows``) in the same simulated instant.

    Yields until done; sets ``record['skipped']`` if the window never
    opened.  Returns the revived node index, or ``None`` on skip.
    """
    job = scheduler.jobs["long"]
    if not (yield from _until(scheduler, lambda: job.status in TERMINAL or (
        job.telemetry.steps >= 1 and job.n_live > 1
    ))):
        record["skipped"] = "long never reached the kill window"
        return None
    if job.status in TERMINAL:
        record["skipped"] = "long terminal before the kill window"
        return None
    node = job.placement[-1]
    scheduler.kill_node(node)
    if (yield from _until(scheduler, lambda: job.status in TERMINAL or (
        job.n_live == 1 and node not in job.placement
    ))) and job.status in TERMINAL:
        record["skipped"] = "long terminal before regrowing"
        return None
    scheduler.revive_node(node)
    return node


def _grow_in_flight_kill_trigger(
    point: FleetChaosPoint, scheduler: FleetScheduler, record: dict
) -> Iterator[Event]:
    """Kill a *granted-but-not-yet-joined* node: the grant must be
    revoked (never half-joined), and a later revival must still grow the
    job back to full strength."""
    job = scheduler.jobs["long"]
    node = yield from _shrink_then_revive(scheduler, record)
    if node is None:
        return
    # The revival's kick granted the slot synchronously; no simulated
    # time has passed, so the learner cannot have joined yet.
    if node not in job.pending_grows:
        record["skipped"] = "revived node was not granted back"
        return
    scheduler.kill_node(node)
    # Second revival: this grant is allowed to complete.
    yield scheduler.cluster.engine.timeout(_POLL)
    scheduler.revive_node(node)


def _kill_in_grow_replay_trigger(
    point: FleetChaosPoint, scheduler: FleetScheduler, record: dict
) -> Iterator[Event]:
    """Kill a placement node again *after* a grow has joined, so the
    lineage interleaves shrink → grow → shrink → grow and the reference
    replay must reproduce all four."""
    job = scheduler.jobs["long"]
    if (yield from _shrink_then_revive(scheduler, record)) is None:
        return
    if not (yield from _until(scheduler, lambda: job.status in TERMINAL or (
        job.grow_log and job.n_live > 1
    ))):
        return
    if job.status in TERMINAL:
        record["skipped"] = "long terminal before its grow"
        return
    second = job.placement[-1]
    scheduler.kill_node(second)
    if (yield from _until(scheduler, lambda: job.status in TERMINAL or (
        job.n_live == 1 and second not in job.placement
    ))) and job.status not in TERMINAL:
        scheduler.revive_node(second)


def _node_flap_trigger(
    point: FleetChaosPoint, scheduler: FleetScheduler, record: dict
) -> Iterator[Event]:
    """Full flap: kill → revive → grow back, then degrade the revived
    node's links to 5% until the health monitor drains it and the job
    migrates off proactively, then restore the links and the node."""
    job = scheduler.jobs["long"]
    node = yield from _shrink_then_revive(scheduler, record)
    if node is None:
        return
    short = scheduler.jobs["short"]
    # Degrade only once the grow joined and "short" has freed a
    # migration target, so the drain can grant a replacement.
    if not (yield from _until(scheduler, lambda: job.status in TERMINAL or (
        job.grow_log and node in job.placement and short.status in TERMINAL
    ))):
        return
    if job.status in TERMINAL:
        record["skipped"] = "long terminal before its grow"
        return
    record["degraded"] = node
    scheduler.cluster.degrade_node_links(node, 0.05)
    if (yield from _until(
        scheduler, lambda: node not in job.placement or job.status in TERMINAL
    )):
        # Migrated off (or finished): restore the flapping NIC.
        scheduler.cluster.degrade_node_links(node, 1.0)
        scheduler.undrain_node(node)


# -- kind-specific invariants -------------------------------------------------

def _check_kill_named(point: FleetChaosPoint, run: FleetRun, refs: References) -> list[str]:
    """Invariant 5: the node-kill diagnosis names the node and every
    hosted job."""
    kills = [e for e in run.report.events if e.kind == "node-kill"]
    if not kills:
        return ["node killed but no node-kill event logged"]
    violations = []
    event = kills[0]
    hosted_jobs = run.record.get("jobs", [])
    if len(hosted_jobs) != point.hosted:
        violations.append(
            f"victim node hosted {len(hosted_jobs)} jobs, "
            f"point wanted {point.hosted}"
        )
    for name in hosted_jobs:
        if f"job {name} " not in event.text:
            violations.append(
                f"node-kill diagnosis does not name hosted job "
                f"{name!r}: {event.text!r}"
            )
    if f"node {run.record['node']} " not in event.text:
        violations.append(
            f"node-kill diagnosis does not name the node: {event.text!r}"
        )
    return violations


def _check_grown(point: FleetChaosPoint, run: FleetRun, refs: References) -> list[str]:
    """Invariant 6: a grow point actually grew (the reference replay
    already proved the grown params bit-exact)."""
    if run.scheduler.jobs["long"].grow_log:
        return []
    return ["grow point finished without a single recorded grow"]


def _check_revoked(point: FleetChaosPoint, run: FleetRun, refs: References) -> list[str]:
    if any(e.kind == "grow-revoked" for e in run.report.events):
        return []
    return ["in-flight kill never revoked the granted slot"]


def _check_flap(point: FleetChaosPoint, run: FleetRun, refs: References) -> list[str]:
    violations = []
    if run.scheduler.jobs["long"].telemetry.migrations < 1:
        violations.append("flap point never migrated a learner")
    for needed in ("drain", "migrate"):
        if not any(e.kind == needed for e in run.report.events):
            violations.append(f"flap point logged no {needed} event")
    migrates = [e for e in run.report.events if e.kind == "migrate"]
    if migrates and (
        f"node {run.record.get('degraded')} " not in migrates[0].text
        or "degraded links" not in migrates[0].text
    ):
        violations.append(
            f"migration not attributed to the sick node and its "
            f"drain reason: {migrates[0].text!r}"
        )
    return violations


def _check_sdc(point: FleetChaosPoint, run: FleetRun, refs: References) -> list[str]:
    """Invariant 8: every flip detected and quarantined before any
    optimizer apply, repeat strikes drain the node, hosted learners
    migrate, and fingerprinting leaves a clean fleet's event log
    byte-identical."""
    violations: list[str] = []
    jobs = run.scheduler.jobs.values()
    events = run.report.events
    detects = [e for e in events if e.kind == "sdc-detect"]
    injected = sum(len(j.sdc_injected) for j in jobs)
    expected = sum(len(j.spec.sdc_faults) for j in jobs)
    if injected != expected:
        violations.append(
            f"{expected} scripted sdc flips but only {injected} injected"
        )
    if len(detects) != injected:
        violations.append(
            f"{injected} injected flips but {len(detects)} sdc-detect "
            f"events — a flip reached the optimizer undetected"
        )
    for job in jobs:
        for iteration, slot, _bucket in job.sdc_injected:
            if (iteration, slot) not in job.shrink_log:
                violations.append(
                    f"job {job.name}: flip at iteration {iteration} slot "
                    f"{slot} never quarantined (shrinks {job.shrink_log})"
                )
    for kind, missing in (
        ("drain", "repeat SDC strikes never drained the offending node"),
        ("migrate", "no learner migrated off the drained corrupting node"),
    ):
        if not any(e.kind == kind and "corruption" in e.text for e in events):
            violations.append(missing)
    # Clean-fleet equivalence: same workload and seed, faults stripped, no
    # health monitor — the event timeline must be byte-identical with
    # fingerprinting on and off (zero-sim-event bookkeeping).  The
    # fingerprint-on run is the point's makespan reference.
    logs = []
    for check in (True, False):
        clean_specs = [
            replace(
                j.spec, sdc_faults=(),
                sdc_buckets=j.spec.sdc_buckets if check else None,
            )
            for j in jobs
        ]
        clean = _fault_free(
            refs, clean_specs, point.placement, SCENARIOS["sdc"].cluster,
            seed=run.scheduler.seed,
        )
        logs.append([str(e) for e in clean.events])
    if logs[0] != logs[1]:
        violations.append(
            "fingerprinting perturbed a clean fleet's event log "
            "(zero-sim-event bookkeeping broken)"
        )
    return violations


# -- the scenario table -------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Everything the sweep knows about one fleet chaos kind."""

    #: ``n_jobs -> specs`` of the workload the disturbance hits.
    workload: Callable[[int], list[JobSpec]]
    #: :class:`SharedCluster` keyword arguments.
    cluster: dict
    #: Workload sizes of the smoke sweep; the full sweep adds ``full_n_jobs``.
    n_jobs: tuple[int, ...]
    full_n_jobs: tuple[int, ...] = ()
    #: node-kill only: how many jobs the victim node hosts.
    hosted: tuple[int | None, ...] = (None,)
    trigger: Trigger | None = None
    health: HealthPolicy | None = None
    #: Admission limit; every burst job queues, so the ones beyond it are
    #: the rejections the no-job-lost invariant expects.
    max_queued: int | None = None
    #: The kind's own invariants, checked once its trigger fired.
    checks: tuple[Check, ...] = ()


def _jobs(n_jobs: int) -> list[JobSpec]:
    return [
        JobSpec(name=f"job{i}", n_learners=2, n_steps=5, seed=100 + i)
        for i in range(n_jobs)
    ]


def _burst(n_jobs: int) -> list[JobSpec]:
    # One-slot nodes so the burst actually queues; the admission limit
    # turns the deepest arrival into a counted rejection, not a loss.
    return [
        JobSpec(name=f"base{i}", n_learners=3, n_steps=4,
                seed=300 + i, arrival=0.0)
        for i in range(2)
    ] + [
        JobSpec(name=f"burst{i}", n_learners=3, n_steps=3,
                seed=320 + i, arrival=3e-4)
        for i in range(n_jobs)
    ]


def _preempt(n_jobs: int) -> list[JobSpec]:
    return [
        JobSpec(name="victim", n_learners=4, n_steps=5, seed=400,
                checkpoint_every=1, checkpoint_time=5e-4),
        JobSpec(name="vip", n_learners=6, n_steps=3, seed=401,
                priority=5, arrival=1.5e-3),
    ]


def _grow(n_jobs: int) -> list[JobSpec]:
    # Tight one-slot cluster: killing one of "long"'s nodes shrinks it,
    # and the revived node is the only capacity its elastic grow can
    # reclaim.  "short" finishes early, freeing migration targets for
    # the flap scenario.
    return [
        JobSpec(name="long", n_learners=2, n_steps=8, seed=500,
                elastic_grow=True, checkpoint_every=3),
        JobSpec(name="short", n_learners=2, n_steps=3, seed=501),
    ]


def _sdc(n_jobs: int) -> list[JobSpec]:
    # Three co-located 3-gangs on a 4-node cluster: both sick jobs'
    # slot-1 learners share a node (under pack *and* spread), so two
    # confirmed strikes drain it; node 3 stays free as the clean job's
    # migration target.
    return [
        JobSpec(name="sickA", n_learners=3, n_steps=6, seed=600,
                sdc_buckets=2, sdc_faults=((1, 1, 0),)),
        JobSpec(name="sickB", n_learners=3, n_steps=6, seed=601,
                sdc_buckets=2, sdc_faults=((2, 1, 1),)),
        JobSpec(name="clean", n_learners=3, n_steps=10, seed=602,
                sdc_buckets=2, elastic_grow=True),
    ]


_WIDE = dict(n_racks=2, nodes_per_rack=4, slots_per_node=2)
_WIDE_ONE_SLOT = dict(n_racks=2, nodes_per_rack=4, slots_per_node=1)
_TIGHT = dict(n_racks=2, nodes_per_rack=2, slots_per_node=1)

#: Health policy for the node-flap point: link-factor-only (a clean run's
#: factor is exactly 1.0, so a healthy fleet can never drain), two strikes.
_FLAP_HEALTH = HealthPolicy(
    policy=DrainPolicy(
        link_factor_threshold=0.5, queue_depth_threshold=None, strikes=2
    ),
    poll_every=2e-4,
)

#: Health policy for the sdc point: SDC-strikes-only (a clean run books
#: zero strikes, so a healthy fleet can never drain); the ledger already
#: counts *confirmed* detections, so one poll over threshold suffices.
_SDC_HEALTH = HealthPolicy(
    policy=DrainPolicy(
        link_factor_threshold=None, queue_depth_threshold=None,
        sdc_threshold=2, strikes=1,
    ),
    poll_every=2e-4,
)

#: Every fleet chaos kind, in sweep order.  3 and 5 jobs both leave the
#: cluster with at least one singly- and one doubly-hosted node under
#: *both* placement policies (4 jobs pair up perfectly and leave no
#: singly-hosted node to kill).
SCENARIOS: dict[str, Scenario] = {
    "node-kill": Scenario(
        _jobs, _WIDE, n_jobs=(3,), full_n_jobs=(5,), hosted=(1, 2),
        trigger=_kill_trigger, checks=(_check_kill_named,),
    ),
    "link-degrade": Scenario(
        _jobs, _WIDE, n_jobs=(2,), trigger=_degrade_trigger,
    ),
    "burst-arrival": Scenario(
        _burst, _WIDE_ONE_SLOT, n_jobs=(3,), max_queued=2,
    ),
    "preempt-in-checkpoint": Scenario(
        _preempt, _WIDE_ONE_SLOT, n_jobs=(2,),
        trigger=_preempt_in_checkpoint_trigger,
    ),
    "grow-in-flight-kill": Scenario(
        _grow, _TIGHT, n_jobs=(2,), trigger=_grow_in_flight_kill_trigger,
        checks=(_check_grown, _check_revoked),
    ),
    "kill-in-grow-replay": Scenario(
        _grow, _TIGHT, n_jobs=(2,), trigger=_kill_in_grow_replay_trigger,
        checks=(_check_grown,),
    ),
    "node-flap": Scenario(
        _grow, _TIGHT, n_jobs=(2,), trigger=_node_flap_trigger,
        health=_FLAP_HEALTH, checks=(_check_grown, _check_flap),
    ),
    "sdc": Scenario(
        _sdc, dict(n_racks=2, nodes_per_rack=2, slots_per_node=3),
        n_jobs=(3,), health=_SDC_HEALTH, checks=(_check_sdc,),
    ),
}

FLEET_KINDS = tuple(SCENARIOS)
#: Grow/flap points: the elastic-grow and proactive-migration scenarios.
GROW_KINDS = ("grow-in-flight-kill", "kill-in-grow-replay", "node-flap")
#: Silent-data-corruption points: scripted gradient bit-flips.
SDC_KINDS = ("sdc",)


# -- the shared invariants ----------------------------------------------------

def _reference_params(
    spec: JobSpec,
    shrinks: tuple[tuple[int, int], ...],
    grows: tuple[tuple[int, int], ...],
    cluster_kw: dict,
    refs: References,
) -> np.ndarray:
    """Final params of a fault-free solo run replaying the full lineage:
    ``shrinks`` as controlled shrinks *and* ``grows`` as scripted grows
    (elastic grow itself disabled, so the reference only ever does what
    the script says)."""

    ref_spec = replace(
        spec, arrival=0.0, priority=0, elastic_grow=False,
        scripted_shrinks=tuple(shrinks), scripted_grows=tuple(grows),
        sdc_faults=(),
    )

    def build() -> np.ndarray:
        job = _run_fleet([ref_spec], "pack", cluster_kw).scheduler.jobs[spec.name]
        if job.status != "finished" or job.final_params is None:
            raise RuntimeError(
                f"reference run for {spec.name!r} did not finish "
                f"(status {job.status!r})"
            )
        return job.final_params

    # Keyed by the solo run's inputs: every field of the spec (n_classes
    # sets the params' shape) and the cluster.
    return refs.get(("params", ref_spec, tuple(sorted(cluster_kw.items()))), build)


def _check_point(
    point: FleetChaosPoint,
    scenario: Scenario,
    run: FleetRun,
    ref_makespan: float,
    refs: References,
) -> list[str]:
    report, scheduler, record = run
    violations: list[str] = []
    if "skipped" in record:
        violations.append(f"trigger never fired: {record['skipped']}")
    # 1. No job lost or duplicated; 2 & 6. bit-exact params vs the
    # fault-free reference replaying the job's full recorded lineage.
    names = [j.name for j in report.jobs]
    if len(set(names)) != len(names):
        violations.append(f"duplicated job summaries: {names}")
    rejected = [j.name for j in report.jobs if j.status == "rejected"]
    for summary in report.jobs:
        if summary.status == "rejected":
            continue
        if summary.status != "finished":
            violations.append(
                f"job {summary.name} lost: terminal status {summary.status!r}"
            )
            continue
        job = scheduler.jobs[summary.name]
        if job.final_iteration != job.spec.n_steps:
            violations.append(
                f"job {summary.name} finished at iteration "
                f"{job.final_iteration} != {job.spec.n_steps}"
            )
        ref = _reference_params(
            job.spec, tuple(job.shrink_log), tuple(job.grow_log),
            scenario.cluster, refs,
        )
        if not np.array_equal(job.final_params, ref):
            violations.append(
                f"job {summary.name} params diverge from its fault-free "
                f"reference (shrinks {job.shrink_log}, "
                f"grows {job.grow_log})"
            )
    expect_rejects = (
        max(0, point.n_jobs - scenario.max_queued)
        if scenario.max_queued is not None else 0
    )
    if len(rejected) != expect_rejects:
        violations.append(
            f"expected {expect_rejects} admission rejections, got "
            f"{len(rejected)}: {rejected}"
        )
    # 3. Bounded makespan.
    bound = _MAKESPAN_FACTOR * ref_makespan + _MAKESPAN_SLACK
    if not (0.0 <= report.makespan <= bound):
        violations.append(
            f"makespan {report.makespan:.4f}s exceeds bound {bound:.4f}s "
            f"(ref {ref_makespan:.4f}s)"
        )
    # 4. No leaked placements.
    if report.leaked:
        violations.append(f"leaked placements: {report.leaked}")
    # 5, 6 and 8: the kind's own invariants, once its trigger fired.
    if "skipped" not in record:
        for check in scenario.checks:
            violations.extend(check(point, run, refs))
    # 7. No slot double-granted: every grant resolves exactly once.
    violations.extend(_audit_grow_grants(report))
    return violations


def _audit_grow_grants(report: FleetReport) -> list[str]:
    """Replay the event log's grant lifecycle (invariant 7).

    A ``grow-grant`` (or a migration's replacement grant) opens exactly
    one outstanding ``(job, node)`` claim; a ``grow`` or ``grow-revoked``
    closes it.  Two simultaneous claims on one pair, a close without an
    open, or a claim still open once the fleet drained all violate the
    no-double-grant invariant.
    """
    violations: list[str] = []
    outstanding: set[tuple[str, int]] = set()
    for event in report.events:
        job = event.data.get("job")
        if event.kind == "grow-grant" or (
            event.kind == "migrate" and "replacement" in event.data
        ):
            key = (job, event.data.get("replacement", event.data.get("node")))
            if key in outstanding:
                violations.append(
                    f"{event.kind} grants node {key[1]} to {key[0]} with an "
                    f"earlier grant still outstanding"
                )
            outstanding.add(key)
        elif event.kind in ("grow", "grow-revoked"):
            key = (job, event.data.get("node"))
            if key not in outstanding:
                violations.append(
                    f"{event.kind} of node {key[1]} for {key[0]} without "
                    f"an outstanding grant"
                )
            outstanding.discard(key)
    for job, node in sorted(outstanding, key=str):
        violations.append(
            f"grant of node {node} to {job} never resolved (no grow or "
            f"revoke before drain)"
        )
    return violations


# -- the sweep ----------------------------------------------------------------

def _points(
    kinds: Sequence[str], placements: Sequence[str], smoke: bool,
) -> list[FleetChaosPoint]:
    return [
        FleetChaosPoint(kind, placement, n_jobs, hosted)
        for placement in placements
        for kind, scenario in SCENARIOS.items()
        if kind in kinds
        for n_jobs in scenario.n_jobs + (() if smoke else scenario.full_n_jobs)
        for hosted in scenario.hosted
    ]


def _run_point(point: FleetChaosPoint, refs: References, seed: int) -> ChaosOutcome:
    scenario = SCENARIOS[point.kind]
    specs = scenario.workload(point.n_jobs)
    run = _run_fleet(
        specs, point.placement, scenario.cluster,
        seed=seed, max_queued=scenario.max_queued, health=scenario.health,
        trigger=None if scenario.trigger is None
        else partial(scenario.trigger, point),
    )
    # The sdc point's disturbance lives in the specs themselves; strip it
    # so the makespan reference is genuinely fault-free.  A point with no
    # disturbance at all (burst-arrival) is its own reference.
    clean = [replace(s, sdc_faults=()) for s in specs]
    undisturbed = (
        scenario.trigger is None and scenario.health is None and clean == specs
    )
    ref_makespan = _fault_free(
        refs, clean, point.placement, scenario.cluster, seed=seed,
        max_queued=scenario.max_queued, run=run if undisturbed else None,
    ).makespan
    return ChaosOutcome(
        point, _check_point(point, scenario, run, ref_makespan, refs),
        fired="skipped" not in run.record, makespan=run.report.makespan,
        ref_makespan=ref_makespan, result=run.report,
    )


def fleet_chaos_sweep(
    *,
    kinds: Sequence[str] | None = None,
    placements: Sequence[str] = ("pack", "spread"),
    smoke: bool = False,
    seed: int = 0,
) -> ChaosReport:
    """Run every chaos point of ``kinds`` (default: all) and check the
    fleet invariants."""
    points = _points(select_kinds("fleet", kinds, FLEET_KINDS), placements, smoke)
    return sweep(
        "fleet", lambda refs: points,
        lambda point, refs: _run_point(point, refs, seed),
    )
