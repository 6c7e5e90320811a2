"""Replay abstract checker traces through the real fleet scheduler.

A counterexample from :func:`repro.fleet.verify.explore.verify_fleet` is
a sequence of abstract events.  This module compiles such a trace into a
concrete workload — one :class:`~repro.fleet.jobs.JobSpec` per arriving
model job (arrival order, step counts, SDC injections all taken from the
trace) plus a chaos driver that fires the trace's node events in order —
and runs it through a real :class:`~repro.fleet.scheduler.FleetScheduler`
on a real :class:`~repro.fleet.cluster.SharedCluster`.

The real engine schedules in continuous time, so the replay reproduces
the trace's *event order*, not its exact interleaving with collective
internals; it is the bridge that turns an abstract counterexample into a
runnable repro script.  The scheduler's control state is the very
:class:`~repro.fleet.control.ControlState` the checker explores, so the
audit evaluates the checker's eight invariants on it — after every node
event the replay fires and once the fleet drains — plus any
``SimulationError`` the run dies of.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

from repro.fleet.cluster import SharedCluster
from repro.fleet.jobs import JobSpec
from repro.fleet.scheduler import FleetReport, FleetScheduler
from repro.fleet.verify.explore import Bounds, Event
from repro.fleet.verify.invariants import check_invariants
from repro.sim.engine import Event as EngineEvent
from repro.sim.engine import SimulationError

__all__ = ["ReplayResult", "replay_trace", "trace_specs"]

#: Simulated seconds between consecutive trace events in the replay.
EVENT_SPACING = 2e-3


@dataclass
class ReplayResult:
    """A replayed trace: the real run's report plus the ledger audit."""

    report: FleetReport
    notes: list[str]

    @property
    def ok(self) -> bool:
        return not self.notes

    def format(self) -> str:
        lines = [self.report.format()]
        if self.notes:
            lines.append("replay audit:")
            lines += [f"  FAIL {note}" for note in self.notes]
        else:
            lines.append("replay audit: clean (all invariants hold)")
        return "\n".join(lines)


def trace_specs(bounds: Bounds, trace: tuple[Event, ...]) -> list[JobSpec]:
    """Compile the trace's per-job story into concrete ``JobSpec``s.

    Only jobs that arrive in the trace get a spec.  A job's ``n_steps``
    is the number of ``step`` events it completed before its ``finish``
    (the checker finishes a job after any completed iteration); a job still
    running when the trace ends gets one extra step so the replay keeps
    it alive through the full event sequence.  ``sdc`` events become
    scripted SDC injections at the iteration the trace fired them (which
    the job then runs, even past its ``finish``).
    """
    specs: list[JobSpec] = []
    for model_spec in bounds.jobs:
        name = model_spec.name
        arrival_pos = None
        steps_seen = 0
        finish_steps = None
        sdc_faults: list[tuple[int, int, int]] = []
        for pos, event in enumerate(trace):
            if event.job != name:
                continue
            if event.kind == "arrive":
                arrival_pos = pos
            elif event.kind == "step":
                steps_seen += 1
            elif event.kind == "finish":
                finish_steps = steps_seen
            elif event.kind == "sdc":
                sdc_faults.append((steps_seen, event.slot or 0, 0))
        if arrival_pos is None:
            continue
        n_steps = finish_steps if finish_steps is not None else steps_seen + 1
        # An SDC fired after the last step is detected in the iteration
        # after it, which the job must then run.
        n_steps = max([n_steps] + [it + 1 for it, _slot, _b in sdc_faults])
        specs.append(JobSpec(
            name=name,
            n_learners=model_spec.target,
            n_steps=max(1, n_steps),
            arrival=EVENT_SPACING * (arrival_pos + 1),
            priority=model_spec.priority,
            seed=len(specs),
            elastic_grow=model_spec.elastic_grow,
            preemption=model_spec.preemption,
            # The model checkpoints at every boundary (its documented
            # abstraction); the replay matches it.
            checkpoint_every=1,
            checkpoint_time=1e-4,
            sdc_buckets=2 if sdc_faults else None,
            sdc_faults=tuple(sdc_faults),
        ))
    return specs


def _chaos_driver(
    scheduler: FleetScheduler, trace: tuple[Event, ...],
    audit: Callable[[str], None],
) -> Iterator[EngineEvent]:
    """Fire the trace's node events in order, one spacing apart, and
    audit the control state after each."""
    engine = scheduler.cluster.engine
    for pos, event in enumerate(trace):
        if event.kind not in ("kill", "revive", "drain", "undrain"):
            continue
        target = EVENT_SPACING * (pos + 1)
        if target > engine.now:
            yield engine.timeout(target - engine.now)
        node = event.node or 0
        if event.kind == "kill":
            scheduler.kill_node(node)
        elif event.kind == "revive":
            scheduler.revive_node(node)
        elif event.kind == "drain":
            scheduler.drain_node(node, reason="verify-replay")
        else:
            scheduler.undrain_node(node)
        audit(f"after {event}")


def replay_trace(
    bounds: Bounds, trace: tuple[Event, ...], *, placement: str | None = None
) -> ReplayResult:
    """Run the trace's workload + chaos through the real control plane."""
    cluster = SharedCluster(
        n_racks=bounds.n_racks,
        nodes_per_rack=bounds.nodes_per_rack,
        slots_per_node=bounds.slots_per_node,
    )
    specs = trace_specs(bounds, trace)
    scheduler = FleetScheduler(
        cluster,
        specs,
        placement=placement or bounds.placement,
        seed=0,
        max_requeues=bounds.max_requeues,
        requeue_base=1e-3,
    )
    # Lineage iterations run up to each replayed job's own n_steps.
    audit_bounds = replace(
        bounds, max_steps=max((s.n_steps for s in specs), default=1)
    )
    notes: list[str] = []

    def audit(when: str) -> None:
        for v in check_invariants(scheduler.control, audit_bounds):
            note = f"{v.invariant}: {v.detail}"
            if not any(n.endswith(note) for n in notes):
                notes.append(f"{when}: {note}")

    if any(e.kind in ("kill", "revive", "drain", "undrain") for e in trace):
        scheduler.spawn(
            _chaos_driver(scheduler, trace, audit), name="verify-replay-chaos"
        )
    try:
        report = scheduler.run()
    except SimulationError as exc:
        notes.append(f"simulation error: {exc}")
        report = scheduler.report()
    audit("at the end")
    return ReplayResult(report, notes)
