"""Multi-tenant fleet layer: many trainer jobs on one shared cluster.

See DESIGN.md §4h.  The pieces:

* :class:`~repro.fleet.cluster.SharedCluster` — nodes, racks, the shared
  engine/fabric/world, and the utilization integrals;
* :mod:`~repro.fleet.control` — the control core: one state (nodes,
  jobs, queue) and the transitions the scheduler and the model checker
  (:mod:`~repro.fleet.verify`) both run;
* :class:`~repro.fleet.jobs.JobSpec` / :class:`~repro.fleet.jobs.FleetJob`
  — deterministic job definitions and their runtime training programs;
* :class:`~repro.fleet.collective.FleetAttempt` — a job's allreduce
  attempt for the shared watchdog/retry/surgical-repair guard
  (:mod:`repro.mpi.guard`) on the shared engine;
* :class:`~repro.fleet.scheduler.FleetScheduler` — gang scheduling,
  pack/spread placement, priority preemption, seeded-backoff requeue,
  elastic grow-after-shrink and proactive drain/migration;
* :mod:`~repro.fleet.health` — the opt-in straggler monitor that turns
  per-node runtime signals into proactive drains;
* :func:`~repro.fleet.chaos.fleet_chaos_sweep` — the fleet-level chaos
  plane of the chaos harness (:mod:`repro.chaos`).
"""

from repro.fleet.chaos import fleet_chaos_sweep
from repro.fleet.cluster import SharedCluster
from repro.fleet.collective import FleetAttempt, JobLost
from repro.fleet.control import Node
from repro.fleet.health import HealthPolicy, health_monitor
from repro.fleet.jobs import (
    FleetJob,
    JobSpec,
    PreemptionNotice,
    validate_scripted_lineage,
)
from repro.fleet.scheduler import (
    FleetEvent,
    FleetReport,
    FleetScheduler,
    JobSummary,
)

__all__ = [
    "FleetAttempt",
    "FleetEvent",
    "FleetJob",
    "FleetReport",
    "FleetScheduler",
    "HealthPolicy",
    "JobLost",
    "JobSpec",
    "JobSummary",
    "Node",
    "PreemptionNotice",
    "SharedCluster",
    "fleet_chaos_sweep",
    "health_monitor",
    "validate_scripted_lineage",
]
