"""The fleet health monitor: straggler signals into proactive drains.

Synchronous SGD runs at the pace of its slowest learner (the barrier-max
model in :mod:`repro.train.faults`), so a node that is degraded but not
dead — a flapping NIC, an oversubscribed reduce CPU — silently throttles
every job it hosts until a collective watchdog finally times out.  The
monitor closes that gap: it polls each live node's runtime signals
(worst residual link-bandwidth factor via
:meth:`~repro.fleet.cluster.SharedCluster.node_link_factor`, reduce-CPU
queue depth via :meth:`~repro.mpi.world.MPIWorld.cpu_queue_depth`, and
confirmed silent-data-corruption strikes from the node's
:attr:`~repro.fleet.control.Node.sdc` ledger),
classifies them with a pure :class:`~repro.train.faults.DrainPolicy`,
and — after the policy's ``strikes`` *consecutive* unhealthy polls, so a
single transient queue spike never moves a learner — asks the scheduler
to :meth:`~repro.fleet.scheduler.FleetScheduler.drain_node`, migrating
hosted learners off before the watchdog ever fires.

The monitor is opt-in (``FleetScheduler(..., health=HealthPolicy())``)
and purely observational until it drains: a healthy fleet's event
timeline, placements and makespan are identical with or without it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fleet.jobs import TERMINAL
from repro.train.faults import DrainPolicy, NodeHealthSignal

if TYPE_CHECKING:  # circular at runtime: scheduler imports this module
    from repro.fleet.cluster import SharedCluster
    from repro.fleet.scheduler import FleetScheduler
    from repro.sim.engine import Event

__all__ = ["HealthPolicy", "health_monitor"]


@dataclass(frozen=True)
class HealthPolicy:
    """How the fleet watches node health: what to flag, how often to look."""

    policy: DrainPolicy = field(default_factory=DrainPolicy)
    #: Simulated seconds between polls of every live node.
    poll_every: float = 5e-4

    def __post_init__(self) -> None:
        if self.poll_every <= 0:
            raise ValueError("poll_every must be positive")


def health_monitor(
    cluster: SharedCluster, scheduler: FleetScheduler, health: HealthPolicy,
) -> Iterator[Event]:
    """Generator process: poll node signals, drain after sustained strikes.

    Strike counters are per node and reset by any healthy poll, by a
    node death and by an in-progress drain — the hysteresis lives here,
    on top of the policy's pure per-poll :meth:`DrainPolicy.classify`.
    Exits once every job is terminal so the engine can drain.
    """
    engine = cluster.engine
    policy = health.policy
    strikes: dict[int, int] = {}
    while any(
        job.status not in TERMINAL for job in scheduler.jobs.values()
    ):
        yield engine.timeout(health.poll_every)
        for node in cluster.nodes:
            if not node.alive or node.draining:
                strikes.pop(node.index, None)
                continue
            signal = NodeHealthSignal(
                node=node.index,
                cpu_queue_depth=cluster.world.cpu_queue_depth(node.index),
                link_factor=min(1.0, cluster.node_link_factor(node.index)),
                sdc_count=node.sdc,
            )
            reason = policy.classify(signal)
            if reason is None:
                strikes.pop(node.index, None)
                continue
            count = strikes.get(node.index, 0) + 1
            strikes[node.index] = count
            if count >= policy.strikes:
                strikes.pop(node.index, None)
                scheduler.drain_node(node.index, reason)
