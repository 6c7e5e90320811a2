"""Pure fleet control-plane policy: every scheduler *decision* as a function.

Placement scoring, queue order, grow-offer order and grow-node choice,
preemption-victim selection and drain gating are pure functions over a
serializable :class:`FleetState` snapshot.  The control core
(:mod:`repro.fleet.control`) calls them on
:meth:`~repro.fleet.control.ControlState.snapshot` before every
decision, and both the runtime scheduler and the model checker
(:mod:`repro.fleet.verify`) run that core — so a policy bug the checker
proves absent is absent from the runtime too, and a mutation of this
file is visible to both.

This is also the seam a DRF allocator targets: weighted fair sharing
replaces these functions (share-aware ``scan_order`` /
``grow_offer_order`` / ``select_preemption_victims``) without touching
the control core's plumbing, and inherits the checker for free.

Nothing here mutates anything, reads a clock, or draws randomness:
``decision = f(FleetState)``, always.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "FleetState",
    "JobView",
    "NodeView",
    "choose_placement",
    "drain_admissible",
    "grow_offer_order",
    "pick_grow_node",
    "scan_order",
    "select_preemption_victims",
    "wants_grow",
]

#: Job statuses with a live program attached (placement-holding states).
ACTIVE_STATUSES = ("running", "checkpointing")


class NodeView(NamedTuple):
    """One node as the placement policies see it.

    (A ``NamedTuple``, not a dataclass: the model checker builds millions
    of these while exploring, and tuple construction is what keeps the
    smoke bound inside its time budget.)
    """

    index: int
    rack: int
    slots: int
    used: int
    alive: bool
    draining: bool

    @property
    def free(self) -> int:
        return self.slots - self.used if self.alive else 0

    @property
    def placeable(self) -> bool:
        return self.alive and self.free > 0 and not self.draining


class JobView(NamedTuple):
    """One job as the queue/grow/preemption policies see it."""

    name: str
    priority: int
    #: FIFO tiebreak: first-enqueue order (``-1`` = never enqueued).
    order: int
    #: Raw job status string (``"running"``, ``"queued"``, ...).
    status: str
    #: True while the job's program runs (an active status; the core
    #: leaves those statuses before it releases a stopping job's slots).
    active: bool
    preemption: str
    elastic_grow: bool
    #: Full gang size the job wants to (re)grow towards.
    target: int
    #: Gang size for the next (re)start: the saved lineage's learner
    #: count after a checkpoint, else ``target``.
    needed: int
    placement: tuple[int, ...]
    pending_grows: tuple[int, ...]
    pending_shrinks: int
    preempt_pending: bool

    @property
    def n_live(self) -> int:
        return len(self.placement)


class FleetState(NamedTuple):
    """Serializable control-plane snapshot every decision is a function of."""

    placement_policy: str
    nodes: tuple[NodeView, ...]
    jobs: tuple[JobView, ...]
    #: Names of queued jobs, in enqueue order.
    queue: tuple[str, ...]

    def job(self, name: str) -> JobView:
        for job in self.jobs:
            if job.name == name:
                return job
        raise KeyError(name)

    def node(self, index: int) -> NodeView:
        return self.nodes[index]


# -- queue scan ---------------------------------------------------------------

def scan_order(state: FleetState) -> tuple[str, ...]:
    """Queue scan order: strict priority, FIFO within a priority band."""
    queued = [state.job(name) for name in state.queue]
    queued.sort(key=lambda j: (-j.priority, j.order))
    return tuple(j.name for j in queued)


# -- gang placement -----------------------------------------------------------

def choose_placement(state: FleetState, k: int) -> tuple[int, ...] | None:
    """Pick ``k`` distinct nodes under the active policy, or ``None``.

    ``pack`` fills the fewest racks (cheap allreduce, correlated blast
    radius); ``spread`` round-robins racks (expensive allreduce,
    independent fault domains).  Dead and draining nodes never place.
    """
    free = [n for n in state.nodes if n.placeable]
    if len(free) < k:
        return None
    by_rack: dict[int, list[NodeView]] = {}
    for node in free:
        by_rack.setdefault(node.rack, []).append(node)
    for nodes in by_rack.values():
        nodes.sort(key=lambda n: n.index)
    if state.placement_policy == "pack":
        # Fewest racks: take racks with the most placeable nodes first.
        racks = sorted(by_rack, key=lambda r: (-len(by_rack[r]), r))
        chosen: list[int] = []
        for rack in racks:
            for node in by_rack[rack]:
                chosen.append(node.index)
                if len(chosen) == k:
                    return tuple(chosen)
        return None
    # spread: round-robin racks so fault domains stay independent.
    racks = sorted(by_rack)
    chosen = []
    cursors = {r: 0 for r in racks}
    while len(chosen) < k:
        advanced = False
        for rack in racks:
            nodes = by_rack[rack]
            if cursors[rack] < len(nodes):
                chosen.append(nodes[cursors[rack]].index)
                cursors[rack] += 1
                advanced = True
                if len(chosen) == k:
                    return tuple(chosen)
        if not advanced:
            return None
    return tuple(chosen)


# -- elastic grow -------------------------------------------------------------

def wants_grow(job: JobView) -> bool:
    """Is ``job`` running, shrunk, elastic and not on its way out?"""
    return (
        job.elastic_grow
        and job.status in ACTIVE_STATUSES
        and job.active
        and not job.preempt_pending
        and job.n_live + len(job.pending_grows) < job.target
    )


def grow_offer_order(state: FleetState) -> tuple[str, ...]:
    """Order in which spare slots are offered back to shrunk elastic jobs."""
    jobs = sorted(state.jobs, key=lambda j: (-j.priority, max(j.order, 0)))
    return tuple(j.name for j in jobs)


def pick_grow_node(state: FleetState, job: JobView) -> int | None:
    """One free node for ``job``, honouring the placement policy.

    Never a node the job already occupies or was granted, never a
    draining node.  ``pack`` prefers racks the job already uses (cheap
    allreduce), ``spread`` prefers fresh racks (independent fault
    domains).
    """
    exclude = set(job.placement) | set(job.pending_grows)
    candidates = [
        n for n in state.nodes
        if n.alive and n.free > 0 and not n.draining and n.index not in exclude
    ]
    if not candidates:
        return None
    used_racks = {state.node(n).rack for n in job.placement}
    if state.placement_policy == "pack":
        candidates.sort(key=lambda n: (n.rack not in used_racks, n.index))
    else:
        candidates.sort(key=lambda n: (n.rack in used_racks, n.index))
    return candidates[0].index


# -- preemption ---------------------------------------------------------------

def select_preemption_victims(
    state: FleetState, job_name: str
) -> tuple[tuple[str, str], ...] | None:
    """Choose victims freeing enough slots for ``job_name``'s gang.

    Returns ``None`` when no preemption should happen — either enough
    capacity is already free (or already draining back from earlier
    victims), or even preempting every lower-priority job would not fit.
    Otherwise returns ``((victim_name, mode), ...)`` in sacrifice order,
    ``mode`` being ``"shrink"`` (surrender one learner at the next
    collective boundary) or ``"preempt"`` (checkpoint and requeue).
    """
    job = state.job(job_name)
    k = job.needed
    free = {n.index: n.free for n in state.nodes if n.alive}
    # Slots already on their way back (victims mid-preemption).
    for other in state.jobs:
        if other.preempt_pending or other.pending_shrinks:
            for node_index in other.placement:
                if node_index in free:
                    free[node_index] += 1
    if sum(1 for f in free.values() if f > 0) >= k:
        return None  # enough capacity is already draining towards us
    victims = sorted(
        (
            other
            for other in state.jobs
            if other.status in ACTIVE_STATUSES
            and other.active
            and not other.preempt_pending
            and other.priority < job.priority
        ),
        key=lambda o: (o.priority, -max(o.order, 0)),
    )
    chosen: list[tuple[str, str]] = []
    for victim in victims:
        if victim.preemption == "shrink" and victim.n_live > 1:
            freed_nodes = victim.placement[-1:]
            mode = "shrink"
        else:
            freed_nodes = victim.placement
            mode = "preempt"
        chosen.append((victim.name, mode))
        for node_index in freed_nodes:
            if node_index in free:
                free[node_index] += 1
        if sum(1 for f in free.values() if f > 0) >= k:
            return tuple(chosen)
    return None  # even preempting everyone would not fit: just wait


# -- drain gating -------------------------------------------------------------

def drain_admissible(state: FleetState, node_index: int) -> bool:
    """May a proactive drain start on ``node_index``?  (Alive, not
    already draining — dead nodes have nothing left to migrate.)"""
    node = state.node(node_index)
    return node.alive and not node.draining
