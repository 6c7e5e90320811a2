"""The fleet control core: one state, one set of transitions, two drivers.

Every control-plane *mutation* of the fleet lives here, as a plain
function over one :class:`ControlState`: the slot ledger, the queue and
its kick, grow grants, victim absorption, preemption, node deaths,
revivals and drains.  Every *decision* inside them is a pure
:mod:`repro.fleet.policy` function over :meth:`ControlState.snapshot`.
Two drivers run the same functions:

* the **runtime** (:class:`~repro.fleet.scheduler.FleetScheduler` and
  :class:`~repro.fleet.jobs.FleetJob`) calls a transition at each of its
  entry points, then applies the effects the transition emitted, in
  order: start a job's program, interrupt a rank, deliver a preemption
  notice, join or absorb a learner in the trainer, and log every
  decision as a ``FleetEvent``;
* the **model checker** (:mod:`repro.fleet.verify.explore`) fires the
  same transitions over cloned states and throws the effects away.

The core formats no text and touches no engine: an effect is a tuple
``(kind, job name or None, *data)``.  A ledger breach goes through
:meth:`ControlState.violate` on both sides: it is recorded, and on the
runtime's strict state it also raises ``SimulationError``.

| transition              | runtime entry point                             |
|-------------------------|-------------------------------------------------|
| :func:`arrive`          | ``FleetScheduler._arrival``                     |
| :func:`kick`            | every transition that frees or queues capacity  |
| :func:`grant`/:func:`join`/:func:`revoke` | grow offers, boundaries, kills |
| :func:`next_victim`     | the guarded collective's victim scan            |
| :func:`drop_slot`       | the guarded collective dropping a victim        |
| :func:`absorb`          | the trainer absorbing a dropped learner         |
| :func:`sdc`             | SDC quarantine at the allreduce boundary        |
| :func:`commit_checkpoint` | ``FleetJob._take_checkpoint``                 |
| :func:`finish`          | ``FleetJob._finish``                            |
| :func:`preempt_yield`   | ``FleetJob._preempt_requeue``                   |
| :func:`lose`/:func:`requeue` | ``FleetScheduler.on_job_error`` and backoff |
| :func:`kill`/:func:`revive` | ``FleetScheduler.kill_node``/``revive_node`` |
| :func:`drain`/:func:`undrain` | ``FleetScheduler.drain_node``/``undrain_node`` |
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.fleet.policy import (
    ACTIVE_STATUSES,
    FleetState,
    JobView,
    NodeView,
    choose_placement,
    drain_admissible,
    grow_offer_order,
    pick_grow_node,
    scan_order,
    select_preemption_victims,
    wants_grow,
)
from repro.sim.engine import SimulationError

__all__ = ["ControlState", "Effect", "Job", "Node", "Violation"]

#: ``(kind, job name or None, *data)``: one thing the runtime must do.
Effect = tuple[object, ...]
Lineage = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, recorded where the ledger detected it."""

    invariant: str
    detail: str


@dataclass(slots=True)
class Node:
    """One host: a fault domain holding ``slots`` learner slots."""

    index: int
    rack: int
    slots: int
    alive: bool = True
    #: Under a proactive drain: no new placements or grants.
    draining: bool = False
    #: Confirmed silent-data-corruption strikes since the last drain.
    sdc: int = 0
    #: job name -> slots that job holds here (at most 1 today: a
    #: communicator cannot host two ranks of one job on the same node).
    held: dict[str, int] = field(default_factory=dict)

    @property
    def used(self) -> int:
        return sum(self.held.values())

    @property
    def free(self) -> int:
        return self.slots - self.used if self.alive else 0

    def clone(self) -> Node:
        return Node(
            self.index, self.rack, self.slots, self.alive, self.draining,
            self.sdc, dict(self.held),
        )

    def canonical(self) -> tuple[object, ...]:
        return (
            self.alive, self.draining, self.sdc,
            tuple(sorted(self.held.items())),
        )


@dataclass(slots=True, eq=False)
class Job:
    """One job's control-plane state (training and time live elsewhere).

    Every container field holds an *immutable* value that transitions
    rebind, so :meth:`clone` is a shallow field copy and
    :meth:`canonical` needs no conversions: the checker clones and
    hashes hundreds of thousands of states.
    """

    name: str
    priority: int
    #: Full gang size (``JobSpec.n_learners``).
    target: int
    elastic_grow: bool
    preemption: str
    status: str = "pending"
    #: FIFO tiebreak: first-enqueue order (-1 = never enqueued).
    order: int = -1
    #: Node of each live slot, in group-rank order.
    placement: tuple[int, ...] = ()
    #: Granted nodes (slots already allocated) joining at the next
    #: iteration boundary.
    pending_grows: tuple[int, ...] = ()
    #: Controlled (preemption) shrinks to surrender at the next boundary.
    pending_shrinks: int = 0
    preempt_pending: bool = False
    #: Nodes that died under a live slot: the victim scan keys on this,
    #: not on current liveness, so a revived node never resurrects a
    #: doomed learner.
    dead_nodes: frozenset[int] = frozenset()
    #: Nodes being drained under us: surrender that slot at the next
    #: collective boundary (the proactive-migration shrink half).
    pending_migrations: frozenset[int] = frozenset()
    #: ``(iteration, slot)`` histories of the current lineage.
    shrink_log: Lineage = ()
    grow_log: Lineage = ()
    #: Last committed checkpoint: ``(payload, shrink log, grow log)``;
    #: the payload is the runtime's trainer snapshot or the checker's
    #: iteration count.
    saved: tuple[object, Lineage, Lineage] | None = None
    requeues: int = 0

    @property
    def n_live(self) -> int:
        return len(self.placement)

    @property
    def needed(self) -> int:
        """Gang size for the next (re)start: the saved lineage's learners."""
        if self.saved is None:
            return self.target
        return self.target - len(self.saved[1]) + len(self.saved[2])

    def clone(self) -> Job:
        return Job(
            self.name, self.priority, self.target, self.elastic_grow,
            self.preemption, self.status, self.order, self.placement,
            self.pending_grows, self.pending_shrinks, self.preempt_pending,
            self.dead_nodes, self.pending_migrations, self.shrink_log,
            self.grow_log, self.saved, self.requeues,
        )

    def canonical(self) -> tuple[object, ...]:
        return (
            self.status, self.order, self.placement, self.pending_grows,
            self.pending_shrinks, self.preempt_pending, self.dead_nodes,
            self.pending_migrations, self.shrink_log, self.grow_log,
            self.saved, self.requeues,
        )


@dataclass(slots=True)
class ControlState:
    """The whole control plane: nodes, jobs, queue and grant audit trail."""

    placement_policy: str
    nodes: list[Node]
    jobs: Mapping[str, Job]
    #: Names of queued jobs, in enqueue order.
    queue: list[str] = field(default_factory=list)
    next_order: int = 0
    #: Grow grants opened / closed (each grant must close exactly once).
    grants_opened: int = 0
    grants_closed: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: Raise ``SimulationError`` on a breach (the runtime), not only record.
    strict: bool = False
    #: Called before every ledger change (the runtime's utilization clock).
    on_ledger: Callable[[], None] | None = None
    effects: list[Effect] = field(default_factory=list)

    def clone(self) -> ControlState:
        """A copy for the checker (effects and hooks are not carried)."""
        return ControlState(
            self.placement_policy,
            [n.clone() for n in self.nodes],
            {name: j.clone() for name, j in self.jobs.items()},
            self.queue.copy(), self.next_order,
            self.grants_opened, self.grants_closed, self.violations.copy(),
        )

    def canonical(self) -> tuple[object, ...]:
        """Hashable identity for the checker's seen-set.

        Leaves out ``next_order`` (the count of jobs with an order),
        ``grants_opened``/``grants_closed`` (while grant-closure holds,
        their difference is the pending-grant count already in the job
        keys) and ``violations`` (empty on every explored state).
        """
        return (
            tuple([n.canonical() for n in self.nodes]),
            tuple([j.canonical() for j in self.jobs.values()]),
            tuple(self.queue),
        )

    def violate(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant, detail))
        if self.strict:
            raise SimulationError(detail)

    def emit(self, kind: str, job: str | None, *data: object) -> None:
        self.effects.append((kind, job, *data))

    def snapshot(self) -> FleetState:
        """The serializable view every :mod:`repro.fleet.policy` decision
        reads.  The checker builds a million of these per smoke proof, so
        the views are built as plain tuples of their fields, in order
        (``tuple.__new__`` skips the named tuples' Python constructors)."""
        new = tuple.__new__
        nodes = tuple([
            new(NodeView, (
                n.index, n.rack, n.slots, sum(n.held.values()),
                n.alive, n.draining,
            ))
            for n in self.nodes
        ])
        jobs = tuple([
            new(JobView, (
                j.name, j.priority, j.order, j.status,
                j.status in ACTIVE_STATUSES, j.preemption, j.elastic_grow,
                j.target, j.needed, j.placement, j.pending_grows,
                j.pending_shrinks, j.preempt_pending,
            ))
            for j in self.jobs.values()
        ])
        return new(FleetState, (
            self.placement_policy, nodes, jobs, tuple(self.queue)
        ))


# -- the slot ledger ----------------------------------------------------------

def _ledger_change(state: ControlState) -> None:
    if state.on_ledger is not None:
        state.on_ledger()


def allocate(state: ControlState, job_name: str, node_index: int) -> None:
    node = state.nodes[node_index]
    if not node.alive:
        state.violate(
            "no-dead-grants",
            f"allocate on dead node {node_index} for job {job_name!r}",
        )
    elif node.draining:
        state.violate(
            "no-dead-grants",
            f"allocate on draining node {node_index} for job {job_name!r}",
        )
    elif node.free < 1:
        state.violate(
            "no-double-grant",
            f"no free slot on node {node_index} for job {job_name!r}",
        )
    _ledger_change(state)
    node.held[job_name] = node.held.get(job_name, 0) + 1


def release(state: ControlState, job_name: str, node_index: int) -> None:
    node = state.nodes[node_index]
    held = node.held.get(job_name, 0)
    if held < 1:
        state.violate(
            "slot-conservation",
            f"release of unheld slot on node {node_index} by {job_name!r}",
        )
        return
    _ledger_change(state)
    if held == 1:
        del node.held[job_name]
    else:
        node.held[job_name] = held - 1


# -- grow grants --------------------------------------------------------------

def grant(state: ControlState, job: Job, node_index: int) -> None:
    """Open a grow grant: the slot is ledgered now, so it can never back
    two grants, and joins at the job's next iteration boundary."""
    allocate(state, job.name, node_index)
    job.pending_grows += (node_index,)
    state.grants_opened += 1


def close_grant(state: ControlState, job: Job, node_index: int, how: str) -> bool:
    if node_index not in job.pending_grows:
        state.violate(
            "grant-closure",
            f"{how} of grant not held by {job.name!r} on node {node_index}",
        )
        return False
    i = job.pending_grows.index(node_index)
    job.pending_grows = job.pending_grows[:i] + job.pending_grows[i + 1:]
    state.grants_closed += 1
    return True


def join(state: ControlState, job: Job, node_index: int, iteration: int) -> None:
    """A granted node becomes the job's newest learner."""
    close_grant(state, job, node_index, "join")
    job.grow_log += ((iteration, job.n_live),)
    job.placement += (node_index,)
    state.emit("grow", job.name, node_index, len(job.grow_log) - 1)


def revoke(state: ControlState, job: Job, node_index: int) -> None:
    """Withdraw a grant before it joined and return its slot."""
    if close_grant(state, job, node_index, "revoke"):
        release(state, job.name, node_index)
        state.emit("grow-revoked", job.name, node_index)


def join_grows(state: ControlState, job: Job, iteration: int) -> None:
    """Top of an iteration: every grant joins, or is revoked if its node
    died first (the kill path normally revokes it already)."""
    while job.pending_grows:
        node_index = job.pending_grows[0]
        if state.nodes[node_index].alive:
            join(state, job, node_index, iteration)
        else:
            revoke(state, job, node_index)


def grow_scripted(state: ControlState, job: Job, iteration: int) -> None:
    """One grow of a reference run replaying a recorded lineage."""
    snap = state.snapshot()
    node_index = pick_grow_node(snap, snap.job(job.name))
    if node_index is None:
        raise SimulationError(
            f"scripted grow for {job.name}: no free node to grant"
        )
    grant(state, job, node_index)
    state.emit("grow-grant", job.name, node_index, "scripted")
    join(state, job, node_index, iteration)


def offer_grows(state: ControlState) -> None:
    """Grant spare slots back to shrunk elastic jobs (priority order)."""
    snap = state.snapshot()
    for name in grow_offer_order(snap):
        job = state.jobs[name]
        while wants_grow(view := snap.job(name)):
            node_index = pick_grow_node(snap, view)
            if node_index is None:
                break
            grant(state, job, node_index)
            state.emit("grow-grant", name, node_index, "offer")
            snap = state.snapshot()


# -- queue and kick -----------------------------------------------------------

def enqueue(state: ControlState, job: Job) -> None:
    if job.order < 0:
        job.order = state.next_order
        state.next_order += 1
    job.status = "queued"
    state.queue.append(job.name)


def arrive(state: ControlState, job: Job, max_queued: int | None = None) -> None:
    """Admission: reject what can never fit (or a full queue), else queue."""
    alive = sum(1 for n in state.nodes if n.alive)
    if job.target > alive or (
        max_queued is not None and len(state.queue) >= max_queued
    ):
        job.status = "rejected"
        state.emit("reject", job.name, alive)
        return
    state.emit("submit", job.name)
    enqueue(state, job)
    kick(state)


def start(state: ControlState, job: Job, placed: tuple[int, ...]) -> None:
    """Claim the gang atomically and restore the saved lineage."""
    for node_index in placed:
        allocate(state, job.name, node_index)
    job.placement = placed
    job.shrink_log, job.grow_log = (
        ((), ()) if job.saved is None else (job.saved[1], job.saved[2])
    )
    job.status = "running"
    state.emit("start", job.name, placed)


def kick(state: ControlState) -> None:
    """Scan the queue (priority order, with backfill), start what fits,
    preempt for what does not, then offer spare slots to grows.

    One snapshot serves every decision until something mutates (a start
    ends the scan pass, a preemption marks victims).
    """
    progress = True
    while progress and state.queue:
        progress = False
        snap = state.snapshot()
        for name in scan_order(snap):
            job = state.jobs[name]
            placed = choose_placement(snap, job.needed)
            if placed is not None:
                state.queue.remove(name)
                start(state, job, placed)
                progress = True
                break
            if preempt_for(state, snap, job):
                snap = state.snapshot()
            # Gang blocked: leave it queued and backfill smaller jobs.
    if not state.queue:
        # Only spare capacity (no queued gang wants it) feeds grows.
        offer_grows(state)


def preempt_for(state: ControlState, snap: FleetState, job: Job) -> bool:
    """Mark the policy's victims for ``job``; True if any were marked."""
    chosen = select_preemption_victims(snap, job.name)
    if chosen is None:
        return False
    for victim_name, mode in chosen:
        victim = state.jobs[victim_name]
        if mode == "shrink":
            victim.pending_shrinks += 1
            state.emit("shrink-req", victim_name, job.name)
        else:
            victim.preempt_pending = True
            state.emit("preempt", victim_name, job.name)
    return True


# -- victims and shrinks ------------------------------------------------------

def pending_victim(state: ControlState, job: Job) -> tuple[int, str] | None:
    """The guarded collective's absorb order, without consuming anything:
    the lowest slot whose node died (``"dead"``), else a pending
    controlled shrink (``"shrink"``), else a slot being drained off a
    sick node (``"migrate"``)."""
    for slot, node_index in enumerate(job.placement):
        if node_index in job.dead_nodes or not state.nodes[node_index].alive:
            return slot, "dead"
    if job.pending_shrinks > 0 and job.n_live > 1:
        return job.n_live - 1, "shrink"
    if job.n_live > 1:
        for slot, node_index in enumerate(job.placement):
            if node_index in job.pending_migrations:
                return slot, "migrate"
    return None


def next_victim(state: ControlState, job: Job) -> int | None:
    """The next victim slot to drop; a controlled shrink is consumed."""
    found = pending_victim(state, job)
    if found is None:
        return None
    slot, why = found
    if why == "shrink":
        job.pending_shrinks -= 1
    return slot


def drop_slot(state: ControlState, job: Job, slot: int) -> None:
    """Forget a victim slot and return it to the ledger (it backfills)."""
    node_index = job.placement[slot]
    job.placement = job.placement[:slot] + job.placement[slot + 1:]
    job.dead_nodes -= {node_index}
    job.pending_migrations -= {node_index}
    release(state, job.name, node_index)
    state.emit("release", job.name, node_index)
    kick(state)


def absorb(state: ControlState, job: Job, slot: int, iteration: int) -> None:
    """The trainer absorbs a dropped learner: log it in the lineage."""
    job.shrink_log += ((iteration, slot),)
    state.emit("absorb", job.name, slot)


def sdc(
    state: ControlState, job: Job, slot: int, iteration: int, detail: str
) -> None:
    """Quarantine a learner the SDC audit named: strike its node, shrink."""
    node_index = job.placement[slot]
    node = state.nodes[node_index]
    node.sdc += 1
    state.emit("sdc-detect", job.name, slot, node_index, node.sdc, detail)
    absorb(state, job, slot, iteration)
    drop_slot(state, job, slot)


# -- leaving the cluster ------------------------------------------------------

def release_all(state: ControlState, job: Job) -> None:
    """Every slot back (each free re-runs the kick), grants revoked,
    marks cleared.  The caller has already moved ``job`` out of the
    active statuses, so no kick mid-release can grow or preempt it."""
    for node_index in job.placement:
        release(state, job.name, node_index)
        state.emit("release", job.name, node_index)
        kick(state)
    job.placement = ()
    while job.pending_grows:
        revoke(state, job, job.pending_grows[0])
    job.dead_nodes = job.pending_migrations = frozenset()


def commit_checkpoint(job: Job, payload: object) -> None:
    job.saved = (payload, job.shrink_log, job.grow_log)


def finish(state: ControlState, job: Job) -> None:
    job.status = "finished"
    release_all(state, job)
    state.emit("finish", job.name)
    kick(state)


def preempt_yield(state: ControlState, job: Job) -> None:
    """A checkpointed preemption victim vacates and requeues."""
    job.status = "preempted"
    release_all(state, job)
    job.preempt_pending = False
    state.emit("requeue", job.name)
    enqueue(state, job)
    kick(state)


def lose(state: ControlState, job: Job, max_requeues: int | None) -> None:
    """The job's program died.  A total loss backs off towards a requeue
    (or fails past ``max_requeues``); any other error (``None``) fails."""
    if max_requeues is None:
        job.status = "failed"
    else:
        job.requeues += 1
        job.status = "failed" if job.requeues > max_requeues else "backoff"
    release_all(state, job)
    state.emit("lost", job.name)
    kick(state)


def requeue(state: ControlState, job: Job) -> None:
    """The end of a requeue backoff."""
    enqueue(state, job)
    kick(state)


# -- node events --------------------------------------------------------------

def kill(state: ControlState, node_index: int) -> None:
    """A node dies: unjoined grants on it are revoked on the spot, each
    hosted learner is marked dead and its rank interrupted."""
    node = state.nodes[node_index]
    if not node.alive:
        raise SimulationError(f"node {node_index} is already dead")
    _ledger_change(state)
    node.alive = False
    hit: list[tuple[str, int | None]] = []
    for job_name in sorted(node.held):
        job = state.jobs[job_name]
        if node_index in job.pending_grows:
            revoke(state, job, node_index)
            hit.append((job_name, None))
        elif node_index in job.placement:
            job.dead_nodes |= {node_index}
            slot = job.placement.index(node_index)
            hit.append((job_name, slot))
            state.emit("interrupt", job_name, slot)
    state.emit("node-kill", None, node_index, tuple(hit))
    kick(state)


def revive(state: ControlState, node_index: int) -> None:
    """A dead node rejoins; learners it doomed stay doomed."""
    node = state.nodes[node_index]
    if node.alive:
        raise SimulationError(f"node {node_index} is already alive")
    _ledger_change(state)
    node.alive = True
    node.draining = False
    state.emit("revive", None, node_index)
    kick(state)


def drain(state: ControlState, node_index: int, reason: str) -> None:
    """Migrate learners off a degraded-but-alive node: each hosted job
    with a learner to spare surrenders the slot at its next boundary,
    and gets a replacement granted up front.  The node leaves service
    with its SDC strikes cleared."""
    if not drain_admissible(state.snapshot(), node_index):
        return
    node = state.nodes[node_index]
    node.draining = True
    node.sdc = 0
    state.emit("drain", None, node_index, reason)
    for job_name in sorted(node.held):
        job = state.jobs[job_name]
        if (
            job.status not in ACTIVE_STATUSES
            or node_index not in job.placement
            or node_index in job.pending_migrations
            or job.n_live <= 1
        ):
            continue
        job.pending_migrations |= {node_index}
        snap = state.snapshot()
        replacement = pick_grow_node(snap, snap.job(job_name))
        if replacement is not None:
            grant(state, job, replacement)
        state.emit("migrate", job_name, node_index, replacement, reason)
    kick(state)


def undrain(state: ControlState, node_index: int) -> None:
    node = state.nodes[node_index]
    if node.draining:
        node.draining = False
        state.emit("undrain", None, node_index)
        kick(state)
