"""Exhaustive breadth-first exploration of fleet control-plane interleavings.

The explorer runs the runtime's own control core
(:mod:`repro.fleet.control`) over abstract events and throws the
effects away.  An event is one runtime entry point:

| event                  | core transitions fired                          |
|------------------------|-------------------------------------------------|
| ``arrive(job)``        | ``arrive``                                      |
| ``step(job)``          | ``commit_checkpoint`` + ``join_grows``          |
| ``absorb(job)``        | ``next_victim`` + ``absorb`` + ``drop_slot``, or ``lose`` + ``requeue`` for a lone learner |
| ``finish(job)``        | ``finish``                                      |
| ``preempt-yield(job)`` | ``commit_checkpoint`` + ``preempt_yield``       |
| ``sdc(job, slot)``     | ``sdc``                                         |
| ``kill(node)``         | ``kill``                                        |
| ``revive(node)``       | ``revive``                                      |
| ``drain(node)``        | ``drain``                                       |
| ``undrain(node)``      | ``undrain``                                     |

Grow grants happen inside the kicks, joins at the next ``step``,
revocations inside ``kill`` and the release paths — as in the runtime.
Time and training are abstracted away by *which* transitions fire, never
by re-implementing one:

* **a checkpoint at every iteration boundary** — each ``step`` commits
  one (the runtime's ``checkpoint_every=1``; coarser periods only widen
  the rollback window), with the iteration count as its payload;
* **instant requeue backoff** — a lost job's ``requeue`` fires right
  after its ``lose`` (the backoff only delays the same kick);
* **finish after any completed iteration** — each job's ``n_steps`` is
  abstracted away, but a job never finishes before its first step.

Canonical-state hashing deduplicates the search (two traces landing on
the same control-plane state explore its future once); all eight
invariants are evaluated at every reachable state.  Breadth-first order
makes the first breach found a *minimal* counterexample: no shorter
event trace violates anything.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, replace

from repro.fleet import control
from repro.fleet.control import ControlState, Job, Node, Violation
from repro.fleet.policy import drain_admissible
from repro.fleet.verify.invariants import INVARIANTS, check_invariants

__all__ = [
    "Bounds",
    "Counterexample",
    "Event",
    "FleetVerifyResult",
    "ModelJobSpec",
    "apply_event",
    "enabled_events",
    "initial_state",
    "smoke_bounds",
    "sweep_bounds",
    "verify_fleet",
]

#: Chaos budget spent along a trace: kills, revives, drains, undrains
#: and SDC strikes (bounded by :class:`Bounds`).
Spent = tuple[int, int, int, int, int]
NOTHING_SPENT: Spent = (0, 0, 0, 0, 0)


@dataclass(frozen=True)
class ModelJobSpec:
    """The slice of :class:`~repro.fleet.jobs.JobSpec` the control plane
    sees: everything that influences a scheduling decision, nothing that
    influences training."""

    name: str
    target: int = 2
    priority: int = 0
    elastic_grow: bool = False
    preemption: str = "requeue"  # "requeue" | "shrink"

    def __post_init__(self) -> None:
        if self.target < 1:
            raise ValueError("target gang size must be >= 1")
        if self.preemption not in ("requeue", "shrink"):
            raise ValueError(f"unknown preemption mode {self.preemption!r}")


@dataclass(frozen=True)
class Event:
    """One abstract control-plane event: ``kind`` plus its target."""

    kind: str
    job: str | None = None
    node: int | None = None
    slot: int | None = None

    def __str__(self) -> str:
        parts = []
        if self.job is not None:
            parts.append(f"job={self.job}")
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.slot is not None:
            parts.append(f"slot={self.slot}")
        return f"{self.kind}({', '.join(parts)})"


@dataclass(frozen=True)
class Bounds:
    """Exploration bounds: the workload, the cluster, and event budgets."""

    jobs: tuple[ModelJobSpec, ...]
    n_racks: int = 2
    nodes_per_rack: int = 2
    slots_per_node: int = 1
    placement: str = "pack"
    #: Maximum events per trace (exploration depth).
    depth: int = 8
    #: Per-job iteration boundaries (``step`` events) explored.
    max_steps: int = 2
    max_kills: int = 1
    max_revives: int = 1
    max_drains: int = 1
    max_undrains: int = 0
    max_sdc: int = 1
    #: Requeue budget before a job fails (the runtime's ``max_requeues``).
    max_requeues: int = 2

    def __post_init__(self) -> None:
        names = [s.name for s in self.jobs]
        if not names:
            raise ValueError("bounds need at least one job")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names in workload: {names}")
        if self.n_racks < 1 or self.nodes_per_rack < 1 or self.slots_per_node < 1:
            raise ValueError("racks, nodes per rack and slots must be >= 1")
        if self.placement not in ("pack", "spread"):
            raise ValueError(f"unknown placement policy {self.placement!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        for name in ("max_kills", "max_revives", "max_drains",
                     "max_undrains", "max_sdc", "max_requeues"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def n_nodes(self) -> int:
        return self.n_racks * self.nodes_per_rack


def initial_state(bounds: Bounds) -> ControlState:
    nodes = [
        Node(i, i // bounds.nodes_per_rack, bounds.slots_per_node)
        for i in range(bounds.n_nodes)
    ]
    jobs = {
        s.name: Job(s.name, s.priority, s.target, s.elastic_grow, s.preemption)
        for s in bounds.jobs
    }
    return ControlState(bounds.placement, nodes, jobs)


def _iteration(job: Job) -> int:
    """Completed iterations: the payload of the last boundary checkpoint."""
    if job.saved is None:
        return 0
    iteration = job.saved[0]
    assert isinstance(iteration, int)
    return iteration


def enabled_events(
    state: ControlState, bounds: Bounds, spent: Spent = NOTHING_SPENT
) -> list[Event]:
    """Every event that may fire next, in deterministic order."""
    kills, revives, drains, undrains, sdcs = spent
    events: list[Event] = []
    n_alive = sum(1 for n in state.nodes if n.alive)
    for job in state.jobs.values():
        if job.status == "pending":
            events.append(Event("arrive", job=job.name))
            continue
        if job.status != "running":
            continue
        if job.preempt_pending:
            events.append(Event("preempt-yield", job=job.name))
            continue
        if control.pending_victim(state, job) is not None:
            events.append(Event("absorb", job=job.name))
        else:
            # A step's collective would first absorb any pending victim,
            # so step/finish only race with *future* faults, not past ones.
            iteration = _iteration(job)
            if iteration < bounds.max_steps:
                events.append(Event("step", job=job.name))
            if iteration >= 1:
                events.append(Event("finish", job=job.name))
        if sdcs < bounds.max_sdc and job.n_live > 1:
            for slot, node_index in enumerate(job.placement):
                node = state.nodes[node_index]
                if (
                    node.alive and not node.draining
                    and node_index not in job.dead_nodes
                ):
                    events.append(Event("sdc", job=job.name, slot=slot))
    # Built only if a drain is still in budget.
    snap = state.snapshot() if drains < bounds.max_drains else None
    for node in state.nodes:
        if node.alive:
            # Never kill the last node: the checker would only explore
            # mass-rejection, not scheduling.
            if kills < bounds.max_kills and n_alive > 1:
                events.append(Event("kill", node=node.index))
            if snap is not None and drain_admissible(snap, node.index):
                events.append(Event("drain", node=node.index))
            if undrains < bounds.max_undrains and node.draining:
                events.append(Event("undrain", node=node.index))
        elif revives < bounds.max_revives:
            events.append(Event("revive", node=node.index))
    return events


def apply_event(
    state: ControlState, event: Event, bounds: Bounds,
    spent: Spent = NOTHING_SPENT,
) -> tuple[ControlState, Spent]:
    """Fire ``event`` on a copy of ``state``: the successor state and the
    chaos budget spent after it."""
    state = state.clone()
    kills, revives, drains, undrains, sdcs = spent
    kind = event.kind
    node = event.node or 0
    job = state.jobs[event.job] if event.job is not None else None
    if job is None:
        if kind == "kill":
            control.kill(state, node)
            kills += 1
        elif kind == "revive":
            control.revive(state, node)
            revives += 1
        elif kind == "drain":
            control.drain(state, node, "verify")
            drains += 1
        elif kind == "undrain":
            control.undrain(state, node)
            undrains += 1
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    elif kind == "arrive":
        control.arrive(state, job)
    elif kind == "step":
        iteration = _iteration(job) + 1
        control.commit_checkpoint(job, iteration)
        control.join_grows(state, job, iteration)
    elif kind == "absorb":
        slot = control.next_victim(state, job)
        assert slot is not None  # only enabled with a victim
        if job.n_live <= 1:
            # ``JobLost``: the last learner's node died.
            control.lose(state, job, bounds.max_requeues)
            if job.status == "backoff":
                control.requeue(state, job)
        else:
            control.absorb(state, job, slot, _iteration(job))
            control.drop_slot(state, job, slot)
    elif kind == "finish":
        control.finish(state, job)
    elif kind == "preempt-yield":
        control.commit_checkpoint(job, _iteration(job))
        control.preempt_yield(state, job)
    elif kind == "sdc":
        control.sdc(state, job, event.slot or 0, _iteration(job), "verify")
        sdcs += 1
    else:
        raise ValueError(f"unknown event kind {kind!r}")
    state.effects.clear()
    return state, (kills, revives, drains, undrains, sdcs)


@dataclass(frozen=True)
class Counterexample:
    """A minimal event trace reaching an invariant breach."""

    invariant: str
    detail: str
    trace: tuple[Event, ...]
    state: ControlState

    def format(self) -> str:
        lines = [
            f"invariant violated: {self.invariant}",
            f"  {self.detail}",
            f"minimal trace ({len(self.trace)} events):",
        ]
        lines += [f"  {i + 1}. {event}" for i, event in enumerate(self.trace)]
        return "\n".join(lines)


@dataclass
class FleetVerifyResult:
    """Outcome of one bounded exploration."""

    bounds: Bounds
    states: int
    transitions: int
    frontier_depth: int
    counterexample: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def format(self) -> str:
        b = self.bounds
        head = (
            f"fleet-verify: {len(b.jobs)} jobs x {b.n_nodes} nodes "
            f"({b.n_racks} racks, {b.slots_per_node} slot/node, "
            f"placement={b.placement}) depth<={b.depth}"
        )
        body = (
            f"  explored {self.states} states / {self.transitions} "
            f"transitions (frontier depth {self.frontier_depth})"
        )
        if self.counterexample is None:
            proved = "\n".join(f"    {name}" for name in INVARIANTS)
            return (
                f"{head}\n{body}\n  PROVED all {len(INVARIANTS)} "
                f"invariants within the bound:\n{proved}"
            )
        return f"{head}\n{body}\n{self.counterexample.format()}"


def verify_fleet(
    bounds: Bounds, *, max_states: int | None = None
) -> FleetVerifyResult:
    """Explore every interleaving within ``bounds``; all-clear or the
    shortest trace to an invariant breach.

    ``max_states`` caps the seen-set as a runaway guard; hitting it
    raises ``RuntimeError`` (a truncated exploration must never report
    "proved").
    """
    root = initial_state(bounds)
    breaches = check_invariants(root, bounds)
    if breaches:
        return FleetVerifyResult(
            bounds, 1, 0, 0, _first(breaches, (), root)
        )
    # States are trees (no reference cycles), but the explorer allocates
    # millions of containers the cyclic GC would repeatedly re-scan as
    # the seen-set grows; pause it for the search.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _search(bounds, root, max_states)
    finally:
        if gc_was_enabled:
            gc.enable()


def _search(
    bounds: Bounds, root: ControlState, max_states: int | None
) -> FleetVerifyResult:
    seen = {(root.canonical(), NOTHING_SPENT)}
    frontier: deque[tuple[ControlState, Spent, tuple[Event, ...]]] = deque(
        [(root, NOTHING_SPENT, ())]
    )
    states = 1
    transitions = 0
    frontier_depth = 0
    while frontier:
        state, spent, trace = frontier.popleft()
        if len(trace) >= bounds.depth:
            continue
        for event in enabled_events(state, bounds, spent):
            succ, succ_spent = apply_event(state, event, bounds, spent)
            transitions += 1
            key = (succ.canonical(), succ_spent)
            if key in seen:
                # Invariants depend only on the state, and this exact
                # state was checked when first reached (at <= this
                # depth, BFS) — skipping keeps minimality.
                continue
            breaches = check_invariants(succ, bounds)
            if breaches:
                return FleetVerifyResult(
                    bounds, states, transitions, len(trace) + 1,
                    _first(breaches, trace + (event,), succ),
                )
            seen.add(key)
            states += 1
            if max_states is not None and states > max_states:
                raise RuntimeError(
                    f"exploration exceeded {max_states} states; raise "
                    "max_states or tighten the bounds"
                )
            frontier_depth = max(frontier_depth, len(trace) + 1)
            frontier.append((succ, succ_spent, trace + (event,)))
    return FleetVerifyResult(bounds, states, transitions, frontier_depth, None)


def _first(
    breaches: list[Violation], trace: tuple[Event, ...], state: ControlState
) -> Counterexample:
    ordered = sorted(
        breaches,
        key=lambda v: (
            INVARIANTS.index(v.invariant)
            if v.invariant in INVARIANTS
            else len(INVARIANTS)
        ),
    )
    v = ordered[0]
    return Counterexample(v.invariant, v.detail, trace, state)


def smoke_bounds(
    *,
    depth: int = 8,
    max_steps: int = 2,
    placement: str = "pack",
) -> Bounds:
    """The CI smoke bound: 3 jobs x 4 nodes with every control-plane
    feature armed (elastic grow, shrink-mode preemption, priority
    arrival) under one kill, one drain and one SDC strike.

    Revive and undrain budgets are zero here — flap interleavings
    roughly 1.5x the state space and live in the slow full-bound sweep
    (``sweep_bounds``) instead, keeping the smoke proof inside its CI
    time budget.
    """
    return Bounds(
        jobs=(
            ModelJobSpec(
                name="a", target=2, priority=0,
                elastic_grow=True, preemption="shrink",
            ),
            ModelJobSpec(name="b", target=2, priority=1),
            ModelJobSpec(name="c", target=3, priority=2),
        ),
        n_racks=2,
        nodes_per_rack=2,
        slots_per_node=1,
        placement=placement,
        depth=depth,
        max_steps=max_steps,
        max_kills=1,
        max_revives=0,
        max_drains=1,
        max_undrains=0,
        max_sdc=1,
        max_requeues=2,
    )


def sweep_bounds(*, placement: str = "pack") -> Bounds:
    """The slow full-bound sweep: the smoke workload with the flap
    budgets armed (revive after kill, undrain after drain) at depth 9."""
    return replace(
        smoke_bounds(depth=9, placement=placement),
        max_revives=1, max_undrains=1,
    )
