"""Mutation self-test: surgical control-plane bugs the checker must kill.

Each mutant re-introduces one small, realistic scheduler bug — placing a
gang on a draining node, granting growth from the drained set, leaving a
grow grant dangling on a killed node, freeing a slot twice, requeueing a
preemption victim before its gang is released, forgetting to clear a
drained node's SDC ledger, and so on.  Policy mutants are patched into
:mod:`repro.fleet.policy` and into :mod:`repro.fleet.control`, which
binds the policy functions by name; plumbing mutants replace a
transition of :mod:`repro.fleet.control`.  The runtime scheduler and the
checker both call that one core, so every mutant is visible to both.

Every mutant is then hunted **statically**: :func:`verify_fleet` is run
over a bound known to exercise the mutated seam, and the mutant counts
as *killed* when the explorer returns a counterexample (any invariant —
a bug often breaches several; the hunt does not insist on a particular
one, though each mutant records the invariant it aims at).  The suite
asserts a 100% kill rate: a surviving mutant is a hole in the invariant
set or the bounds, not a flaky test.

Hunt bounds are deliberately small (one or two jobs where the seam
allows it): mutation testing needs *a* counterexample, and a tight
workload finds it in milliseconds instead of re-exploring the full CI
smoke bound per mutant.  The unmutated core must prove clean under
every hunt bound — :func:`clean_hunt_bounds` enumerates them for the
baseline test — so a kill is attributable to the mutation alone.

The battery runs under pytest (``tests/fleet/test_verify_mutation.py``);
patching happens only there, never in a ``repro`` run.
"""

from __future__ import annotations

import contextlib
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fleet import control, policy
from repro.fleet.control import ControlState, Job
from repro.fleet.policy import ACTIVE_STATUSES, FleetState, JobView
from repro.fleet.verify.explore import (
    Bounds,
    FleetVerifyResult,
    ModelJobSpec,
    smoke_bounds,
    verify_fleet,
)

__all__ = [
    "FLEET_MUTANTS",
    "FleetMutant",
    "FleetMutationRecord",
    "FleetMutationResult",
    "clean_hunt_bounds",
    "run_fleet_mutation_suite",
]

#: Modules binding a patchable name: the policy, and the control core
#: that the runtime scheduler and the checker both call.
_SEAMS = (policy, control)

#: Originals captured at import time for wrapping mutants.
_ORIG_CHOOSE_PLACEMENT = policy.choose_placement
_ORIG_PICK_GROW_NODE = policy.pick_grow_node


@dataclass(frozen=True)
class FleetMutant:
    """One surgical bug: what to patch, where to hunt, what should trip."""

    operator: str
    description: str
    #: Invariant the mutant is aimed at (documentation; any breach kills).
    expected: str
    #: ``(attribute name, replacement)`` pairs, patched into every seam
    #: module that binds the name.
    patches: tuple[tuple[str, Callable[..., Any]], ...]
    bounds: Bounds


@dataclass(frozen=True)
class FleetMutationRecord:
    """Verdict on one mutant."""

    operator: str
    description: str
    expected: str
    #: Invariant of the counterexample found, or ``None`` (escaped).
    caught: str | None
    #: Length of the minimal killing trace (0 when escaped).
    trace_len: int

    @property
    def killed(self) -> bool:
        return self.caught is not None


@dataclass
class FleetMutationResult:
    """Aggregate of one mutation sweep."""

    records: list[FleetMutationRecord] = field(default_factory=list)

    @property
    def escaped(self) -> list[FleetMutationRecord]:
        return [r for r in self.records if not r.killed]

    @property
    def kill_rate(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.killed for r in self.records) / len(self.records)

    @property
    def invariants_exercised(self) -> set[str]:
        return {r.caught for r in self.records if r.caught is not None}

    def format(self) -> str:
        lines = [
            f"fleet mutation sweep: {len(self.records)} mutants, "
            f"kill rate {self.kill_rate:.1%}"
        ]
        for r in self.records:
            if r.killed:
                lines.append(
                    f"  KILLED {r.operator}: {r.caught} "
                    f"(trace of {r.trace_len}) — {r.description}"
                )
            else:
                lines.append(
                    f"  ESCAPED {r.operator}: {r.description} "
                    f"(aimed at {r.expected})"
                )
        return "\n".join(lines)


# -- policy mutants (patched into runtime and checker alike) ------------------

def _nodes_with(state: FleetState, **overrides: Any) -> FleetState:
    """Doctor every node view — how a mutant 'forgets' a status check."""
    return state._replace(
        nodes=tuple(n._replace(**overrides) for n in state.nodes)
    )


def _place_on_draining(state: FleetState, k: int) -> tuple[int, ...] | None:
    """Placement scorer forgets the draining check."""
    return _ORIG_CHOOSE_PLACEMENT(_nodes_with(state, draining=False), k)


def _place_stale_ledger(state: FleetState, k: int) -> tuple[int, ...] | None:
    """Placement scorer reads a stale ledger: every node looks free."""
    return _ORIG_CHOOSE_PLACEMENT(_nodes_with(state, used=0), k)


def _grant_from_draining(state: FleetState, job: JobView) -> int | None:
    """Grow-node choice forgets the draining check."""
    return _ORIG_PICK_GROW_NODE(_nodes_with(state, draining=False), job)


def _grant_to_dead(state: FleetState, job: JobView) -> int | None:
    """Grow-node choice treats every node as alive."""
    return _ORIG_PICK_GROW_NODE(_nodes_with(state, alive=True), job)


def _grow_past_target(job: JobView) -> bool:
    """Off-by-one: a full gang still asks for one more learner."""
    return (
        job.elastic_grow
        and job.status in ACTIVE_STATUSES
        and job.active
        and not job.preempt_pending
        and job.n_live + len(job.pending_grows) <= job.target
    )


# -- plumbing mutants (patched into the control core) -------------------------

_ORIG_DRAIN = control.drain
_ORIG_JOIN = control.join
_ORIG_LOSE = control.lose
_ORIG_START = control.start


def _kill_keeps_grants(state: ControlState, node_index: int) -> None:
    """``kill`` forgets to revoke unjoined grants on the dead node."""
    node = state.nodes[node_index]
    node.alive = False
    for job_name in sorted(node.held):
        job = state.jobs[job_name]
        if node_index in job.placement:  # BUG: a grant here dangles
            job.dead_nodes |= {node_index}
            state.emit("interrupt", job_name, job.placement.index(node_index))
    control.kick(state)


def _double_free_slot(state: ControlState, job: Job, slot: int) -> None:
    """The slot-freed path fires twice for one dropped learner."""
    node_index = job.placement[slot]
    job.placement = job.placement[:slot] + job.placement[slot + 1:]
    job.dead_nodes -= {node_index}
    job.pending_migrations -= {node_index}
    control.release(state, job.name, node_index)
    control.release(state, job.name, node_index)  # BUG: freed twice
    state.emit("release", job.name, node_index)
    control.kick(state)


def _requeue_before_release(state: ControlState, job: Job) -> None:
    """Preemption requeues the victim while it still holds its gang."""
    job.status = "preempted"
    job.preempt_pending = False
    state.emit("requeue", job.name)
    control.enqueue(state, job)  # BUG: before the release below
    control.release_all(state, job)
    control.kick(state)


def _drain_keeps_sdc(state: ControlState, node_index: int, reason: str) -> None:
    """``drain`` forgets to clear the node's SDC strike ledger."""
    strikes = state.nodes[node_index].sdc
    _ORIG_DRAIN(state, node_index, reason)
    state.nodes[node_index].sdc = strikes  # BUG: strikes survive the drain


def _start_uncharged(
    state: ControlState, job: Job, placed: tuple[int, ...]
) -> None:
    """``start`` claims the gang without charging the shared ledger."""
    _ORIG_START(state, job, placed)
    for node_index in placed:  # BUG: net effect, the claim never charged
        control.release(state, job.name, node_index)


def _requeue_forever(
    state: ControlState, job: Job, max_requeues: int | None
) -> None:
    """A total loss requeues without ever consulting the budget."""
    budget = None if max_requeues is None else sys.maxsize  # BUG
    _ORIG_LOSE(state, job, budget)


def _join_mislogs_slot(
    state: ControlState, job: Job, node_index: int, iteration: int
) -> None:
    """A grant join records the wrong slot in the lineage grow log."""
    _ORIG_JOIN(state, job, node_index, iteration)
    logged_at, slot = job.grow_log[-1]
    job.grow_log = job.grow_log[:-1] + ((logged_at, slot + 1),)  # BUG: off by one


def _revoke_leaks_slot(state: ControlState, job: Job, node_index: int) -> None:
    """Revocation drops the grant record but never returns the slot."""
    control.close_grant(state, job, node_index, "revoke")
    # BUG: the revoked slot is never released back to the ledger.


def _grant_off_books(state: ControlState, job: Job, node_index: int) -> None:
    """A grant is opened without entering the open/close audit trail."""
    control.allocate(state, job.name, node_index)
    job.pending_grows += (node_index,)
    # BUG: ``grants_opened`` never incremented.


# -- hunt bounds --------------------------------------------------------------

def _solo_bounds() -> Bounds:
    """One elastic job on 2x2: the cheapest bound exercising shrink,
    grow, kill, drain and SDC seams."""
    return Bounds(
        jobs=(
            ModelJobSpec(
                name="a", target=2, elastic_grow=True, preemption="shrink"
            ),
        ),
        n_racks=2,
        nodes_per_rack=2,
        slots_per_node=1,
        placement="pack",
        depth=6,
        max_steps=2,
        max_kills=1,
        max_revives=0,
        max_drains=1,
        max_undrains=0,
        max_sdc=1,
        max_requeues=2,
    )


def _pair_bounds() -> Bounds:
    """The solo job plus a filler gang pinning the spare rack, so the
    only 'free' capacity a buggy grow policy can find is dead."""
    solo = _solo_bounds()
    return Bounds(
        jobs=(*solo.jobs, ModelJobSpec(name="b", target=2)),
        n_racks=2,
        nodes_per_rack=2,
        slots_per_node=1,
        placement="pack",
        depth=6,
        max_steps=2,
        max_kills=1,
        max_revives=0,
        max_drains=0,
        max_undrains=0,
        max_sdc=0,
        max_requeues=2,
    )


def _preempt_bounds() -> Bounds:
    """The three-job smoke workload under ``spread``, deep enough for
    arrival -> preemption -> yield -> restart."""
    return smoke_bounds(depth=5, placement="spread")


def _requeue_bounds() -> Bounds:
    """One single-learner job flapping between two nodes: two kills
    exhaust a requeue budget of one."""
    return Bounds(
        jobs=(ModelJobSpec(name="solo", target=1),),
        n_racks=1,
        nodes_per_rack=2,
        slots_per_node=1,
        placement="pack",
        depth=6,
        max_steps=1,
        max_kills=2,
        max_revives=1,
        max_drains=0,
        max_undrains=0,
        max_sdc=0,
        max_requeues=1,
    )


def clean_hunt_bounds() -> dict[str, Bounds]:
    """Every distinct bound the sweep hunts under, for the baseline
    check that the *unmutated* core proves clean under each."""
    return {
        "solo": _solo_bounds(),
        "pair": _pair_bounds(),
        "preempt-spread": _preempt_bounds(),
        "requeue": _requeue_bounds(),
    }


#: The mutant battery: one realistic control-plane bug each.
FLEET_MUTANTS: tuple[FleetMutant, ...] = (
    FleetMutant(
        operator="place-on-draining",
        description="placement scorer places gangs onto draining nodes",
        expected="no-dead-grants",
        patches=(("choose_placement", _place_on_draining),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="place-stale-ledger",
        description="placement scorer double-books occupied nodes",
        expected="no-double-grant",
        patches=(("choose_placement", _place_stale_ledger),),
        bounds=_pair_bounds(),
    ),
    FleetMutant(
        operator="grant-from-draining",
        description="grow-node choice offers slots on draining nodes",
        expected="no-dead-grants",
        patches=(("pick_grow_node", _grant_from_draining),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="grant-to-dead",
        description="grow-node choice treats dead nodes as available",
        expected="no-dead-grants",
        patches=(("pick_grow_node", _grant_to_dead),),
        bounds=_pair_bounds(),
    ),
    FleetMutant(
        operator="grow-overcommit",
        description="wants_grow off-by-one grows a full gang past target",
        expected="gang-atomicity",
        patches=(("wants_grow", _grow_past_target),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="skip-grant-revoke",
        description="kill_node leaves unjoined grants on the dead node",
        expected="no-dead-grants",
        patches=(("kill", _kill_keeps_grants),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="double-free-slot",
        description="dropping one learner frees its slot twice",
        expected="slot-conservation",
        patches=(("drop_slot", _double_free_slot),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="requeue-before-release",
        description="preemption requeues the victim before releasing its "
                    "gang, so a mid-release kick can restart it",
        expected="slot-conservation",
        patches=(("preempt_yield", _requeue_before_release),),
        bounds=_preempt_bounds(),
    ),
    FleetMutant(
        operator="skip-sdc-clear-on-drain",
        description="drain_node forgets to clear the SDC strike ledger",
        expected="drain-clears-sdc",
        patches=(("drain", _drain_keeps_sdc),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="start-uncharged",
        description="start claims a gang without charging the slot ledger",
        expected="slot-conservation",
        patches=(("start", _start_uncharged),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="unbounded-requeue",
        description="JobLost requeues forever, ignoring the budget",
        expected="bounded-requeue",
        patches=(("lose", _requeue_forever),),
        bounds=_requeue_bounds(),
    ),
    FleetMutant(
        operator="mislog-grow-slot",
        description="grant join records the wrong slot in the grow log",
        expected="lineage-valid",
        patches=(("join", _join_mislogs_slot),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="revoke-leaks-slot",
        description="grant revocation never releases the held slot",
        expected="slot-conservation",
        patches=(("revoke", _revoke_leaks_slot),),
        bounds=_solo_bounds(),
    ),
    FleetMutant(
        operator="grant-off-books",
        description="grants open without entering the closure audit trail",
        expected="grant-closure",
        patches=(("grant", _grant_off_books),),
        bounds=_solo_bounds(),
    ),
)


@contextlib.contextmanager
def _patched(mutant: FleetMutant) -> Iterator[None]:
    """Install the mutant into every seam module binding each name."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, replacement in mutant.patches:
            for module in _SEAMS:
                if hasattr(module, name):
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def hunt(mutant: FleetMutant, *, max_states: int = 500_000
         ) -> FleetVerifyResult | None:
    """Run the checker against one installed mutant (``None`` = the
    exploration blew the state cap without a verdict)."""
    with _patched(mutant):
        try:
            return verify_fleet(mutant.bounds, max_states=max_states)
        except RuntimeError:
            return None


def run_fleet_mutation_suite(
    mutants: tuple[FleetMutant, ...] = FLEET_MUTANTS,
    *,
    max_states: int = 500_000,
) -> FleetMutationResult:
    """Hunt every mutant statically and report the kill rate."""
    result = FleetMutationResult()
    for mutant in mutants:
        outcome = hunt(mutant, max_states=max_states)
        cex = outcome.counterexample if outcome is not None else None
        result.records.append(FleetMutationRecord(
            operator=mutant.operator,
            description=mutant.description,
            expected=mutant.expected,
            caught=None if cex is None else cex.invariant,
            trace_len=0 if cex is None else len(cex.trace),
        ))
    return result
