"""Ledger audit error paths: leaks, torn grants, unreplayable lineages.

The model checker proves these can't happen under the real scheduler's
policies; these tests prove the *auditors themselves* — the control
core's ledger checks, the cluster's leak report and the state-level
invariants — catch each failure shape when it is constructed by hand.
"""

import pytest

from repro.fleet import control
from repro.fleet.cluster import SharedCluster
from repro.fleet.control import ControlState, Job
from repro.fleet.jobs import validate_scripted_lineage
from repro.fleet.verify import (
    Bounds,
    ModelJobSpec,
    check_invariants,
    initial_state,
)
from repro.sim.engine import SimulationError


def small_bounds():
    return Bounds(
        jobs=(ModelJobSpec(name="a", target=2, elastic_grow=True),),
        n_racks=1,
        nodes_per_rack=2,
    )


# -- the slot ledger (the runtime's strict control state) ---------------------

def strict_ledger(**cluster_kw):
    """A cluster plus the strict control state a scheduler keeps over it."""
    cluster = SharedCluster(**cluster_kw)
    jobs = {name: Job(name, 0, 1, False, "requeue") for name in "ab"}
    state = ControlState(
        "pack", cluster.nodes, jobs, strict=True, on_ledger=cluster.account
    )
    return cluster, state


def test_leaked_placements_empty_on_balanced_ledger():
    cluster, state = strict_ledger(n_racks=1, nodes_per_rack=2, slots_per_node=1)
    control.allocate(state, "a", 0)
    control.release(state, "a", 0)
    assert cluster.leaked_placements() == []


def test_leaked_placements_reports_every_held_slot():
    cluster, state = strict_ledger(n_racks=1, nodes_per_rack=2, slots_per_node=2)
    control.allocate(state, "a", 0)
    control.allocate(state, "a", 0)
    control.allocate(state, "b", 1)
    assert cluster.leaked_placements() == [(0, "a", 2), (1, "b", 1)]
    control.release(state, "a", 0)
    assert cluster.leaked_placements() == [(0, "a", 1), (1, "b", 1)]


def test_leaked_placements_surfaces_torn_grant_across_kill():
    # A slot allocated, its node killed, never revoked nor absorbed: the
    # audit must still name it — death does not forgive a held slot.
    cluster, state = strict_ledger(n_racks=1, nodes_per_rack=2, slots_per_node=1)
    control.allocate(state, "a", 1)
    control.kill(state, 1)
    assert cluster.nodes[1].held == {"a": 1}  # kill keeps the allocation
    assert cluster.leaked_placements() == [(1, "a", 1)]
    control.revive(state, 1)
    assert cluster.leaked_placements() == [(1, "a", 1)]  # flap keeps it
    control.release(state, "a", 1)
    assert cluster.leaked_placements() == []


def test_ledger_rejects_double_release_and_dead_allocate():
    _cluster, state = strict_ledger(n_racks=1, nodes_per_rack=2, slots_per_node=1)
    control.allocate(state, "a", 0)
    control.release(state, "a", 0)
    with pytest.raises(SimulationError, match="unheld slot"):
        control.release(state, "a", 0)
    control.kill(state, 1)
    with pytest.raises(SimulationError, match="dead node"):
        control.allocate(state, "a", 1)
    # The strict (runtime) ledger raises *and* records, like the checker's.
    assert [v.invariant for v in state.violations] == [
        "slot-conservation", "no-dead-grants",
    ]


# -- grant lifecycle ----------------------------------------------------------

def test_model_revoke_after_join_is_a_closure_violation():
    # Join consumes the grant; a second close (the revocation racing the
    # join) must be flagged, not silently double-counted.
    bounds = small_bounds()
    state = initial_state(bounds)
    job = state.jobs["a"]
    control.grant(state, job, 0)
    control.close_grant(state, job, 0, "join")
    assert not state.violations
    control.close_grant(state, job, 0, "revoke")
    assert any(
        v.invariant == "grant-closure" and "not held" in v.detail
        for v in state.violations
    )


def test_model_torn_grant_is_a_dead_grant_violation():
    # Grant open, node killed, grant not revoked: the state-level check
    # names the dangling grant.
    bounds = small_bounds()
    state = initial_state(bounds)
    job = state.jobs["a"]
    job.status = "running"
    control.grant(state, job, 1)
    state.nodes[1].alive = False
    breaches = check_invariants(state, bounds)
    assert any(
        v.invariant == "no-dead-grants" and "dead node 1" in v.detail
        for v in breaches
    )


# -- scripted lineage error paths ---------------------------------------------

def test_lineage_rejects_dropping_last_learner():
    with pytest.raises(ValueError, match="drop the last learner"):
        validate_scripted_lineage(2, 4, ((0, 1), (1, 0)), ())


def test_lineage_rejects_grow_slot_not_at_end():
    # Grown learners append: slot must equal the live count.
    with pytest.raises(ValueError, match="expected slot 2"):
        validate_scripted_lineage(2, 4, (), ((1, 0),))


def test_lineage_rejects_interleaved_same_iteration_shrink_then_grow():
    # Within one iteration grows apply first (top of step), shrinks
    # after compute — a script that only replays shrink-before-grow at
    # the same boundary is unreplayable and must be rejected.
    with pytest.raises(ValueError, match="expected slot 2"):
        validate_scripted_lineage(2, 4, ((2, 1),), ((2, 1),))
    # The replayable spelling of the same intent is accepted.
    validate_scripted_lineage(2, 4, ((2, 1),), ((2, 2),))


def test_lineage_rejects_shrink_of_unknown_slot_after_interleaving():
    # After a scripted shrink the gang is smaller; a later shrink naming
    # the departed slot index must be rejected with the live range.
    with pytest.raises(ValueError, match=r"slot outside \[0, 2\)"):
        validate_scripted_lineage(3, 6, ((1, 0), (2, 2)), ())
