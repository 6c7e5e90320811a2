"""The fleet model checker: proofs, counterexamples, replay, bounds."""

import dataclasses

import pytest

from repro.fleet import control
from repro.fleet.verify import (
    Bounds,
    INVARIANTS,
    Event,
    ModelJobSpec,
    apply_event,
    check_invariants,
    enabled_events,
    initial_state,
    replay_trace,
    smoke_bounds,
    sweep_bounds,
    verify_fleet,
)


def tiny_bounds(**overrides):
    """One elastic job on a 2x2 cluster: proves in well under a second."""
    kw = dict(
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
        max_revives=1,
        max_drains=1,
        max_undrains=0,
        max_sdc=1,
        max_requeues=2,
    )
    kw.update(overrides)
    return Bounds(**kw)


def scripted(bounds, events):
    """Apply a fixed event sequence, asserting each event is enabled."""
    state = initial_state(bounds)
    spent = (0, 0, 0, 0, 0)
    trace = []
    for event in events:
        enabled = enabled_events(state, bounds, spent)
        assert event in enabled, (
            f"{event} not enabled; enabled: {[str(e) for e in enabled]}"
        )
        state, spent = apply_event(state, event, bounds, spent)
        trace.append(event)
    return state, tuple(trace)


# -- proofs -------------------------------------------------------------------

def test_tiny_bound_proves_all_invariants():
    result = verify_fleet(tiny_bounds())
    assert result.ok, result.format()
    assert result.states > 1000  # kills/drains/sdc all interleave
    assert result.frontier_depth == 6
    assert "PROVED all 8" in result.format()


def test_tiny_bound_proves_under_spread_placement():
    result = verify_fleet(tiny_bounds(placement="spread"))
    assert result.ok, result.format()


def test_multi_job_preemption_bound_proves():
    # Arrival/preemption/grow interleavings of the full 3-job workload
    # at reduced depth (the depth-8 proof is the slow smoke test).
    result = verify_fleet(smoke_bounds(depth=5))
    assert result.ok, result.format()
    assert result.states > 5000


@pytest.mark.slow
def test_smoke_bound_proves_all_invariants():
    # The CI fleet-verify gate: 3 jobs x 4 nodes, depth 8.
    result = verify_fleet(smoke_bounds())
    assert result.ok, result.format()
    assert result.states > 200_000


@pytest.mark.slow
def test_sweep_bound_proves_all_invariants():
    # Full budgets: revive-after-kill and undrain-after-drain flaps.
    result = verify_fleet(sweep_bounds(), max_states=4_000_000)
    assert result.ok, result.format()


# -- counterexamples ----------------------------------------------------------

def test_counterexample_is_minimal_and_replayable():
    # Break an invariant by hand-mutating a reachable state: a checker
    # counterexample must format a numbered trace and carry the state.
    bounds = tiny_bounds()
    state, trace = scripted(bounds, [Event("arrive", job="a")])
    job = state.jobs["a"]
    job.placement += (job.placement[0],)  # duplicate learner on one node
    breaches = check_invariants(state, bounds)
    assert breaches, "hand-seeded duplicate placement must breach"
    kinds = {v.invariant for v in breaches}
    assert "gang-atomicity" in kinds or "slot-conservation" in kinds


def test_explorer_finds_shortest_trace_to_seeded_policy_bug(monkeypatch):
    # Grow off-by-one (a real mutant from the battery): BFS must return
    # the 1-event trace — arrival alone over-grants — not a longer one.
    def grow_past_target(job):
        return (
            job.elastic_grow
            and job.status in ("running", "checkpointing")
            and job.active
            and not job.preempt_pending
            and job.n_live + len(job.pending_grows) <= job.target
        )

    monkeypatch.setattr(control, "wants_grow", grow_past_target)
    result = verify_fleet(tiny_bounds())
    assert not result.ok
    cex = result.counterexample
    assert len(cex.trace) == 1
    assert cex.trace[0].kind == "arrive"
    assert cex.invariant == "gang-atomicity"
    assert "minimal trace (1 events)" in cex.format()


def test_max_states_cap_never_reports_proved():
    with pytest.raises(RuntimeError, match="exceeded"):
        verify_fleet(tiny_bounds(), max_states=10)


# -- replay -------------------------------------------------------------------

def test_clean_trace_replays_through_real_scheduler():
    bounds = smoke_bounds()
    _state, trace = scripted(bounds, [
        Event("arrive", job="a"),
        Event("sdc", job="a", slot=1),
        Event("arrive", job="b"),
        Event("kill", node=3),
        Event("step", job="a"),
        Event("finish", job="a"),
    ])
    replay = replay_trace(bounds, trace)
    assert replay.ok, replay.format()
    jobs = {j.name: j for j in replay.report.jobs}
    assert jobs["a"].status == "finished"
    assert len(jobs["a"].shrinks) >= 1  # the SDC quarantine shrink happened
    assert "clean" in replay.format()


def test_replay_drives_drain_events():
    bounds = tiny_bounds()
    _state, trace = scripted(bounds, [
        Event("arrive", job="a"),
        Event("drain", node=0),
        Event("absorb", job="a"),   # migrate off the draining node
        Event("step", job="a"),     # join the replacement grant
        Event("finish", job="a"),
    ])
    replay = replay_trace(bounds, trace)
    assert replay.ok, replay.format()


# -- bounds validation --------------------------------------------------------

@pytest.mark.parametrize("overrides, match", [
    (dict(jobs=()), "at least one job"),
    (dict(depth=0), "depth"),
    (dict(max_steps=0), "max_steps"),
    (dict(max_kills=-1), "max_kills"),
    (dict(placement="ring"), "placement"),
    (dict(nodes_per_rack=0), ">= 1"),
])
def test_bounds_rejects_bad_values(overrides, match):
    with pytest.raises(ValueError, match=match):
        tiny_bounds(**overrides)


def test_bounds_rejects_duplicate_job_names():
    with pytest.raises(ValueError, match="duplicate"):
        tiny_bounds(jobs=(ModelJobSpec(name="a"), ModelJobSpec(name="a")))


def test_model_job_spec_rejects_bad_values():
    with pytest.raises(ValueError, match="gang size"):
        ModelJobSpec(name="a", target=0)
    with pytest.raises(ValueError, match="preemption"):
        ModelJobSpec(name="a", preemption="pause")


# -- determinism --------------------------------------------------------------

def test_exploration_is_deterministic():
    a = verify_fleet(tiny_bounds())
    b = verify_fleet(tiny_bounds())
    assert (a.states, a.transitions, a.frontier_depth) == (
        b.states, b.transitions, b.frontier_depth
    )


def test_invariant_registry_is_stable():
    assert INVARIANTS == (
        "slot-conservation",
        "no-double-grant",
        "no-dead-grants",
        "gang-atomicity",
        "grant-closure",
        "drain-clears-sdc",
        "lineage-valid",
        "bounded-requeue",
    )


def test_canonical_hashing_merges_equivalent_orders():
    # kill(1) then drain(2) lands on the same control-plane state as
    # drain(2) then kill(1) when no job is placed — the explorer's
    # seen-set must merge them.
    bounds = tiny_bounds(max_revives=0)
    s1, _ = scripted(bounds, [Event("kill", node=1), Event("drain", node=2)])
    s2, _ = scripted(bounds, [Event("drain", node=2), Event("kill", node=1)])
    assert s1.canonical() == s2.canonical()
