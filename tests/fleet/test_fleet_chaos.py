"""Fleet chaos sweep: the robustness invariants under disturbance."""

import pytest

from repro.fleet import fleet_chaos_sweep
from repro.fleet.chaos import (
    FLEET_KINDS,
    GROW_KINDS,
    SDC_KINDS,
    FleetChaosPoint,
    _points,
)


def test_smoke_sweep_holds_all_invariants():
    report = fleet_chaos_sweep(smoke=True)
    assert report.outcomes, "sweep enumerated no points"
    failed = [o for o in report.outcomes if not o.ok]
    assert report.all_ok, "\n" + report.format() + f"\n{len(failed)} failed"


def test_smoke_sweep_covers_every_kind_and_placement():
    report = fleet_chaos_sweep(smoke=True)
    seen = {(o.point.kind, o.point.placement) for o in report.outcomes}
    for kind in FLEET_KINDS:
        for placement in ("pack", "spread"):
            assert (kind, placement) in seen


def test_node_kills_actually_fired_and_shrank_jobs():
    report = fleet_chaos_sweep(kinds=("node-kill",), smoke=True)
    assert report.all_ok, "\n" + report.format()
    for outcome in report.outcomes:
        kills = [e for e in outcome.result.events if e.kind == "node-kill"]
        assert len(kills) == 1
        shrunk = [j for j in outcome.result.jobs if j.shrinks]
        assert len(shrunk) == outcome.point.hosted


def test_grow_kind_triggers_actually_fired():
    report = fleet_chaos_sweep(kinds=GROW_KINDS, smoke=True)
    assert report.all_ok, "\n" + report.format()
    for outcome in report.outcomes:
        label = outcome.point.label()
        long = outcome.result.job("long")
        assert long.grows, label  # every grow kind regrew the shrunk job
        kinds = [e.kind for e in outcome.result.events]
        if outcome.point.kind == "grow-in-flight-kill":
            assert "grow-revoked" in kinds, label
        elif outcome.point.kind == "kill-in-grow-replay":
            assert len(long.shrinks) >= 2 and len(long.grows) >= 2, label
        elif outcome.point.kind == "node-flap":
            assert "drain" in kinds and "migrate" in kinds, label
            assert long.migrations >= 1, label


def test_sdc_kind_detects_quarantines_drains_and_migrates():
    report = fleet_chaos_sweep(kinds=SDC_KINDS, smoke=True)
    assert report.all_ok, "\n" + report.format()
    for outcome in report.outcomes:
        label = outcome.point.label()
        kinds = [e.kind for e in outcome.result.events]
        # One flip per sick job, both detected before any optimizer apply.
        assert kinds.count("sdc-detect") == 2, label
        # Cross-job strikes on the co-located node drained it and moved
        # the hosted learners elsewhere.
        assert "drain" in kinds and "migrate" in kinds, label
        for name in ("sickA", "sickB"):
            assert outcome.result.job(name).shrinks, label
        # The clean job is never quarantined — its only disturbance is
        # the migration off the drained node, which regrows elastically.
        clean = outcome.result.job("clean")
        assert clean.migrations >= 1 and clean.grows, label


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown chaos kind.*fleet plane"):
        fleet_chaos_sweep(kinds=("bogus",))


def test_full_point_set_covers_node_kill_cross_product():
    points = _points(FLEET_KINDS, ("pack", "spread"), smoke=False)
    kills = {
        (p.placement, p.n_jobs, p.hosted)
        for p in points
        if p.kind == "node-kill"
    }
    for placement in ("pack", "spread"):
        for n_jobs in (3, 5):
            for hosted in (1, 2):
                assert (placement, n_jobs, hosted) in kills
    assert FleetChaosPoint("node-kill", "pack", 3, 1).label()


@pytest.mark.slow
def test_full_sweep_holds_all_invariants():
    report = fleet_chaos_sweep(smoke=False)
    assert report.all_ok, "\n" + report.format()
    # Full sweep widens node-kill to the 5-job workload on both policies.
    kill_points = {
        (o.point.placement, o.point.n_jobs, o.point.hosted)
        for o in report.outcomes
        if o.point.kind == "node-kill"
    }
    assert ("pack", 5, 1) in kill_points
    assert ("spread", 5, 2) in kill_points
