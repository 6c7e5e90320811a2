"""Fleet chaos sweep: the robustness invariants under disturbance."""

from collections import Counter

import pytest

import repro.chaos
import repro.fleet.chaos as fleet_chaos
from repro.chaos import References
from repro.fleet import JobSpec, fleet_chaos_sweep
from repro.fleet.chaos import (
    FLEET_KINDS,
    GROW_KINDS,
    SCENARIOS,
    SDC_KINDS,
    FleetChaosPoint,
    _points,
    _reference_params,
    _run_fleet,
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


class _Unshared(References):
    """A reference cache that rebuilds every lookup: the sweep as if no
    two runs shared a fault-free result."""

    def get(self, key, build):
        return build()


def _record(report):
    return [
        (o.point.label(), o.makespan, o.ref_makespan, o.violations, o.fired,
         [str(e) for e in o.result.events])
        for o in report.outcomes
    ]


def test_shared_references_match_unshared_sweep(monkeypatch):
    shared = _record(fleet_chaos_sweep(smoke=True))
    monkeypatch.setattr(repro.chaos, "References", _Unshared)
    assert _record(fleet_chaos_sweep(smoke=True)) == shared


@pytest.mark.parametrize("seed", [0, 1])
def test_no_untriggered_fleet_run_repeats(monkeypatch, seed):
    inputs = Counter()

    def recording(specs, placement, cluster_kw, **kw):
        if kw.get("trigger") is None:
            inputs[(tuple(specs), placement, tuple(sorted(cluster_kw.items())),
                    kw.get("seed", 0), kw.get("max_queued"), kw.get("health"))] += 1
        return _run_fleet(specs, placement, cluster_kw, **kw)

    monkeypatch.setattr(fleet_chaos, "_run_fleet", recording)
    report = fleet_chaos_sweep(smoke=True, seed=seed)
    assert report.all_ok, "\n" + report.format()
    repeated = {key: n for key, n in inputs.items() if n > 1}
    assert inputs and not repeated
    # Every multi-job run is at the sweep's seed (solo lineage replays
    # always run at seed 0).
    assert {key[3] for key in inputs if len(key[0]) > 1} == {seed}


def test_undisturbed_point_is_its_own_reference():
    report = fleet_chaos_sweep(kinds=("burst-arrival",), smoke=True, seed=1)
    scenario = SCENARIOS["burst-arrival"]
    for outcome in report.outcomes:
        fresh = _run_fleet(
            scenario.workload(outcome.point.n_jobs), outcome.point.placement,
            scenario.cluster, seed=1, max_queued=scenario.max_queued,
        ).report
        assert outcome.ref_makespan == fresh.makespan == outcome.makespan
        assert [str(e) for e in outcome.result.events] == [
            str(e) for e in fresh.events
        ]


def test_reference_params_keyed_by_every_input():
    refs = References()
    cluster = SCENARIOS["grow-in-flight-kill"].cluster
    shapes = {
        n_classes: _reference_params(
            JobSpec(name="solo", n_steps=2, seed=7, n_classes=n_classes),
            (), (), cluster, refs,
        ).shape
        for n_classes in (3, 5)
    }
    assert shapes[3] != shapes[5]


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
