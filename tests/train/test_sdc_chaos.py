"""SDC chaos sweep: every scripted gradient bit-flip is detected,
attributed, quarantined, and repaired bit-exact."""

import pytest

from repro.train.sdc_chaos import (
    _N_BUCKETS,
    _N_LEARNERS,
    _N_STEPS,
    SDCChaosPoint,
    run_sdc_point,
    sdc_chaos_points,
    sdc_chaos_sweep,
)


def test_smoke_sweep_holds_all_invariants():
    report = sdc_chaos_sweep(smoke=True)
    assert report.outcomes, "sweep enumerated no points"
    assert report.all_ok, "\n" + report.format()
    assert report.violations == []  # the clean path stayed zero-cost


def test_smoke_points_cover_corner_ranks_and_buckets():
    points = sdc_chaos_points(smoke=True)
    assert len(points) == 4
    assert {p.rank for p in points} == {0, _N_LEARNERS - 1}
    assert {p.bucket for p in points} == {0, _N_BUCKETS - 1}
    assert all(p.iteration == 1 for p in points)


def test_full_grid_covers_rank_bucket_iteration_cross_product():
    points = sdc_chaos_points(smoke=False)
    seen = {(p.rank, p.bucket, p.iteration) for p in points}
    assert len(seen) == len(points)
    for rank in range(_N_LEARNERS):
        for bucket in range(_N_BUCKETS):
            for iteration in (0, 1, _N_STEPS - 1):
                assert (rank, bucket, iteration) in seen


def test_max_points_subsamples_the_grid():
    report = sdc_chaos_sweep(max_points=2)
    assert len(report.outcomes) == 2
    assert report.all_ok, "\n" + report.format()


def test_single_point_outcome_carries_label():
    outcome = run_sdc_point(SDCChaosPoint(1, 0, 2))
    assert outcome.ok, outcome.violations
    assert outcome.fired and outcome.makespan > outcome.ref_makespan
    assert "rank=1" in outcome.point.label()


@pytest.mark.slow
def test_full_sweep_holds_all_invariants():
    report = sdc_chaos_sweep(smoke=False)
    assert len(report.outcomes) == _N_LEARNERS * _N_BUCKETS * 3
    assert report.all_ok, "\n" + report.format()
