"""Tests for the guard-plane chaos sweeps (repro.mpi.chaos).

The full sweeps (every algorithm, every fault point, at 2 and 4 ranks)
are ``slow``-marked so tier-1 stays fast; tier-1 still runs the smoke
slice — one algorithm per structural family at 4 ranks — plus the unit
tests of the enumeration itself and negative tests that feed each shared
invariant a fabricated failure.
"""

import numpy as np
import pytest

from repro.data.dimd import DIMDStore
from repro.mpi.chaos import (
    DEFAULT_KINDS,
    SHUFFLE,
    SHUFFLE_KINDS,
    AllreducePlane,
    ChaosPoint,
    allreduce_violations,
    chaos_input,
    chaos_sweep,
    enumerate_points,
    guard_violations,
    run_point,
    shuffle_chaos_stores,
    shuffle_chaos_sweep,
    shuffle_violations,
    smoke_algorithms,
    survivors,
)
from repro.mpi.collectives import ALLREDUCE_COMPILERS, ALLREDUCE_FAMILIES
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.guard import CollectiveTelemetry, RetryPolicy
from repro.mpi.schedule import FailureDiagnosis

ALL_ALGORITHMS = sorted(ALLREDUCE_COMPILERS)


def _named_victim(outcome):
    return all(d.suspect_rank == outcome.point.rank for d in outcome.result.diagnoses)


# -- enumeration --------------------------------------------------------------


def test_chaos_input_is_deterministic_and_distinct():
    a = chaos_input(0, 24)
    b = chaos_input(1, 24)
    np.testing.assert_array_equal(a, chaos_input(0, 24))
    assert a.dtype == np.int64
    assert not np.array_equal(a, b)


def test_smoke_algorithms_cover_every_family():
    smoke = smoke_algorithms()
    assert len(smoke) == len(ALLREDUCE_FAMILIES)
    for name, members in zip(smoke, ALLREDUCE_FAMILIES.values()):
        assert name == members[0]
        assert name in ALLREDUCE_COMPILERS


def test_reference_run_records_boundaries_and_sends():
    ref = AllreducePlane("ring").reference(4)
    assert ref.elapsed > 0
    for r in range(4):
        assert ref.boundaries[r][0] == 0.0
        assert ref.boundaries[r] == tuple(sorted(ref.boundaries[r]))
        assert ref.send_times[r]  # every rank sends in a 4-rank allreduce
        assert all(t <= ref.elapsed for t in ref.send_times[r])


def test_enumerate_points_covers_every_rank_and_kind():
    plane = AllreducePlane("multicolor")
    points = enumerate_points(plane, 4)
    ref = plane.reference(4)
    kinds = {p.kind for p in points}
    assert kinds == set(DEFAULT_KINDS)
    for r in range(4):
        crashes = [p for p in points if p.kind == "crash" and p.rank == r]
        drops = [p for p in points if p.kind == "drop" and p.rank == r]
        assert len(crashes) == len(ref.boundaries[r])
        assert any(p.at == 0.0 for p in crashes)
        assert len(drops) == len(ref.send_times[r])


def test_enumerate_points_kind_filter_and_cap():
    plane = AllreducePlane("ring")
    points = enumerate_points(plane, 4, kinds=("crash",), max_points_per_rank=2)
    ref = plane.reference(4)
    assert {p.kind for p in points} == {"crash"}
    for r in range(4):
        mine = [p for p in points if p.rank == r]
        assert len(mine) <= 2
        if len(ref.boundaries[r]) > 2:
            assert all("subsampled" in p.note for p in mine)  # never silent


def test_enumerate_points_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        enumerate_points(AllreducePlane("ring"), 4, kinds=("gamma-ray",))


def test_chaos_sweep_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        chaos_sweep(["quantum"], n_ranks=(2,))


# -- single points ------------------------------------------------------------


def test_crash_point_repairs_and_stays_bit_exact():
    points = enumerate_points(AllreducePlane("ring"), 4, kinds=("crash",))
    # A mid-flight crash of rank 2 (not the trivial t=0 boundary).
    point = [p for p in points if p.rank == 2 and p.at > 0][0]
    outcome = run_point(point)
    assert outcome.ok, outcome.violations
    assert outcome.fired
    assert outcome.result.repairs == 1
    assert outcome.result.retries == 0
    assert survivors(4, outcome.result.repaired_ranks) == (0, 1, 3)


def test_drop_point_retries_and_names_victim():
    points = enumerate_points(AllreducePlane("multicolor"), 4, kinds=("drop",))
    point = [p for p in points if p.rank == 1][0]
    outcome = run_point(point)
    assert outcome.ok, outcome.violations
    assert outcome.fired
    assert outcome.result.repairs == 0
    assert outcome.result.retries >= 1
    assert _named_victim(outcome)
    assert survivors(4, outcome.result.repaired_ranks) == (0, 1, 2, 3)


# -- sweeps -------------------------------------------------------------------


def test_smoke_sweep_at_4_ranks():
    report = chaos_sweep(smoke_algorithms(), n_ranks=(4,))
    n = len(report.outcomes)
    assert n > 0
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)
    # The rendered report is what CI prints on failure; keep it well-formed.
    assert f"allreduce chaos: {n} points, {n} ok, 0 failed" in report.format()


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_full_sweep_at_2_ranks(name):
    report = chaos_sweep([name], n_ranks=(2,))
    assert report.outcomes
    assert report.all_ok, report.format()


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_full_sweep_at_4_ranks(name):
    report = chaos_sweep([name], n_ranks=(4,))
    assert report.outcomes
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


def test_report_summary_rows_aggregate_by_algorithm():
    report = chaos_sweep(["binomial"], n_ranks=(2, 4))
    rows = report.groups()
    assert list(rows) == ["binomial@2", "binomial@4"]
    assert sum(len(outcomes) for outcomes in rows.values()) == len(report.outcomes)
    assert all(o.ok for outcomes in rows.values() for o in outcomes)
    assert "binomial@4" in report.format()


def test_chaos_point_str_mentions_everything():
    p = ChaosPoint(AllreducePlane("ring"), 4, "drop", 2, 0.125, note="send 3/9")
    s = p.label()
    assert "ring@4" in s and "drop" in s and "rank 2" in s and "send 3/9" in s


# -- shuffle (data-plane) chaos -----------------------------------------------


def test_shuffle_reference_run_records_boundaries_and_sends():
    ref = SHUFFLE.reference(4)
    assert ref.algorithm == "shuffle"
    assert ref.elapsed > 0
    for r in range(4):
        assert ref.boundaries[r][0] == 0.0
        assert ref.send_times[r]  # every rank sends in a 4-rank shuffle
        assert all(t <= ref.elapsed for t in ref.send_times[r])


def test_enumerate_shuffle_points_covers_every_rank_and_kind():
    points = enumerate_points(SHUFFLE, 4)
    ref = SHUFFLE.reference(4)
    assert {p.kind for p in points} == set(SHUFFLE_KINDS)
    assert all(p.plane is SHUFFLE for p in points)
    for r in range(4):
        crashes = [p for p in points if p.kind == "crash" and p.rank == r]
        corrupts = [p for p in points if p.kind == "corrupt" and p.rank == r]
        assert len(crashes) == len(ref.boundaries[r])
        assert any(p.at == 0.0 for p in crashes)
        assert len(corrupts) == len(ref.send_times[r])


def test_enumerate_shuffle_points_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        enumerate_points(SHUFFLE, 4, kinds=("degrade",))


def test_shuffle_crash_point_repairs_and_conserves():
    points = enumerate_points(SHUFFLE, 4, kinds=("crash",))
    point = [p for p in points if p.rank == 2 and p.at > 0][0]
    outcome = run_point(point)
    assert outcome.ok, outcome.violations
    assert outcome.fired
    assert outcome.result.repairs == 1
    assert outcome.result.retries == 0
    assert survivors(4, outcome.result.repaired_ranks) == (0, 1, 3)


def test_shuffle_corrupt_point_retries_and_names_victim():
    points = enumerate_points(SHUFFLE, 4, kinds=("corrupt",))
    point = [p for p in points if p.rank == 1][0]
    outcome = run_point(point)
    assert outcome.ok, outcome.violations
    assert outcome.fired
    assert outcome.result.repairs == 0
    assert outcome.result.retries >= 1
    assert _named_victim(outcome)
    assert survivors(4, outcome.result.repaired_ranks) == (0, 1, 2, 3)


def test_shuffle_smoke_sweep_at_2_ranks():
    report = shuffle_chaos_sweep((2,), max_points_per_rank=3)
    assert report.outcomes
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


@pytest.mark.slow
def test_shuffle_full_sweep_at_2_ranks():
    report = shuffle_chaos_sweep((2,))
    assert report.outcomes
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


@pytest.mark.slow
def test_shuffle_full_sweep_at_4_ranks():
    report = shuffle_chaos_sweep((4,))
    assert report.outcomes
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


# -- the shared invariants, fed fabricated failures ----------------------------

RETRY = RetryPolicy(timeout=1.0, max_retries=3, backoff=0.25)
CRASH = ChaosPoint(AllreducePlane("ring"), 4, "crash", 2, 0.5)
DROP = ChaosPoint(AllreducePlane("ring"), 4, "drop", 1, 0.5)


def _diagnosis(rank):
    return FailureDiagnosis(
        now=0.5, n_ranks=4, steps_done=(1, 1, 1, 1), steps_total=(2, 2, 2, 2),
        stalled=(), cause="message-loss", suspect_rank=rank,
    )


def _telemetry(**kw):
    """A telemetry record that passes every check unless ``kw`` breaks it:
    one retry for a transient fault, diagnosed against rank 1."""
    base = dict(sim_time=1.5, retries=1, backoff=0.25,
                diagnoses=[_diagnosis(1)], repaired_ranks=[])
    base.update(kw)
    return CollectiveTelemetry(**base)


def test_guard_check_passes_consistent_telemetry():
    assert guard_violations(DROP, True, RETRY, _telemetry()) == []
    crash = _telemetry(retries=0, backoff=0.0, diagnoses=[], repaired_ranks=[2])
    assert guard_violations(CRASH, True, RETRY, crash) == []


@pytest.mark.parametrize("point, telemetry, expected", [
    (DROP, _telemetry(sim_time=9.0), "exceeds watchdog bound"),
    (DROP, _telemetry(diagnoses=[_diagnosis(1), _diagnosis(1)]),
     "1 retries but 2 diagnoses"),
    (DROP, _telemetry(retries=2, backoff=0.5,
                      diagnoses=[_diagnosis(1), _diagnosis(1)]),
     "not the geometric sum"),
    (CRASH, _telemetry(repaired_ranks=[2], diagnoses=[_diagnosis(2)]),
     "surgical repair consumed the retry budget"),
    (CRASH, _telemetry(sim_time=0.5, retries=0, backoff=0.0, diagnoses=[],
                       repaired_ranks=[2, 1]),
     "2 repairs for one crash"),
    (DROP, _telemetry(repaired_ranks=[1]), "1 repairs for a drop fault"),
    (DROP, _telemetry(diagnoses=[_diagnosis(3)]),
     "did not name the injected victim"),
], ids=["watchdog-bound", "retries-vs-diagnoses", "backoff",
        "crash-retried", "crash-repaired-twice", "transient-repaired",
        "wrong-suspect"])
def test_guard_check_flags_each_broken_invariant(point, telemetry, expected):
    violations = guard_violations(point, True, RETRY, telemetry)
    assert len(violations) == 1, violations
    assert expected in violations[0]


def test_allreduce_check_flags_a_wrong_survivor_sum():
    inputs = [chaos_input(r, 8) for r in (0, 1, 3)]
    total = np.sum(inputs, axis=0, dtype=np.int64)
    good = [ArrayBuffer(total.copy()) for _ in inputs]
    assert allreduce_violations(inputs, good) == []
    bad = [ArrayBuffer(total.copy()) for _ in inputs]
    bad[1].array[3] += 1
    violations = allreduce_violations(inputs, bad)
    assert violations == [
        "survivor 1 result differs from the fault-free survivor-group sum"
    ]
    assert "2 result buffers for 3 survivors" in allreduce_violations(
        inputs, good[:2]
    )[0]


def _shuffle_fixture():
    """Stores and references of a clean 2-rank shuffle (no victims)."""
    stores = SHUFFLE.run(2, retry=RetryPolicy())
    before = sorted(
        pair for s in shuffle_chaos_stores(2) for pair in s.content_multiset()
    )
    expected = SHUFFLE.run(2, retry=RetryPolicy())
    return stores, before, expected


def test_shuffle_check_flags_a_lost_record():
    stores, before, expected = _shuffle_fixture()
    assert shuffle_violations(stores, (0, 1), before, expected) == []
    s = stores[1]
    stores[1] = DIMDStore(s.records[:-1], s.labels[:-1], learner=s.learner)
    violations = shuffle_violations(stores, (0, 1), before, expected)
    assert any("record multiset changed" in v for v in violations), violations


def test_shuffle_check_flags_a_leaked_transaction():
    stores, before, expected = _shuffle_fixture()
    stores[0].begin_shuffle(1)
    assert shuffle_violations(stores, (0, 1), before, expected) == [
        "open shuffle transaction leaked on store(s) [0]"
    ]
