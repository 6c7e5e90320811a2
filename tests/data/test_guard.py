"""Tests for the guarded transactional shuffle (repro.data.guard)."""

import numpy as np
import pytest

from repro.data import DIMDStore, deal_records, run_shuffle_guarded
from repro.data.codec import encode_image
from repro.data.guard import diagnose_shuffle
from repro.data.shuffle import ShuffleProgress
from repro.mpi.guard import CollectiveTimeout, RetryPolicy
from repro.train.injection import (
    FaultInjector,
    FaultPlan,
    corrupt_messages,
    crash,
    drop_messages,
)


def make_stores(n_ranks, per_rank, seed=0):
    rng = np.random.default_rng(seed)
    stores = []
    for r in range(n_ranks):
        records = [
            encode_image(rng.integers(0, 256, size=(1, 4, 4), dtype=np.uint8))
            for _ in range(per_rank)
        ]
        labels = rng.integers(0, 7, size=per_rank)
        stores.append(DIMDStore(records, labels, learner=r))
    return stores


def global_multiset(stores):
    out = []
    for s in stores:
        out.extend(s.content_multiset())
    return sorted(out)


def expected_survivor_state(n_ranks, per_rank, victims, *, seed_data, seed):
    """Fault-free reference: pop victims in repair order, deal, shuffle."""
    live = make_stores(n_ranks, per_rank, seed=seed_data)
    for v in victims:
        dead = live.pop(v)
        deal_records(dead, live)
    run_shuffle_guarded(live, retry=RetryPolicy(), seed=seed, round_id=0)
    return live


def test_guarded_shuffle_fault_free():
    stores = make_stores(3, 6, seed=1)
    before = global_multiset(stores)
    reports, telemetry = run_shuffle_guarded(
        stores, retry=RetryPolicy(), seed=5, round_id=0
    )
    assert len(reports) == 3
    assert all(r.elapsed > 0 for r in reports)
    assert global_multiset(stores) == before
    assert telemetry.retries == 0
    assert telemetry.repairs == 0
    assert not any(s.in_transaction for s in stores)


def test_guarded_shuffle_single_store_local_permute():
    stores = make_stores(1, 6, seed=1)
    before = global_multiset(stores)
    reports, telemetry = run_shuffle_guarded(
        stores, retry=RetryPolicy(), seed=5, round_id=0
    )
    assert len(reports) == 1 and reports[0].elapsed == 0.0
    assert global_multiset(stores) == before


def test_crash_repairs_and_matches_fault_free_survivor_shuffle():
    stores = make_stores(3, 6, seed=2)
    before = global_multiset(stores)
    injector = FaultInjector(FaultPlan([crash(1, 0)]))
    reports, telemetry = run_shuffle_guarded(
        stores, retry=RetryPolicy(), seed=9, round_id=0,
        fault_injector=injector, iteration=0,
    )
    assert telemetry.repaired_ranks == [1]
    assert telemetry.retries == 0
    assert len(reports) == 2
    live = [stores[0], stores[2]]
    # Conservation: the victim's partition was dealt to the survivors.
    assert global_multiset(live) == before
    # Repaired run is bit-identical to a fault-free survivor-group round.
    expected = expected_survivor_state(3, 6, [1], seed_data=2, seed=9)
    for got, want in zip(live, expected):
        assert got.records == want.records
        np.testing.assert_array_equal(got.labels, want.labels)
    assert not any(s.in_transaction for s in stores)


def test_drop_rolls_back_and_retries_to_fault_free_result():
    stores = make_stores(3, 6, seed=3)
    before = global_multiset(stores)
    injector = FaultInjector(FaultPlan([drop_messages(0, rank=1, count=1)]))
    reports, telemetry = run_shuffle_guarded(
        stores, retry=RetryPolicy(1.0, backoff=0.25), seed=11, round_id=0,
        fault_injector=injector, iteration=0,
    )
    assert telemetry.retries == 1
    assert telemetry.repairs == 0
    assert len(telemetry.diagnoses) == 1
    diag = telemetry.diagnoses[0]
    assert diag.cause == "message-loss"
    assert diag.suspect_rank == 1
    assert global_multiset(stores) == before
    expected = expected_survivor_state(3, 6, [], seed_data=3, seed=11)
    for got, want in zip(stores, expected):
        assert got.records == want.records


def test_corrupt_rolls_back_and_retries_with_corruption_diagnosis():
    stores = make_stores(3, 6, seed=4)
    before = global_multiset(stores)
    injector = FaultInjector(FaultPlan([corrupt_messages(0, rank=2, count=1)]))
    reports, telemetry = run_shuffle_guarded(
        stores, retry=RetryPolicy(backoff=0.25), seed=13, round_id=0,
        fault_injector=injector, iteration=0,
    )
    assert telemetry.retries == 1
    assert telemetry.repairs == 0
    diag = telemetry.diagnoses[0]
    assert diag.cause == "corruption"
    assert diag.suspect_rank == 2
    assert any(ev.kind == "corrupt" for ev in telemetry.fault_events)
    assert global_multiset(stores) == before
    expected = expected_survivor_state(3, 6, [], seed_data=4, seed=13)
    for got, want in zip(stores, expected):
        assert got.records == want.records


def test_exhausted_retries_leave_stores_pristine():
    """Every attempt faulted: the guard raises, and the failed rounds are
    a group-wide no-op (transactional rollback)."""
    stores = make_stores(3, 6, seed=5)
    originals = [(list(s.records), s.labels.copy()) for s in stores]
    injector = FaultInjector(FaultPlan([
        drop_messages(0, rank=0, count=500, max_firings=10),
    ]))
    with pytest.raises(CollectiveTimeout) as excinfo:
        run_shuffle_guarded(
            stores, retry=RetryPolicy(1.0, 2, 0.25), seed=15, round_id=0,
            fault_injector=injector, iteration=0,
        )
    assert excinfo.value.diagnosis is not None
    for s, (records, labels) in zip(stores, originals):
        assert s.records == records
        np.testing.assert_array_equal(s.labels, labels)
        assert not s.in_transaction


# -- diagnosis unit tests -----------------------------------------------------


def test_diagnose_shuffle_message_loss():
    progress = ShuffleProgress(3)
    key = ("shg", None, 0, 1, 2)
    progress.sent(1, key, 0.2)         # sender posted...
    progress.begin_recv(2, 1, key, 0.5)  # ...receiver still waiting
    diag = diagnose_shuffle(progress, now=10.0)
    assert diag.cause == "message-loss"
    assert diag.suspect_rank == 1
    assert diag.suspect_link == (1, 2)


def test_diagnose_shuffle_silent_rank():
    progress = ShuffleProgress(3)
    # Rank 2 waits on rank 1, rank 1 waits on rank 0; rank 0 posted
    # nothing and waits on nobody: it went silent.
    progress.begin_recv(2, 1, ("k", 1, 2), 0.1)
    progress.begin_recv(1, 0, ("k", 0, 1), 0.2)
    diag = diagnose_shuffle(progress, now=10.0)
    assert diag.cause == "silent-rank"
    assert diag.suspect_rank == 0


def test_diagnose_shuffle_no_progress():
    progress = ShuffleProgress(2)
    progress.finish(0)
    diag = diagnose_shuffle(progress, now=10.0)
    assert diag.cause == "no-progress"
    assert diag.suspect_rank == 1
