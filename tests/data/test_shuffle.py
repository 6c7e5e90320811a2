"""Tests for the Algorithm 2 distributed shuffle (functional + timing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DIMDStore, IMAGENET_1K, IMAGENET_22K, distributed_shuffle, simulate_shuffle
from repro.data.codec import encode_image
from repro.data.integrity import record_crc
from repro.mpi import build_world


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


def run_shuffle(stores, *, seed=0, n_groups=1, max_chunk_bytes=2**31):
    n = len(stores)
    engine, world, comm = build_world(n, topology="star")
    comms = comm.split(n_groups)
    procs = []
    for r in range(n):
        g = r // (n // n_groups)
        sub = comms[g]
        procs.append(
            engine.process(
                distributed_shuffle(
                    sub,
                    sub.group_rank(r),
                    stores[r],
                    seed=seed,
                    max_chunk_bytes=max_chunk_bytes,
                ),
                name=f"shuf{r}",
            )
        )
    engine.run(engine.all_of(procs))
    world.assert_quiescent()
    return [p.value for p in procs]


def global_multiset(stores):
    out = []
    for s in stores:
        out.extend(s.content_multiset())
    return sorted(out)


def test_shuffle_preserves_global_multiset():
    stores = make_stores(4, 8, seed=1)
    before = global_multiset(stores)
    run_shuffle(stores, seed=42)
    assert global_multiset(stores) == before


def test_shuffle_moves_records_between_nodes():
    stores = make_stores(4, 16, seed=2)
    originals = [set(s.records) for s in stores]
    run_shuffle(stores, seed=7)
    # With 16 records per node and uniform destinations, each node keeps
    # ~1/4 of its own records; all-stay is essentially impossible.
    moved = sum(
        1
        for r, s in enumerate(stores)
        for rec in s.records
        if rec not in originals[r]
    )
    assert moved > 0


def test_shuffle_is_deterministic_per_seed():
    s1 = make_stores(3, 6, seed=3)
    s2 = make_stores(3, 6, seed=3)
    run_shuffle(s1, seed=11)
    run_shuffle(s2, seed=11)
    for a, b in zip(s1, s2):
        assert a.records == b.records
        np.testing.assert_array_equal(a.labels, b.labels)


def test_shuffle_different_seeds_differ():
    s1 = make_stores(3, 12, seed=4)
    s2 = make_stores(3, 12, seed=4)
    run_shuffle(s1, seed=1)
    run_shuffle(s2, seed=2)
    assert any(a.records != b.records for a, b in zip(s1, s2))


def test_shuffle_multi_pass_32bit_workaround():
    """Tiny max_chunk_bytes forces several AlltoAllv passes (Algorithm 2's
    m sub-tensors); conservation must still hold."""
    stores = make_stores(4, 10, seed=5)
    before = global_multiset(stores)
    reports = run_shuffle(stores, seed=9, max_chunk_bytes=64)
    assert all(r.n_passes > 1 for r in reports)
    assert global_multiset(stores) == before


def test_group_restricted_shuffle_stays_in_group():
    stores = make_stores(4, 10, seed=6)
    group_a_before = global_multiset(stores[:2])
    group_b_before = global_multiset(stores[2:])
    run_shuffle(stores, seed=13, n_groups=2)
    assert global_multiset(stores[:2]) == group_a_before
    assert global_multiset(stores[2:]) == group_b_before


def test_single_rank_shuffle_is_local_permute():
    stores = make_stores(1, 8, seed=7)
    before = global_multiset(stores)
    run_shuffle(stores, seed=3)
    assert global_multiset(stores) == before


@settings(max_examples=8, deadline=None)
@given(
    n_ranks=st.sampled_from([2, 3, 4]),
    per_rank=st.integers(1, 12),
    seed=st.integers(0, 50),
)
def test_shuffle_conservation_property(n_ranks, per_rank, seed):
    stores = make_stores(n_ranks, per_rank, seed=seed)
    before = global_multiset(stores)
    run_shuffle(stores, seed=seed + 100)
    assert global_multiset(stores) == before


def test_shuffle_report_elapsed_positive_multi_rank():
    """The report must account the real simulated exchange time (the old
    implementation always returned 0.0)."""
    stores = make_stores(4, 8, seed=8)
    reports = run_shuffle(stores, seed=21)
    for r in reports:
        assert r.elapsed > 0.0
        assert r.bytes_exchanged > 0.0


def test_shuffle_report_elapsed_zero_single_rank():
    stores = make_stores(1, 8, seed=8)
    (report,) = run_shuffle(stores, seed=21)
    assert report.elapsed == 0.0


# -- edge cases ---------------------------------------------------------------


def test_shuffle_with_one_empty_store():
    stores = make_stores(3, 6, seed=9)
    stores[1] = DIMDStore([], np.array([], dtype=np.int64), learner=1)
    before = global_multiset(stores)
    run_shuffle(stores, seed=17)
    assert global_multiset(stores) == before


def test_shuffle_with_all_stores_empty():
    stores = [
        DIMDStore([], np.array([], dtype=np.int64), learner=r) for r in range(3)
    ]
    reports = run_shuffle(stores, seed=17)
    assert all(len(s) == 0 for s in stores)
    assert all(r.bytes_exchanged == 0.0 for r in reports)


def test_shuffle_single_record_stores():
    stores = make_stores(3, 1, seed=10)
    before = global_multiset(stores)
    run_shuffle(stores, seed=19)
    assert global_multiset(stores) == before


def test_shuffle_chunk_smaller_than_largest_record():
    """max_chunk_bytes below one record's size must still shuffle whole
    records (passes multiply, records never split)."""
    stores = make_stores(3, 2, seed=11)
    largest = max(len(r) for s in stores for r in s.records)
    before = global_multiset(stores)
    reports = run_shuffle(stores, seed=23, max_chunk_bytes=largest // 2)
    assert all(r.n_passes >= 2 for r in reports)
    assert global_multiset(stores) == before


def test_shuffle_rejects_nonpositive_chunk():
    stores = make_stores(2, 2, seed=12)
    with pytest.raises(ValueError):
        run_shuffle(stores, seed=3, max_chunk_bytes=0)


# -- integrity ----------------------------------------------------------------


def test_shuffle_quarantines_at_rest_corruption():
    """A record whose bytes rotted in memory is pulled out of circulation
    at pack time, reported, and excluded from the exchange — while every
    healthy record still shuffles and conserves."""
    stores = make_stores(3, 6, seed=13)
    victim = stores[1].records[2]
    corrupted = bytes([victim[0] ^ 0xFF]) + victim[1:]
    assert record_crc(corrupted) != record_crc(victim)
    stores[1].records[2] = corrupted  # checksum column keeps the old CRC
    healthy_before = [
        pair for s in stores for pair in s.content_multiset()
        if pair[0] != corrupted
    ]
    reports = run_shuffle(stores, seed=29)
    assert sum(r.quarantined for r in reports) == 1
    assert global_multiset(stores) == sorted(healthy_before)
    quarantined = [q for s in stores for q in s.quarantined]
    assert len(quarantined) == 1
    assert quarantined[0].blob == corrupted
    assert quarantined[0].actual_crc == record_crc(corrupted)


# -- full-scale timing (Figures 7-9) ------------------------------------------


def test_simulate_shuffle_imagenet22k_32_learners():
    """§5.2: 'For Imagenet-22k the time to shuffle the entire data among 32
    learners is just 4.2 seconds' — we require the same few-second scale."""
    report = simulate_shuffle(32, IMAGENET_22K)
    assert 2.0 < report.elapsed < 8.0
    assert report.memory_per_node == pytest.approx(220e9 / 32)
    assert report.n_passes >= 2  # 6.9 GB partitions exceed the 2 GiB limit


def test_simulate_shuffle_time_decreases_with_learners():
    """Figures 7-8: doubling learners roughly halves the shuffle time."""
    times = [simulate_shuffle(n, IMAGENET_1K).elapsed for n in (8, 16, 32)]
    assert times[0] > times[1] > times[2]
    assert times[0] / times[2] > 2.0


def test_simulate_shuffle_memory_halves_per_doubling():
    mems = [simulate_shuffle(n, IMAGENET_22K).memory_per_node for n in (8, 16, 32)]
    assert mems[0] == pytest.approx(2 * mems[1])
    assert mems[1] == pytest.approx(2 * mems[2])


def test_simulate_group_shuffle_roughly_flat():
    """Figure 9: on a symmetric network, group count changes little."""
    base = simulate_shuffle(32, IMAGENET_22K, n_groups=1).elapsed
    for g in (4, 8, 16):
        t = simulate_shuffle(32, IMAGENET_22K, n_groups=g).elapsed
        assert t == pytest.approx(base, rel=0.5)


def test_simulate_shuffle_validation():
    with pytest.raises(ValueError):
        simulate_shuffle(8, IMAGENET_1K, pack_bandwidth=0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"max_chunk_bytes": 0}, "max_chunk_bytes"),
        ({"max_chunk_bytes": -1}, "max_chunk_bytes"),
        ({"pack_bandwidth": float("nan")}, "pack_bandwidth"),
        ({"pack_bandwidth": -1.0}, "pack_bandwidth"),
    ],
    ids=["chunk-zero", "chunk-negative", "bandwidth-nan", "bandwidth-negative"],
)
def test_simulate_shuffle_rejects_bad_parameter_by_name(kwargs, name):
    # A zero chunk used to divide by zero, a negative one ran a single
    # pass, and a NaN bandwidth failed deep inside the engine.
    with pytest.raises(ValueError, match=name):
        simulate_shuffle(8, IMAGENET_1K, **kwargs)
