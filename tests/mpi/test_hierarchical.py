"""Tests for the hierarchical allreduce extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ALLREDUCE_COMPILERS, simulate_allreduce
from repro.net import CONNECTX5_DUAL, fat_tree


def expected_sum(n_ranks, count, seed):
    rng = np.random.default_rng(seed)
    return np.sum(
        [rng.standard_normal(count).astype("float32") for _ in range(n_ranks)],
        axis=0,
    )


def test_registered():
    assert "hierarchical" in ALLREDUCE_COMPILERS


@pytest.mark.parametrize("n_ranks", [2, 4, 8, 16])
def test_hierarchical_matches_numpy(n_ranks):
    out = simulate_allreduce(
        n_ranks, 2048, algorithm="hierarchical", payload=True, seed=5
    )
    truth = expected_sum(n_ranks, 512, 5)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_hierarchical_ragged_groups():
    """Size not divisible by group_size: the last group is smaller."""
    out = simulate_allreduce(
        6, 1024, algorithm="hierarchical", payload=True, seed=9, group_size=4
    )
    truth = expected_sum(6, 256, 9)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_hierarchical_group_size_one_degenerates_to_rsag():
    """group_size=1 means every rank is a leader: plain rsag."""
    t_h = simulate_allreduce(
        8, 1 << 20, algorithm="hierarchical", group_size=1
    ).elapsed
    t_r = simulate_allreduce(8, 1 << 20, algorithm="rsag").elapsed
    assert t_h == pytest.approx(t_r, rel=0.05)


def test_hierarchical_reduces_core_traffic():
    """The 2-D layout's value: fewer bytes cross the leaf-spine core.

    (With contiguous rank placement a flat ring is already near-optimal in
    *time* — the same symmetric-fabric effect behind the paper's Figure 9 —
    but the hierarchical exchange still shrinks core traffic, which is what
    matters when the core is shared or oversubscribed.)
    """
    from repro.mpi import ScheduleExecutor, SizeBuffer, build_world

    nbytes = 32 << 20
    core_bytes = {}
    times = {}
    for alg, kw in (("hierarchical", {"group_size": 4}), ("rsag", {})):
        topo = fat_tree(16, CONNECTX5_DUAL, hosts_per_leaf=4, oversubscription=4.0)
        engine, world, comm = build_world(16, topology=topo)
        bufs = [SizeBuffer(nbytes // 4, 4) for _ in range(16)]
        schedule = ALLREDUCE_COMPILERS[alg](16, nbytes // 4, 4, **kw)
        ScheduleExecutor(comm, schedule, bufs).run()
        times[alg] = engine.now
        core_bytes[alg] = sum(
            v
            for li, v in world.fabric.stats.link_bytes.items()
            if "spine" in topo.links[li].dst or "spine" in topo.links[li].src
        )
    assert core_bytes["hierarchical"] < core_bytes["rsag"]
    # And it stays time-competitive with the flat ring.
    assert times["hierarchical"] < times["rsag"] * 1.3


def test_validation():
    with pytest.raises(ValueError):
        simulate_allreduce(4, 64, algorithm="hierarchical", group_size=0)


@settings(max_examples=10, deadline=None)
@given(
    n_ranks=st.sampled_from([3, 5, 8, 12]),
    count=st.integers(8, 1500),
    group=st.sampled_from([2, 3, 4]),
)
def test_hierarchical_property(n_ranks, count, group):
    out = simulate_allreduce(
        n_ranks, count * 4, algorithm="hierarchical", payload=True,
        seed=count, group_size=group,
    )
    truth = expected_sum(n_ranks, count, count)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)
