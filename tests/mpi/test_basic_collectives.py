"""Direct tests for bcast / reduce / barrier / alltoallv and the shuffle's
verified ring allgather."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.integrity import ShuffleIntegrityError
from repro.data.shuffle import _verified_ring_exchange
from repro.mpi import (
    ArrayBuffer,
    ScheduleBuilder,
    ScheduleExecutor,
    SendStep,
    build_world,
    run_rank_programs,
)
from repro.mpi.collectives import (
    alltoallv,
    compile_binomial_bcast,
    compile_binomial_reduce,
    compile_dissemination_barrier,
)


def world(n, topology="star"):
    return build_world(n, topology=topology)


def test_bcast_delivers_root_payload():
    eng, w, comm = world(6)
    data = np.arange(8, dtype=float)
    bufs = [
        ArrayBuffer(data.copy() if r == 2 else np.zeros(8)) for r in range(6)
    ]
    ScheduleExecutor(comm, compile_binomial_bcast(6, 8, 8, root=2), bufs).run()
    for b in bufs:
        np.testing.assert_array_equal(b.array, data)


@pytest.mark.parametrize("root", [0, 3, 6])
def test_reduce_sums_to_root(root):
    n = 7
    eng, w, comm = world(n)
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal(16) for _ in range(n)]
    bufs = [ArrayBuffer(a.copy()) for a in arrays]
    ScheduleExecutor(comm, compile_binomial_reduce(n, 16, 8, root=root), bufs).run()
    np.testing.assert_allclose(
        bufs[root].array, np.sum(arrays, axis=0), rtol=1e-12
    )


def test_barrier_synchronizes_staggered_ranks():
    """No rank may pass the barrier before the slowest rank arrives."""
    n = 5
    # Prefix the barrier with staggered arrivals: rank r computes r seconds.
    b = ScheduleBuilder(n, name="staggered barrier")
    arrive = [b.compute(r, r * 1.0) for r in range(n)]
    sid = {}
    for s in compile_dissemination_barrier(n).steps:
        deps = [sid[d] for d in s.deps] or [arrive[s.rank]]
        if isinstance(s, SendStep):
            sid[s.sid] = b.send(s.rank, s.dst, s.key, buf=None, deps=deps)
        else:
            sid[s.sid] = b.recv(s.rank, s.src, s.key, deps=deps)
    eng, w, comm = world(n)
    sched = b.build(validate=True)
    executor = ScheduleExecutor(comm, sched, [None] * n)
    executor.run()
    slowest_arrival = 4.0
    end = executor.progress.end
    for r in range(n):
        assert max(end[s.sid] for s in sched.rank_steps(r)) >= slowest_arrival


def test_verified_ring_exchange_gathers_variable_blocks_in_owner_order():
    n = 4
    eng, w, comm = world(n)
    blocks = [list(range(10 * r, 10 * r + r + 1)) for r in range(n)]
    out = run_rank_programs(
        comm, _verified_ring_exchange, per_rank_args=[(b,) for b in blocks]
    )
    for gathered in out.results:
        assert [g.tolist() for g in gathered] == blocks


class _CorruptOneHop:
    """Fault controller flipping one bit of the message on one hop."""

    def __init__(self, src, dst, hop):
        self.target = (src, dst, hop)

    def on_send(self, src, dst, tag, nbytes):
        hit = (src, dst, tag[2]) == self.target
        return ("corrupt" if hit else "deliver"), 0.0

    def corrupt_payload(self, data):
        flipped = data.copy()
        flipped[0] ^= 1
        return flipped


def test_verified_ring_exchange_names_the_corrupting_sender():
    # Hop 0 carries rank 1's own block; hop 2 one it forwards for rank 3.
    n = 4
    for hop in (0, 2):
        eng, w, comm = world(n)
        w.fault_controller = _CorruptOneHop(1, 2, hop)
        with pytest.raises(ShuffleIntegrityError) as info:
            run_rank_programs(
                comm, _verified_ring_exchange, per_rank_args=[([r, 7 * r],) for r in range(n)]
            )
        assert (info.value.suspect, info.value.detected_by) == (1, 2)
        assert f"(hop {hop})" in str(info.value)


def test_alltoallv_exchanges_blocks():
    n = 4
    eng, w, comm = world(n)
    send = [
        [ArrayBuffer(np.array([float(10 * src + dst)])) for dst in range(n)]
        for src in range(n)
    ]
    out = run_rank_programs(
        comm, alltoallv, per_rank_args=[(send[r],) for r in range(n)]
    )
    for dst, received in enumerate(out.results):
        for src in range(n):
            np.testing.assert_array_equal(
                received[src], np.array([float(10 * src + dst)])
            )


def test_alltoallv_wrong_buffer_count_rejected():
    eng, w, comm = world(3)
    bad = [[ArrayBuffer(np.zeros(1))] * 2] * 3  # 2 buffers for 3 ranks

    with pytest.raises(ValueError, match="expected 3"):
        run_rank_programs(comm, alltoallv, per_rank_args=[(b,) for b in bad])


@settings(max_examples=10, deadline=None)
@given(
    n=st.sampled_from([2, 3, 5]),
    sizes_seed=st.integers(0, 100),
)
def test_alltoallv_property_variable_sizes(n, sizes_seed):
    """Random per-pair block sizes: every block arrives intact."""
    rng = np.random.default_rng(sizes_seed)
    eng, w, comm = build_world(n, topology="star")
    send_data = [
        [rng.standard_normal(int(rng.integers(0, 6))) for _dst in range(n)]
        for _src in range(n)
    ]
    send = [[ArrayBuffer(a.copy()) for a in row] for row in send_data]
    out = run_rank_programs(
        comm, alltoallv, per_rank_args=[(send[r],) for r in range(n)]
    )
    for dst, received in enumerate(out.results):
        for src in range(n):
            got = received[src]
            expected = send_data[src][dst]
            if len(expected) == 0:
                assert got is None or len(got) == 0
            else:
                np.testing.assert_array_equal(got, expected)
    w.assert_quiescent()
