"""Correctness tests: every allreduce algorithm vs NumPy ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ALLREDUCE_COMPILERS, simulate_allreduce

ALGOS = sorted(ALLREDUCE_COMPILERS)


def expected_sum(n_ranks, count, dtype="float32", seed=0):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(count).astype(dtype) for _ in range(n_ranks)]
    return np.sum(inputs, axis=0)


@pytest.mark.parametrize("algorithm", ALGOS)
@pytest.mark.parametrize("n_ranks", [2, 4, 8])
def test_allreduce_matches_numpy(algorithm, n_ranks):
    count = 1000
    nbytes = count * 4
    out = simulate_allreduce(
        n_ranks, nbytes, algorithm=algorithm, payload=True, seed=3
    )
    truth = expected_sum(n_ranks, count, seed=3)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_allreduce_non_power_of_two(algorithm):
    # 6 ranks exercises the fold prelude of recursive algorithms and the
    # remainder handling of chunked ones.  Multicolor needs divisibility, so
    # use 2 colors for it.
    kwargs = {"n_colors": 2} if algorithm == "multicolor" else {}
    count = 300
    out = simulate_allreduce(
        6, count * 4, algorithm=algorithm, payload=True, seed=11, **kwargs
    )
    truth = expected_sum(6, count, seed=11)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_allreduce_single_rank_identity(algorithm):
    out = simulate_allreduce(1, 64, algorithm=algorithm, payload=True, seed=5)
    truth = expected_sum(1, 16, seed=5)
    np.testing.assert_allclose(out.results[0].array, truth)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_allreduce_tiny_payload(algorithm):
    """One element: exercises empty chunks in chunked algorithms."""
    out = simulate_allreduce(4, 4, algorithm=algorithm, payload=True, seed=7)
    truth = expected_sum(4, 1, seed=7)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_multicolor_color_count_sweep():
    for n_colors in (1, 2, 4, 8):
        out = simulate_allreduce(
            8, 4096, algorithm="multicolor", payload=True, n_colors=n_colors, seed=2
        )
        truth = expected_sum(8, 1024, seed=2)
        for buf in out.results:
            np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_multicolor_small_segments_pipelined():
    out = simulate_allreduce(
        4, 4096, algorithm="multicolor", payload=True, segment_bytes=256, seed=9
    )
    truth = expected_sum(4, 1024, seed=9)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_ring_small_segments_pipelined():
    out = simulate_allreduce(
        5, 4096, algorithm="ring", payload=True, segment_bytes=128, seed=13
    )
    truth = expected_sum(5, 1024, seed=13)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown allreduce"):
        simulate_allreduce(4, 64, algorithm="nope")


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        simulate_allreduce(4, 64, topology="donut")


@settings(max_examples=20, deadline=None)
@given(
    n_ranks=st.sampled_from([2, 3, 4, 5, 8]),
    count=st.integers(1, 2000),
    algorithm=st.sampled_from(["ring", "rsag", "recursive_doubling", "rabenseifner"]),
)
def test_allreduce_property_random_shapes(n_ranks, count, algorithm):
    out = simulate_allreduce(
        n_ranks, count * 4, algorithm=algorithm, payload=True, seed=count
    )
    truth = expected_sum(n_ranks, count, seed=count)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


@settings(max_examples=10, deadline=None)
@given(
    mult=st.sampled_from([1, 2, 4]),
    count=st.integers(16, 4000),
)
def test_multicolor_property(mult, count):
    n_ranks = 4 * mult
    out = simulate_allreduce(
        n_ranks,
        count * 4,
        algorithm="multicolor",
        payload=True,
        n_colors=4,
        seed=count,
    )
    truth = expected_sum(n_ranks, count, seed=count)
    for buf in out.results:
        np.testing.assert_allclose(buf.array, truth, rtol=1e-4, atol=1e-5)


def test_size_only_and_payload_timings_match():
    """SizeBuffer runs must produce the same simulated clock as real data."""
    for algorithm in ("multicolor", "ring", "rsag"):
        t_size = simulate_allreduce(4, 64 * 1024, algorithm=algorithm).elapsed
        t_data = simulate_allreduce(
            4, 64 * 1024, algorithm=algorithm, payload=True
        ).elapsed
        assert t_size == pytest.approx(t_data, rel=1e-12)


def test_elapsed_positive_and_bytes_counted():
    out = simulate_allreduce(4, 1024 * 1024, algorithm="ring")
    assert out.elapsed > 0
    assert out.bytes_on_wire > 0
    assert out.throughput(1024 * 1024) > 0
