"""Tests for the Torch-threads-style job list."""

import pytest

from repro.dpt import TorchThreads


def test_jobs_run_and_return_values():
    with TorchThreads(2) as pool:
        pool.add_job(lambda: 1)
        pool.add_job(lambda: 2)
        assert pool.synchronize() == [1, 2]
        assert pool.jobs_run == 2


def test_ending_callbacks_serialized_in_order():
    order = []
    with TorchThreads(4) as pool:
        for i in range(8):
            pool.add_job(lambda i=i: i, lambda v: order.append(v))
        pool.synchronize()
    # Callbacks run in submission order regardless of job completion order.
    assert order == list(range(8))


def test_jobs_run_in_submission_order_at_synchronize():
    log = []
    with TorchThreads(3) as pool:
        for i in range(4):
            pool.add_job(
                lambda i=i: log.append(("job", i)) or i,
                lambda v: log.append(("end", v)),
            )
        assert log == []  # nothing runs before synchronize
        assert pool.synchronize() == [0, 1, 2, 3]
    # Every job first, in order; then the serialized ending callbacks.
    assert log == [("job", i) for i in range(4)] + [("end", i) for i in range(4)]
    assert (pool.jobs_run, pool.callbacks_run) == (4, 4)


def test_first_exception_reraised_after_all_jobs_before_callbacks():
    ran, ended = [], []

    def job(i):
        ran.append(i)
        if i == 1:
            raise ZeroDivisionError("first")
        if i == 3:
            raise KeyError("second")
        return i

    with TorchThreads(2) as pool:
        for i in range(5):
            pool.add_job(lambda i=i: job(i), ended.append)
        with pytest.raises(ZeroDivisionError, match="first"):
            pool.synchronize()
        assert ran == [0, 1, 2, 3, 4]  # the jobs after the failure still ran
        assert ended == []  # no ending callback once a job failed
        assert (pool.jobs_run, pool.callbacks_run) == (3, 0)
        # The failed batch is gone; the pool stays usable.
        pool.add_job(lambda: 7, ended.append)
        assert pool.synchronize() == [7]
        assert ended == [7]


def test_exception_propagates_at_synchronize():
    with TorchThreads(1) as pool:
        pool.add_job(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            pool.synchronize()


def test_synchronize_empty_is_noop():
    with TorchThreads(1) as pool:
        assert pool.synchronize() == []


def test_use_after_shutdown_rejected():
    pool = TorchThreads(1)
    pool.shutdown()
    with pytest.raises(RuntimeError):
        pool.add_job(lambda: 1)


def test_validation():
    with pytest.raises(ValueError):
        TorchThreads(0)
