"""A Torch-threads-style job list with serialized ending callbacks.

Semantics mirror the Torch threading framework the paper describes:
"Threads are created only once during the initialization and jobs are
submitted to the threading system by specifying a job function and an
ending callback function.  The job is subsequently executed on the first
free thread.  The ending callback function is executed in the main thread,
when the job finishes - it is fully serialized."

Here the jobs run in submission order, on the caller's thread, when
:meth:`synchronize` is called; then the ending callbacks run serialized, in
order — the serialization bottleneck the optimized DataParallelTable
minimizes.  No simulated time comes from this class: the cost of the
serialized callbacks is :mod:`repro.dpt.timing`'s model, so the functional
tables only need the same sums in the same order.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["TorchThreads"]


class TorchThreads:
    """In-order job list with serialized ending callbacks."""

    def __init__(self, n_threads: int):
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self._pending: list[tuple[Callable[[], Any], Callable[[Any], None] | None]] = []
        self._closed = False
        self.jobs_run = 0
        self.callbacks_run = 0

    def add_job(
        self,
        job: Callable[[], Any],
        ending: Callable[[Any], None] | None = None,
    ) -> None:
        """Queue ``job``; it and ``ending(result)`` run at :meth:`synchronize`."""
        if self._closed:
            raise RuntimeError("pool has been shut down")
        self._pending.append((job, ending))

    def synchronize(self) -> list[Any]:
        """Run every queued job in order, then their ending callbacks.

        Returns the job results in submission order.  If a job raised, the
        first exception is re-raised once every job has run, before any
        ending callback.
        """
        pending, self._pending = self._pending, []
        values: list[Any] = []
        error: BaseException | None = None
        for job, _ending in pending:
            try:
                values.append(job())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                values.append(None)
                error = error or exc
            else:
                self.jobs_run += 1
        if error is not None:
            raise error
        for value, (_job, ending) in zip(values, pending):
            if ending is not None:
                ending(value)
                self.callbacks_run += 1
        return values

    def shutdown(self) -> None:
        self._closed = True

    def __enter__(self) -> "TorchThreads":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
