"""Buffer abstractions for the simulated MPI.

Collective algorithms are written once against the :class:`Buffer`
interface and run in two modes:

* :class:`ArrayBuffer` — wraps a 1-D NumPy array; reductions actually
  compute, so tests can check ``result == sum over ranks`` exactly.
* :class:`SizeBuffer` — carries only a byte count; arithmetic is skipped.
  Used for large-payload timing studies (e.g. the 93 MB GoogleNetBN
  gradient) where the simulated clock matters but the data does not.

Buffers are sliced by *element* ranges, mirroring how MPI datatypes count
elements rather than bytes; ``nbytes`` is derived from the element count and
item size.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["Buffer", "ArrayBuffer", "SizeBuffer", "chunk_ranges"]


class Buffer:
    """Abstract 1-D buffer with in-place arithmetic used by collectives."""

    count: int
    itemsize: int

    @property
    def nbytes(self) -> int:
        return self.count * self.itemsize

    def view(self, start: int, stop: int) -> "Buffer":
        """A writable window onto elements ``[start, stop)``."""
        raise NotImplementedError

    def add_(self, payload: Any) -> None:
        """In-place add a payload produced by :meth:`extract`."""
        raise NotImplementedError

    def copy_(self, payload: Any) -> None:
        """Overwrite contents with a payload produced by :meth:`extract`."""
        raise NotImplementedError

    def extract(self) -> Any:
        """Snapshot of the buffer's contents suitable for sending."""
        raise NotImplementedError

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= self.count:
            raise ValueError(
                f"slice [{start}, {stop}) out of bounds for buffer of {self.count}"
            )


class ArrayBuffer(Buffer):
    """A buffer backed by a NumPy array (views share memory)."""

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array)
        if arr.ndim != 1:
            raise ValueError(f"ArrayBuffer needs a 1-D array, got shape {arr.shape}")
        self.array = arr
        self.count = int(arr.shape[0])
        self.itemsize = int(arr.dtype.itemsize)

    def view(self, start: int, stop: int) -> "ArrayBuffer":
        self._check_range(start, stop)
        return ArrayBuffer(self.array[start:stop])

    def add_(self, payload: Any) -> None:
        self.array += payload

    def copy_(self, payload: Any) -> None:
        self.array[...] = payload

    def extract(self) -> np.ndarray:
        # Copy: the payload must be immutable in flight (the sender may keep
        # reducing into its own buffer while the message is on the wire).
        return self.array.copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArrayBuffer(count={self.count}, dtype={self.array.dtype})"


class SizeBuffer(Buffer):
    """A data-free buffer: element count and item size only."""

    def __init__(self, count: int, itemsize: int = 4):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if itemsize < 1:
            raise ValueError(f"itemsize must be >= 1, got {itemsize}")
        self.count = int(count)
        self.itemsize = int(itemsize)

    def view(self, start: int, stop: int) -> "SizeBuffer":
        if not 0 <= start <= stop <= self.count:
            self._check_range(start, stop)  # raises
        # A checked range makes a valid count: skip __init__'s checks.
        view = SizeBuffer.__new__(SizeBuffer)
        view.count = int(stop - start)
        view.itemsize = self.itemsize
        return view

    def add_(self, payload: Any) -> None:
        pass

    def copy_(self, payload: Any) -> None:
        pass

    def extract(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"SizeBuffer(count={self.count}, itemsize={self.itemsize})"


def chunk_ranges(count: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``count`` elements into ``n_chunks`` contiguous ranges.

    Earlier chunks get the remainder, matching MPI's block distribution.
    Chunks may be empty when ``n_chunks > count``.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    base, extra = divmod(count, n_chunks)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
