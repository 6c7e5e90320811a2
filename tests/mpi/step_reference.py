"""The step records as plain frozen dataclasses: the reference for the
slotted records of :mod:`repro.mpi.schedule`.

The IR's step types used to be ``@dataclass(frozen=True)`` classes with an
instance ``__dict__``, built through the dataclass ``__init__``'s
``object.__setattr__`` calls.  They are now slotted records with an
``__init__`` that writes each slot directly.  These are the old
definitions, field for field, under the same class names, so a test can
check that both give the same ``repr``, tuples, fields, equality, hashing,
copies, pickles and frozen errors.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class _Step:
    sid: int
    rank: int
    deps: tuple[int, ...]
    note: str


@dataclass(frozen=True)
class SendStep(_Step):
    dst: int = 0
    key: object = None
    buf: str | None = "data"
    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class RecvReduceStep(_Step):
    src: int = 0
    key: object = None
    buf: str = "data"
    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class CopyStep(_Step):
    src: int = 0
    key: object = None
    buf: str | None = "data"
    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class ReduceLocalStep(_Step):
    buf: str = "data"
    lo: int = 0
    hi: int = 0
    src_buf: str = "data"
    src_lo: int = 0
    src_hi: int = 0


@dataclass(frozen=True)
class ComputeStep(_Step):
    seconds: float = 0.0
    buf: str | None = None
    lo: int = 0
    hi: int = 0
    src_buf: str | None = None


@dataclass(frozen=True)
class OptimStep(_Step):
    seconds: float = 0.0
    buf: str = "data"
    lo: int = 0
    hi: int = 0
    dst_buf: str | None = None


STEP_TYPES = (SendStep, RecvReduceStep, CopyStep, ReduceLocalStep, ComputeStep, OptimStep)
