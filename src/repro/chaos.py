"""The chaos harness core: one point → run → check → report loop.

Every fault defense is proved the same way: enumerate a plane's fault
points, run each with its fault injected, check the plane's invariants,
report.  This module owns what that loop shares — the outcome and report
types, the evenly spaced point subsampler, kind selection and the sweep
loop with its fault-free-reference cache.  A plane (:mod:`repro.mpi.chaos`,
:mod:`repro.fleet.chaos`, :mod:`repro.train.sdc_chaos`; DESIGN.md §4m)
supplies a point generator, a run function and its invariants.  The core
imports no plane, so a plane pays only for itself.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, TypeVar

__all__ = [
    "ChaosOutcome",
    "ChaosPoint",
    "ChaosReport",
    "References",
    "check_max_points",
    "select_kinds",
    "subsample",
    "sweep",
]

T = TypeVar("T")
P = TypeVar("P", bound="ChaosPoint")


class ChaosPoint(Protocol):
    """One injectable fault of a plane."""

    @property
    def group(self) -> str:
        """Report row this point is counted in."""
        ...

    def label(self) -> str:
        """Human-readable identity of the point (unique within a sweep)."""
        ...


@dataclass
class ChaosOutcome:
    """What happened when one point ran: the invariants it broke.

    ``makespan`` is the simulated seconds the faulted run took and
    ``ref_makespan`` those of its fault-free reference; ``fired`` says
    whether the injected fault actually landed; ``result`` is the plane's
    own record of the run (guard telemetry, a fleet report, ...).
    """

    point: Any
    violations: list[str] = field(default_factory=list)
    fired: bool = True
    makespan: float = 0.0
    ref_makespan: float = 0.0
    result: Any = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """The outcomes of one sweep plus its sweep-level violations.

    An empty sweep proves nothing, so it is never :attr:`all_ok`.
    """

    title: str
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def all_ok(self) -> bool:
        return bool(self.outcomes) and not self.failures and not self.violations

    def groups(self) -> dict[str, list[ChaosOutcome]]:
        """Outcomes by their point's report row, in sweep order."""
        rows: dict[str, list[ChaosOutcome]] = {}
        for o in self.outcomes:
            rows.setdefault(o.point.group, []).append(o)
        return rows

    def format(self) -> str:
        failed = len(self.failures)
        lines = [
            f"{self.title} chaos: {len(self.outcomes)} points, "
            f"{len(self.outcomes) - failed} ok, {failed} failed"
        ]
        if not self.outcomes:
            lines.append("  FAIL: no points ran, so nothing was proved")
        else:
            lines.append(
                f"  {'group':<52} {'points':>6} {'fired':>6} {'failed':>6} "
                f"{'makespan':>10} {'ref':>10}"
            )
        for group, outcomes in self.groups().items():
            lines.append(
                f"  {group:<52} {len(outcomes):>6} "
                f"{sum(o.fired for o in outcomes):>6} "
                f"{sum(not o.ok for o in outcomes):>6} "
                f"{max(o.makespan for o in outcomes):>9.4g}s "
                f"{max(o.ref_makespan for o in outcomes):>9.4g}s"
            )
        for o in self.failures:
            for v in o.violations:
                lines.append(f"  FAIL {o.point.label()}: {v}")
        for v in self.violations:
            lines.append(f"  FAIL sweep: {v}")
        return "\n".join(lines)


class References:
    """Fault-free reference results, each built at most once per sweep.

    A plane keys each result by the exact inputs of the run that builds
    it, so two points (or a point and a check) that need the same run
    share one build and two runs that differ in any input never share.
    Store results only (a report, final params), never a live scheduler,
    engine or trainer: the cache lives as long as the sweep.
    """

    def __init__(self) -> None:
        self._built: dict[Hashable, Any] = {}

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        if key not in self._built:
            self._built[key] = build()
        result: T = self._built[key]
        return result


def check_max_points(limit: int | None) -> None:
    """A point cap below 1 is a usage error: a sweep capped to nothing
    would prove nothing."""
    if limit is not None and limit < 1:
        raise ValueError(f"max points must be >= 1, got {limit}")


def subsample(seq: Sequence[T], limit: int | None) -> list[T]:
    """Evenly spaced deterministic subset of at most ``limit`` items
    (both ends always kept; see :func:`check_max_points`)."""
    check_max_points(limit)
    if limit is None or len(seq) <= limit:
        return list(seq)
    step = (len(seq) - 1) / max(limit - 1, 1)
    return [seq[round(i * step)] for i in range(limit)]


def select_kinds(
    title: str, kinds: Iterable[str] | None, known: Sequence[str]
) -> tuple[str, ...]:
    """Validate a kind filter (``None`` selects every kind of the plane)."""
    if kinds is None:
        return tuple(known)
    chosen = tuple(kinds)
    unknown = [k for k in chosen if k not in known]
    if unknown:
        raise ValueError(
            f"unknown chaos kind(s) {unknown} for the {title} plane; "
            f"choose from {tuple(known)}"
        )
    return chosen


def sweep(
    title: str,
    points: Callable[[References], Iterable[P]],
    run: Callable[[P, References], ChaosOutcome],
    invariants: Callable[[References], list[str]] | None = None,
) -> ChaosReport:
    """Run every point of a plane against one shared reference cache,
    then check the plane's sweep-level ``invariants`` (if any).

    ``points`` may be a generator: it is consumed lazily, so a plane can
    build the reference a group of points is enumerated from right before
    those points run.
    """
    refs = References()
    outcomes = [run(point, refs) for point in points(refs)]
    return ChaosReport(title, outcomes, invariants(refs) if invariants else [])
