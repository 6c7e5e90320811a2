"""Guard-plane chaos: every fault point of the allreduce and the shuffle.

The schedule IR makes a collective's fault space *finite*: every rank's
execution is a sequence of step completions and every message is a
discrete send.  Two *guard planes* run under the shared
watchdog/retry/repair guard (:mod:`repro.mpi.guard`): the gradient
allreduce (:func:`repro.mpi.schedule.run_guarded`; crash, drop, delay)
and the transactional DIMD shuffle (:func:`repro.data.guard.
run_shuffle_guarded`; also corrupt).  An instrumented fault-free
*reference run* gives each rank's crash boundaries (step or receive
completions) and send instants; :func:`enumerate_points` turns them into
points and :func:`run_point` injects one under the guard.  Every point is
held to the shared guard-telemetry check (:func:`guard_violations`) plus
its plane's result check (:func:`allreduce_violations`,
:func:`shuffle_violations`).  The loop is :func:`repro.chaos.sweep`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.chaos import ChaosOutcome, ChaosReport, References, select_kinds, subsample, sweep
from repro.data.dimd import DIMDStore, deal_records
from repro.data.guard import run_shuffle_guarded
from repro.data.shuffle import ShuffleProgress, distributed_shuffle
from repro.mpi.collectives import ALLREDUCE_COMPILERS, ALLREDUCE_FAMILIES
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.guard import CollectiveTelemetry, CollectiveTimeout, RetryPolicy
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleExecutor, SendStep, run_guarded
from repro.train.injection import FaultInjector, FaultPlan, FaultSpec

__all__ = [
    "AllreducePlane",
    "ChaosPoint",
    "DEFAULT_KINDS",
    "ReferenceRun",
    "SHUFFLE",
    "SHUFFLE_KINDS",
    "ShufflePlane",
    "allreduce_violations",
    "chaos_input",
    "chaos_sweep",
    "enumerate_points",
    "guard_violations",
    "run_point",
    "shuffle_chaos_stores",
    "shuffle_chaos_sweep",
    "shuffle_violations",
    "smoke_algorithms",
    "survivors",
]

DEFAULT_COUNT = 24          # elements per rank buffer (ragged across ranks)
ITEMSIZE = 8                # int64 payloads -> exact integer sums
DEFAULT_KINDS = ("crash", "drop", "delay")
SHUFFLE_KINDS = ("crash", "drop", "delay", "corrupt")
#: Watchdog timeout as a multiple of the fault-free reference elapsed time.
DEFAULT_TIMEOUT_FACTOR = 64.0
MAX_RETRIES = 3
SHUFFLE_PER_RANK = 6        # records per rank
#: The one shuffle round every run of the plane performs (forced multi-pass).
SHUFFLE_ROUND = dict(seed=7, round_id=0, max_chunk_bytes=128)


def chaos_input(rank: int, count: int) -> np.ndarray:
    """Deterministic int64 input for ``rank`` (distinct across ranks)."""
    rng = np.random.default_rng(0xC4A05 + rank)
    return rng.integers(-(2**31), 2**31, size=count).astype(np.int64)


def smoke_algorithms() -> list[str]:
    """One representative algorithm per structural family (CI smoke slice)."""
    return [members[0] for members in ALLREDUCE_FAMILIES.values()]


def shuffle_chaos_stores(n_ranks: int) -> list[DIMDStore]:
    """Deterministic opaque-blob stores, distinct across ranks and records."""
    stores = []
    for rank in range(n_ranks):
        rng = np.random.default_rng(0x5F0C4A05 + rank)
        records = [
            bytes(rng.integers(0, 256, size=int(rng.integers(40, 56)), dtype=np.uint8))
            for _ in range(SHUFFLE_PER_RANK)
        ]
        labels = np.arange(
            rank * SHUFFLE_PER_RANK, (rank + 1) * SHUFFLE_PER_RANK, dtype=np.int64
        )
        stores.append(DIMDStore(records, labels, learner=rank))
    return stores


@dataclass(frozen=True)
class ReferenceRun:
    """Instrumented fault-free run: where the fault points live in time."""

    algorithm: str
    elapsed: float
    #: rank -> sorted crash boundaries (step/receive completions), 0.0 first.
    boundaries: dict[int, tuple[float, ...]]
    #: rank -> sorted distinct times this rank posted a send.
    send_times: dict[int, tuple[float, ...]]


def _reference_run(
    name: str,
    n_ranks: int,
    elapsed: float,
    marks: Iterable[tuple[int, float]],
    posts: Iterable[tuple[int, float]],
) -> ReferenceRun:
    """A fault-free run's points from its ``(rank, time)`` pairs: ``marks``
    are step or receive completions, ``posts`` are send posts."""
    boundaries: dict[int, set[float]] = {r: {0.0} for r in range(n_ranks)}
    sends: dict[int, set[float]] = {r: set() for r in range(n_ranks)}
    for rank, t in marks:
        boundaries[rank].add(t)
    for rank, t in posts:
        sends[rank].add(t)
    return ReferenceRun(
        algorithm=name,
        elapsed=elapsed,
        boundaries={r: tuple(sorted(boundaries[r])) for r in range(n_ranks)},
        send_times={r: tuple(sorted(sends[r])) for r in range(n_ranks)},
    )


# -- the two guard planes -------------------------------------------------------


@dataclass(frozen=True)
class AllreducePlane:
    """The gradient allreduce, compiled by algorithm ``name``, on int64
    inputs of ``count`` elements per rank."""

    name: str
    count: int = DEFAULT_COUNT
    kinds = DEFAULT_KINDS

    def __post_init__(self) -> None:
        if self.name not in ALLREDUCE_COMPILERS:
            raise ValueError(
                f"unknown algorithm {self.name!r}; "
                f"choose from {sorted(ALLREDUCE_COMPILERS)}"
            )

    def _inputs(self, n_ranks: int) -> list[np.ndarray]:
        return [chaos_input(r, self.count) for r in range(n_ranks)]

    def reference(self, n_ranks: int) -> ReferenceRun:
        _engine, _world, comm = build_world(n_ranks)
        schedule = ALLREDUCE_COMPILERS[self.name](n_ranks, self.count, ITEMSIZE)
        buffers = [ArrayBuffer(a) for a in self._inputs(n_ranks)]
        executor = ScheduleExecutor(comm, schedule, buffers)
        elapsed = executor.run()
        end = executor.progress.end
        return _reference_run(
            self.name, n_ranks, elapsed,
            ((s.rank, end[s.sid]) for s in schedule.steps),
            ((s.rank, end[s.sid]) for s in schedule.steps if isinstance(s, SendStep)),
        )

    def run(self, n_ranks: int, **guard) -> list[ArrayBuffer]:
        buffers, _ = run_guarded(
            ALLREDUCE_COMPILERS[self.name],
            lambda: [ArrayBuffer(a) for a in self._inputs(n_ranks)],
            **guard,
        )
        return buffers

    def check(
        self, n_ranks: int, repaired: Sequence[int], buffers: list[ArrayBuffer],
        refs: References,
    ) -> list[str]:
        inputs = self._inputs(n_ranks)
        return allreduce_violations(
            [inputs[r] for r in survivors(n_ranks, repaired)], buffers
        )


@dataclass(frozen=True)
class ShufflePlane:
    """One multi-pass DIMD shuffle round over opaque-blob stores."""

    kinds = SHUFFLE_KINDS
    name = "shuffle"

    def reference(self, n_ranks: int) -> ReferenceRun:
        stores = shuffle_chaos_stores(n_ranks)
        engine, _world, comm = build_world(n_ranks)
        progress = ShuffleProgress(n_ranks)
        procs = [
            engine.process(
                distributed_shuffle(
                    comm, r, stores[r], progress=progress, **SHUFFLE_ROUND
                ),
                name=f"shuffle{r}",
            )
            for r in range(n_ranks)
        ]
        engine.run(engine.all_of(procs))
        return _reference_run(
            self.name, n_ranks, engine.now,
            (
                (rank, t)
                for rank, times in enumerate(progress.recv_times)
                for t in times
            ),
            progress.sends.values(),
        )

    def run(self, n_ranks: int, **guard) -> list[DIMDStore]:
        stores = shuffle_chaos_stores(n_ranks)
        run_shuffle_guarded(stores, **SHUFFLE_ROUND, **guard)
        return stores

    def check(
        self, n_ranks: int, repaired: Sequence[int], stores: list[DIMDStore],
        refs: References,
    ) -> list[str]:
        victims = tuple(repaired)
        before = refs.get(
            ("shuffle-records", n_ranks),
            lambda: _multiset(shuffle_chaos_stores(n_ranks)),
        )
        expected = refs.get(
            ("shuffle-end", n_ranks, victims),
            lambda: self._end_state(n_ranks, victims),
        )
        return shuffle_violations(
            stores, survivors(n_ranks, victims), before, expected
        )

    def _end_state(self, n_ranks: int, victims: tuple[int, ...]) -> list[DIMDStore]:
        """Fault-free survivor-group end state: pop the victims in repair
        order, dealing each one's records, then run the same round."""
        live = shuffle_chaos_stores(n_ranks)
        for victim in victims:
            deal_records(live.pop(victim), live)
        run_shuffle_guarded(live, retry=RetryPolicy(), **SHUFFLE_ROUND)
        return live


#: The shuffle guard plane (it has no parameters).
SHUFFLE = ShufflePlane()

GuardPlane = AllreducePlane | ShufflePlane


@dataclass(frozen=True)
class ChaosPoint:
    """One injectable fault: (plane, group size, kind, victim, time)."""

    plane: GuardPlane
    n_ranks: int
    kind: str       # "crash" | "drop" | "delay" | "corrupt"
    rank: int       # victim (crash) / sender (message faults)
    at: float       # simulated seconds into the collective
    note: str = ""

    @property
    def group(self) -> str:
        return f"{self.plane.name}@{self.n_ranks}"

    def label(self) -> str:
        return (
            f"{self.group}: {self.kind} rank {self.rank} at t={self.at:.3g}s"
            + (f" ({self.note})" if self.note else "")
        )


# -- the shared invariants -------------------------------------------------------


def survivors(n_ranks: int, repaired: Sequence[int]) -> tuple[int, ...]:
    """Original ranks still alive after popping ``repaired`` in order."""
    live = list(range(n_ranks))
    for victim in repaired:
        live.pop(victim)
    return tuple(live)


def guard_violations(
    point: ChaosPoint, fired: bool, retry: RetryPolicy,
    telemetry: CollectiveTelemetry,
) -> list[str]:
    """The guard's invariants, common to both planes.

    1. **No deadlock** — simulated time stays within the watchdog budget
       ``(retries + repairs + 1) * timeout + backoff``.
    2. **Telemetry consistency** — one diagnosis per retry, geometric
       backoff, a crash gets exactly one surgical repair and charges no
       retry, and a transient fault gets no repair and a diagnosis naming
       the injected victim (the corrupting sender, for ``corrupt``).
    """
    violations = []
    # Every attempt is cut off by the watchdog or an interrupt, so each
    # attempt and each repair costs at most one timeout.
    bound = (telemetry.retries + telemetry.repairs + 1) * retry.timeout
    bound += telemetry.backoff + 1e-9
    if telemetry.sim_time > bound:
        violations.append(
            f"sim time {telemetry.sim_time:g}s exceeds watchdog bound {bound:g}s"
        )
    if telemetry.retries != len(telemetry.diagnoses):
        violations.append(
            f"{telemetry.retries} retries but {len(telemetry.diagnoses)} diagnoses"
        )
    want_backoff = retry.backoff * (2 ** telemetry.retries - 1)
    if abs(telemetry.backoff - want_backoff) > 1e-9 * max(1.0, want_backoff):
        violations.append(
            f"backoff {telemetry.backoff:g}s is not the geometric sum "
            f"{want_backoff:g}s of {telemetry.retries} retries"
        )
    if point.kind == "crash":
        if fired and telemetry.retries != 0:
            violations.append(
                "surgical repair consumed the retry budget "
                f"({telemetry.retries} retries for a diagnosed crash)"
            )
        if fired and telemetry.repairs != 1:
            violations.append(f"{telemetry.repairs} repairs for one crash")
        return violations
    if telemetry.repairs != 0:
        violations.append(f"{telemetry.repairs} repairs for a {point.kind} fault")
    suspects = [d.suspect_rank for d in telemetry.diagnoses]
    if fired and (not suspects or any(s != point.rank for s in suspects)):
        violations.append(
            f"diagnosis did not name the injected victim (suspects: "
            f"{suspects}, victim: rank {point.rank})"
        )
    return violations


def allreduce_violations(
    inputs: list[np.ndarray], buffers: list[ArrayBuffer]
) -> list[str]:
    """Every survivor holds the exact integer sum of the survivors'
    ``inputs`` — the fault-free result on the survivor group."""
    if len(buffers) != len(inputs):
        return [f"{len(buffers)} result buffers for {len(inputs)} survivors"]
    expected = np.sum(inputs, axis=0, dtype=np.int64)
    return [
        f"survivor {i} result differs from the fault-free survivor-group sum"
        for i, buf in enumerate(buffers)
        if not np.array_equal(buf.array, expected)
    ]


def _multiset(stores: list[DIMDStore]) -> list[tuple[bytes, int]]:
    return sorted(pair for s in stores for pair in s.content_multiset())


def shuffle_violations(
    stores: list[DIMDStore],
    alive: Sequence[int],
    before: list[tuple[bytes, int]],
    expected: list[DIMDStore],
) -> list[str]:
    """Records conserved across the ``alive`` stores, survivor partitions
    equal to the fault-free survivor-group shuffle ``expected``, and no
    transaction left open on any store (victims included)."""
    violations = []
    live = [stores[r] for r in alive]
    if _multiset(live) != before:
        violations.append(
            "record multiset changed across the shuffle "
            f"({sum(len(s) for s in live)} records across "
            f"{len(live)} survivors vs {len(before)} before)"
        )
    for got, want in zip(live, expected):
        if got.records != want.records or not np.array_equal(got.labels, want.labels):
            violations.append(
                f"survivor {got.learner} partition differs from the "
                "fault-free survivor-group shuffle"
            )
    leaked = [s.learner for s in stores if s.in_transaction]
    if leaked:
        violations.append(f"open shuffle transaction leaked on store(s) {leaked}")
    return violations


# -- enumerate -> run -> check ----------------------------------------------------


def reference(plane: GuardPlane, n_ranks: int, refs: References) -> ReferenceRun:
    """The plane's fault-free reference run, built once per sweep."""
    return refs.get((plane, n_ranks), lambda: plane.reference(n_ranks))


def enumerate_points(
    plane: GuardPlane,
    n_ranks: int,
    *,
    kinds: Sequence[str] | None = None,
    max_points_per_rank: int | None = None,
    refs: References | None = None,
) -> list[ChaosPoint]:
    """Enumerate every injectable fault point of one plane at one size.

    Crash points are each rank's crash boundaries (plus t=0); message
    points are each rank's distinct send-post instants.  With
    ``max_points_per_rank`` each rank's times are evenly subsampled per
    kind — the cap is recorded in the point notes, never silent.
    """
    kinds = select_kinds(plane.name, kinds, plane.kinds)
    ref = reference(plane, n_ranks, refs if refs is not None else References())
    points: list[ChaosPoint] = []
    for rank in range(n_ranks):
        for kind in plane.kinds:
            if kind not in kinds:
                continue
            crash = kind == "crash"
            every = ref.boundaries[rank] if crash else ref.send_times[rank]
            times = subsample(every, max_points_per_rank)
            capped = " (subsampled)" if len(times) < len(every) else ""
            where = "boundary" if crash else "send"
            points.extend(
                ChaosPoint(
                    plane, n_ranks, kind, rank, t,
                    note=f"{where} {i}/{len(times)}{capped}",
                )
                for i, t in enumerate(times)
            )
    return points


def run_point(point: ChaosPoint, refs: References | None = None) -> ChaosOutcome:
    """Inject one fault point under the guard and check the invariants."""
    plane = point.plane
    refs = refs if refs is not None else References()
    ref = reference(plane, point.n_ranks, refs)
    timeout = max(DEFAULT_TIMEOUT_FACTOR * ref.elapsed, 1e-4)
    retry = RetryPolicy(timeout, MAX_RETRIES, backoff=timeout / 4.0)
    spec = FaultSpec(
        point.kind, 0, rank=point.rank, at=point.at,
        seconds=2.0 * timeout if point.kind == "delay" else 0.0,
    )
    injector = FaultInjector(FaultPlan([spec]))
    telemetry = CollectiveTelemetry()
    try:
        result = plane.run(
            point.n_ranks, retry=retry, tag=("chaos", point.kind, point.rank),
            fault_injector=injector, iteration=0, telemetry=telemetry,
        )
    except CollectiveTimeout as exc:
        violations = [f"retry budget exhausted (possible deadlock): {exc}"]
    else:
        violations = guard_violations(
            point, bool(injector.events), retry, telemetry
        ) + plane.check(point.n_ranks, telemetry.repaired_ranks, result, refs)
    return ChaosOutcome(
        point, violations, fired=bool(injector.events),
        makespan=telemetry.sim_time, ref_makespan=ref.elapsed, result=telemetry,
    )


def _guard_sweep(
    title: str,
    planes: list[GuardPlane],
    n_ranks: Sequence[int],
    kinds: Sequence[str] | None,
    max_points_per_rank: int | None,
) -> ChaosReport:
    def points(refs: References) -> Iterator[ChaosPoint]:
        for plane in planes:
            for n in n_ranks:
                yield from enumerate_points(
                    plane, n, kinds=kinds,
                    max_points_per_rank=max_points_per_rank, refs=refs,
                )

    return sweep(title, points, run_point)


def chaos_sweep(
    algorithms: list[str] | None = None,
    n_ranks: Sequence[int] = (4,),
    *,
    kinds: Sequence[str] | None = None,
    count: int = DEFAULT_COUNT,
    max_points_per_rank: int | None = None,
) -> ChaosReport:
    """Sweep every allreduce fault point of every (algorithm, size)."""
    names = sorted(ALLREDUCE_COMPILERS) if algorithms is None else algorithms
    planes: list[GuardPlane] = [AllreducePlane(name, count) for name in names]
    return _guard_sweep("allreduce", planes, n_ranks, kinds, max_points_per_rank)


def shuffle_chaos_sweep(
    n_ranks: Sequence[int] = (4,),
    *,
    kinds: Sequence[str] | None = None,
    max_points_per_rank: int | None = None,
) -> ChaosReport:
    """Sweep every shuffle fault point of every group size."""
    return _guard_sweep("shuffle", [SHUFFLE], n_ranks, kinds, max_points_per_rank)
