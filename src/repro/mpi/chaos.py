"""Exhaustive chaos sweep over the schedule-level fault space.

The schedule IR makes a collective's fault space *finite*: every rank's
execution is a sequence of step completions (strand boundaries) and every
message is a discrete send.  This module enumerates every (algorithm x
rank x strand boundary) crash point and every (rank x send) drop/delay
point, runs each through the guarded executor
(:func:`repro.mpi.schedule.run_guarded` with surgical repair enabled),
and checks three invariants:

1. **No deadlock** — total simulated time is bounded by the watchdog
   budget: ``(retries + repairs + 1) * timeout + backoff``.
2. **Survivor bit-exactness** — the surviving group's result equals the
   exact integer sum of the survivors' inputs, i.e. the fault-free
   reference computed on the survivor group (inputs are int64, so the
   comparison is bit-exact, not approximate).
3. **Telemetry consistency** — one diagnosis per retry, geometric
   backoff, zero retries consumed by surgical repairs, and every
   watchdog diagnosis naming the injected victim rank.

Fault points are discovered from an instrumented *reference run*: a
fault-free execution whose per-step completion times give the crash
boundaries and whose send-observer timestamps give the drop/delay points.

The same treatment covers the **data plane**: the transactional DIMD
shuffle (:func:`repro.data.shuffle.distributed_shuffle` under
:func:`repro.data.guard.run_shuffle_guarded`) gets its own sweep —
every (rank x pass x exchange step) crash/drop/delay/**corrupt** point —
with the invariants adapted to data movement:

1. **No deadlock** — same watchdog-budget bound on simulated time.
2. **Record conservation** — the multiset of (record bytes, label) pairs
   across the surviving stores equals the pre-shuffle multiset exactly:
   zero records lost or duplicated, a crashed rank's partition included
   (it is dealt to the survivors during repair).
3. **Repair determinism** — surviving partitions are bit-identical to a
   fault-free shuffle over the same survivor group (same seed/round),
   because retries restart from rolled-back snapshots and the repair
   dealing policy is shared with the elastic shrink.
4. **Telemetry consistency** — same bookkeeping rules, with corruption
   diagnoses naming the corrupting sender.
5. **No open transactions** — every store's shuffle transaction is
   finalized or rolled back, never leaked.

Used by ``repro chaos`` (CLI) and ``tests/mpi/test_chaos.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dimd import DIMDStore, deal_records
from repro.data.guard import run_shuffle_guarded
from repro.data.shuffle import ShuffleProgress, distributed_shuffle
from repro.mpi.collectives import ALLREDUCE_COMPILERS, ALLREDUCE_FAMILIES
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.guard import CollectiveTelemetry, CollectiveTimeout, RetryPolicy
from repro.mpi.runner import build_world
from repro.mpi.schedule import ExecutionProgress, ScheduleExecutor, run_guarded
from repro.train.injection import FaultInjector, FaultPlan, FaultSpec

__all__ = [
    "ChaosOutcome",
    "ChaosPoint",
    "ChaosReport",
    "ReferenceRun",
    "chaos_input",
    "chaos_sweep",
    "enumerate_points",
    "enumerate_shuffle_points",
    "reference_run",
    "run_point",
    "run_shuffle_point",
    "shuffle_chaos_stores",
    "shuffle_chaos_sweep",
    "shuffle_reference_run",
    "smoke_algorithms",
]

DEFAULT_COUNT = 24          # elements per rank buffer (ragged across ranks)
DEFAULT_ITEMSIZE = 8        # int64 payloads -> exact integer sums
DEFAULT_KINDS = ("crash", "drop", "delay")
SHUFFLE_KINDS = ("crash", "drop", "delay", "corrupt")
#: Watchdog timeout as a multiple of the fault-free reference elapsed time.
DEFAULT_TIMEOUT_FACTOR = 64.0
#: Shuffle sweep sizing: records per rank and the forced multi-pass chunk.
SHUFFLE_PER_RANK = 6
SHUFFLE_CHUNK_BYTES = 128


def chaos_input(rank: int, count: int) -> np.ndarray:
    """Deterministic int64 input for ``rank`` (distinct across ranks)."""
    rng = np.random.default_rng(0xC4A05 + rank)
    return rng.integers(-(2**31), 2**31, size=count).astype(np.int64)


def smoke_algorithms() -> list[str]:
    """One representative algorithm per structural family (CI smoke slice)."""
    return [members[0] for members in ALLREDUCE_FAMILIES.values()]


@dataclass(frozen=True)
class ChaosPoint:
    """One injectable fault: (algorithm, group size, kind, victim, time)."""

    algorithm: str
    n_ranks: int
    kind: str       # "crash" | "drop" | "delay"
    rank: int       # victim (crash) / sender (drop, delay)
    at: float       # simulated seconds into the collective
    note: str = ""

    def __str__(self) -> str:
        return (
            f"{self.algorithm}@{self.n_ranks}: {self.kind} rank {self.rank} "
            f"at t={self.at:.3g}s" + (f" ({self.note})" if self.note else "")
        )


@dataclass
class ChaosOutcome:
    """What happened when one :class:`ChaosPoint` ran under the guard."""

    point: ChaosPoint
    ok: bool
    fired: bool
    survivors: tuple[int, ...]
    retries: int
    repairs: int
    sim_time: float
    diagnosis_named_victim: bool | None  # None when no diagnosis was produced
    detail: str = ""


@dataclass
class ChaosReport:
    """Aggregated outcomes of one sweep."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def summary_rows(self) -> list[dict]:
        """Per (algorithm, n_ranks) aggregate counts, in sweep order."""
        rows: dict[tuple[str, int], dict] = {}
        for o in self.outcomes:
            key = (o.point.algorithm, o.point.n_ranks)
            row = rows.setdefault(
                key,
                {
                    "algorithm": key[0], "n_ranks": key[1], "points": 0,
                    "fired": 0, "failed": 0, "retries": 0, "repairs": 0,
                },
            )
            row["points"] += 1
            row["fired"] += int(o.fired)
            row["failed"] += int(not o.ok)
            row["retries"] += o.retries
            row["repairs"] += o.repairs
        return list(rows.values())

    def format(self) -> str:
        lines = [
            f"{'algorithm':<20} {'ranks':>5} {'points':>7} {'fired':>6} "
            f"{'repairs':>8} {'retries':>8} {'failed':>7}"
        ]
        for row in self.summary_rows():
            lines.append(
                f"{row['algorithm']:<20} {row['n_ranks']:>5} "
                f"{row['points']:>7} {row['fired']:>6} {row['repairs']:>8} "
                f"{row['retries']:>8} {row['failed']:>7}"
            )
        lines.append(
            f"total: {self.n_points} points, {len(self.failures)} failed"
        )
        for o in self.failures[:20]:
            lines.append(f"FAIL {o.point}: {o.detail}")
        if len(self.failures) > 20:
            lines.append(f"... and {len(self.failures) - 20} more failures")
        return "\n".join(lines)


@dataclass(frozen=True)
class ReferenceRun:
    """Instrumented fault-free run: where the fault points live in time."""

    algorithm: str
    n_ranks: int
    elapsed: float
    #: rank -> sorted step-completion times (strand boundaries), 0.0 first.
    boundaries: dict[int, tuple[float, ...]]
    #: rank -> sorted distinct times this rank posted a send.
    send_times: dict[int, tuple[float, ...]]


class _RecordingProgress(ExecutionProgress):
    """Progress tracker that additionally keeps per-step finish times."""

    def __init__(self, schedule):
        super().__init__(schedule)
        self.finish_times: dict[int, list[float]] = {}

    def finish(self, step, now):
        super().finish(step, now)
        self.finish_times.setdefault(step.rank, []).append(now)


def reference_run(
    algorithm: str,
    n_ranks: int,
    *,
    count: int = DEFAULT_COUNT,
    itemsize: int = DEFAULT_ITEMSIZE,
    topology: str = "star",
    **compile_kwargs,
) -> ReferenceRun:
    """Run the collective fault-free and record every strand boundary
    (step completion) and send-post time per rank."""
    compiler = ALLREDUCE_COMPILERS[algorithm]
    engine, world, comm = build_world(n_ranks, topology=topology)
    buffers = [ArrayBuffer(chaos_input(r, count)) for r in range(n_ranks)]
    schedule = compiler(n_ranks, count, itemsize, **compile_kwargs)
    executor = ScheduleExecutor(comm, schedule, buffers)
    executor.progress = _RecordingProgress(schedule)

    send_times: dict[int, set[float]] = {r: set() for r in range(n_ranks)}

    def observe(src, dst, tag, nbytes):
        if isinstance(tag, tuple) and len(tag) == 3 and tag[0] == "sx":
            send_times[src].add(engine.now)

    world.send_observers.append(observe)
    elapsed = executor.run()
    boundaries = {
        r: tuple(sorted({0.0, *executor.progress.finish_times.get(r, [])}))
        for r in range(n_ranks)
    }
    return ReferenceRun(
        algorithm=algorithm,
        n_ranks=n_ranks,
        elapsed=elapsed,
        boundaries=boundaries,
        send_times={r: tuple(sorted(send_times[r])) for r in range(n_ranks)},
    )


def _subsample(seq: tuple, limit: int | None) -> list:
    """Evenly spaced deterministic subset of at most ``limit`` items."""
    if limit is None or len(seq) <= limit:
        return list(seq)
    idx = np.linspace(0, len(seq) - 1, limit).round().astype(int)
    return [seq[i] for i in sorted(set(idx.tolist()))]


def enumerate_points(
    algorithm: str,
    n_ranks: int,
    *,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    count: int = DEFAULT_COUNT,
    itemsize: int = DEFAULT_ITEMSIZE,
    max_points_per_rank: int | None = None,
    topology: str = "star",
    **compile_kwargs,
) -> tuple[list[ChaosPoint], ReferenceRun]:
    """Enumerate every injectable fault point of one (algorithm, size).

    Crash points are the strand boundaries of each rank (plus t=0); drop
    and delay points are each rank's distinct send-post instants.  With
    ``max_points_per_rank``, boundaries are evenly subsampled per rank —
    the cap is recorded in the point notes, never silent.
    """
    for kind in kinds:
        if kind not in DEFAULT_KINDS:
            raise ValueError(f"unknown chaos kind {kind!r}; use {DEFAULT_KINDS}")
    ref = reference_run(
        algorithm, n_ranks, count=count, itemsize=itemsize,
        topology=topology, **compile_kwargs,
    )
    points: list[ChaosPoint] = []
    for rank in range(n_ranks):
        if "crash" in kinds:
            times = _subsample(ref.boundaries[rank], max_points_per_rank)
            capped = len(times) < len(ref.boundaries[rank])
            for i, t in enumerate(times):
                points.append(ChaosPoint(
                    algorithm, n_ranks, "crash", rank, t,
                    note=f"boundary {i}/{len(times)}"
                    + (" (subsampled)" if capped else ""),
                ))
        for kind in ("drop", "delay"):
            if kind not in kinds:
                continue
            times = _subsample(ref.send_times[rank], max_points_per_rank)
            capped = len(times) < len(ref.send_times[rank])
            for i, t in enumerate(times):
                points.append(ChaosPoint(
                    algorithm, n_ranks, kind, rank, t,
                    note=f"send {i}/{len(times)}"
                    + (" (subsampled)" if capped else ""),
                ))
    return points, ref


def run_point(
    point: ChaosPoint,
    *,
    reference: ReferenceRun,
    count: int = DEFAULT_COUNT,
    itemsize: int = DEFAULT_ITEMSIZE,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    max_retries: int = 3,
    topology: str = "star",
    **compile_kwargs,
) -> ChaosOutcome:
    """Inject one fault point under ``run_guarded`` and check the invariants."""
    n = point.n_ranks
    inputs = [chaos_input(r, count) for r in range(n)]
    timeout = max(timeout_factor * reference.elapsed, 1e-4)
    retry = RetryPolicy(timeout, max_retries, backoff=timeout / 4.0)
    if point.kind == "crash":
        spec = FaultSpec("crash", 0, rank=point.rank, at=point.at)
    elif point.kind == "drop":
        spec = FaultSpec("drop", 0, rank=point.rank, at=point.at, count=1)
    else:
        spec = FaultSpec(
            "delay", 0, rank=point.rank, at=point.at, count=1,
            seconds=2.0 * timeout,
        )
    injector = FaultInjector(FaultPlan([spec]))
    telemetry = CollectiveTelemetry()

    def fail(detail: str, **kw) -> ChaosOutcome:
        return ChaosOutcome(
            point=point, ok=False,
            fired=bool(injector.events),
            survivors=kw.get("survivors", ()),
            retries=telemetry.retries, repairs=telemetry.repairs,
            sim_time=telemetry.sim_time,
            diagnosis_named_victim=kw.get("named"),
            detail=detail,
        )

    try:
        buffers, telemetry = run_guarded(
            ALLREDUCE_COMPILERS[point.algorithm],
            lambda: [ArrayBuffer(a.copy()) for a in inputs],
            retry=retry,
            topology=topology,
            tag=("chaos", point.kind, point.rank),
            fault_injector=injector,
            iteration=0,
            telemetry=telemetry,
            **compile_kwargs,
        )
    except CollectiveTimeout as exc:
        return fail(f"retry budget exhausted (possible deadlock): {exc}")

    fired = bool(injector.events)
    survivors = list(range(n))
    for victim in telemetry.repaired_ranks:
        survivors.pop(victim)
    survivors = tuple(survivors)

    named = None
    if telemetry.diagnoses:
        named = all(
            d.suspect_rank == point.rank for d in telemetry.diagnoses
        )

    # Invariant 1: bounded simulated time (no deadlock).  Every attempt is
    # cut off by the watchdog or an interrupt, so total time cannot exceed
    # one timeout per (attempt + repair) plus the accounted backoff.
    bound = (telemetry.retries + telemetry.repairs + 1) * timeout
    bound += telemetry.backoff + 1e-9
    if telemetry.sim_time > bound:
        return fail(
            f"sim time {telemetry.sim_time:g}s exceeds watchdog bound "
            f"{bound:g}s", survivors=survivors, named=named,
        )

    # Invariant 2: survivor results bit-exact vs the fault-free reference
    # on the survivor group.
    expected = np.sum([inputs[r] for r in survivors], axis=0, dtype=np.int64)
    if len(buffers) != len(survivors):
        return fail(
            f"{len(buffers)} result buffers for {len(survivors)} survivors",
            survivors=survivors, named=named,
        )
    for i, buf in enumerate(buffers):
        if not np.array_equal(buf.array, expected):
            return fail(
                f"survivor {survivors[i]} result differs from the "
                f"fault-free survivor-group sum", survivors=survivors,
                named=named,
            )

    # Invariant 3: telemetry consistency.
    if telemetry.retries != len(telemetry.diagnoses):
        return fail(
            f"{telemetry.retries} retries but {len(telemetry.diagnoses)} "
            "diagnoses", survivors=survivors, named=named,
        )
    want_backoff = retry.backoff * (2 ** telemetry.retries - 1)
    if abs(telemetry.backoff - want_backoff) > 1e-9 * max(1.0, want_backoff):
        return fail(
            f"backoff {telemetry.backoff:g}s is not the geometric sum "
            f"{want_backoff:g}s of {telemetry.retries} retries",
            survivors=survivors, named=named,
        )
    if point.kind == "crash":
        if fired and telemetry.retries != 0:
            return fail(
                "surgical repair consumed the retry budget "
                f"({telemetry.retries} retries for a diagnosed crash)",
                survivors=survivors, named=named,
            )
        if fired and telemetry.repairs != 1:
            return fail(
                f"{telemetry.repairs} repairs for one crash",
                survivors=survivors, named=named,
            )
    else:
        if telemetry.repairs != 0:
            return fail(
                f"{telemetry.repairs} repairs for a {point.kind} fault",
                survivors=survivors, named=named,
            )
        if fired and named is not True:
            return fail(
                "watchdog diagnosis did not name the injected victim "
                f"(suspects: "
                f"{[d.suspect_rank for d in telemetry.diagnoses]}, "
                f"victim: rank {point.rank})",
                survivors=survivors, named=named,
            )

    return ChaosOutcome(
        point=point, ok=True, fired=fired, survivors=survivors,
        retries=telemetry.retries, repairs=telemetry.repairs,
        sim_time=telemetry.sim_time, diagnosis_named_victim=named,
    )


def chaos_sweep(
    algorithms: list[str] | None = None,
    n_ranks: tuple[int, ...] = (4,),
    *,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    count: int = DEFAULT_COUNT,
    itemsize: int = DEFAULT_ITEMSIZE,
    max_points_per_rank: int | None = None,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    topology: str = "star",
    **compile_kwargs,
) -> ChaosReport:
    """Sweep every fault point of every (algorithm, group size) pair."""
    report = ChaosReport()
    for name in algorithms if algorithms is not None else sorted(ALLREDUCE_COMPILERS):
        if name not in ALLREDUCE_COMPILERS:
            raise ValueError(
                f"unknown algorithm {name!r}; "
                f"choose from {sorted(ALLREDUCE_COMPILERS)}"
            )
        for n in n_ranks:
            points, ref = enumerate_points(
                name, n, kinds=kinds, count=count, itemsize=itemsize,
                max_points_per_rank=max_points_per_rank,
                topology=topology, **compile_kwargs,
            )
            for point in points:
                report.outcomes.append(run_point(
                    point, reference=ref, count=count, itemsize=itemsize,
                    timeout_factor=timeout_factor, topology=topology,
                    **compile_kwargs,
                ))
    return report


# -- data-plane (shuffle) chaos -----------------------------------------------

SHUFFLE_SEED = 7


def shuffle_chaos_stores(
    n_ranks: int, *, per_rank: int = SHUFFLE_PER_RANK
) -> list[DIMDStore]:
    """Deterministic opaque-blob stores, distinct across ranks and records."""
    stores = []
    for rank in range(n_ranks):
        rng = np.random.default_rng(0x5F0C4A05 + rank)
        records = [
            bytes(rng.integers(0, 256, size=int(rng.integers(40, 56)), dtype=np.uint8))
            for _ in range(per_rank)
        ]
        labels = np.arange(rank * per_rank, (rank + 1) * per_rank, dtype=np.int64)
        stores.append(DIMDStore(records, labels, learner=rank))
    return stores


def _global_multiset(stores: list[DIMDStore]) -> list[tuple[bytes, int]]:
    combined: list[tuple[bytes, int]] = []
    for s in stores:
        combined.extend(s.content_multiset())
    return sorted(combined)


class _RecordingShuffleProgress(ShuffleProgress):
    """Shuffle progress tracker that additionally keeps advance times."""

    def __init__(self, n_ranks: int):
        super().__init__(n_ranks)
        self.advance_times: dict[int, list[float]] = {}

    def end_recv(self, rank: int, now: float) -> None:
        super().end_recv(rank, now)
        self.advance_times.setdefault(rank, []).append(now)


def shuffle_reference_run(
    n_ranks: int,
    *,
    per_rank: int = SHUFFLE_PER_RANK,
    max_chunk_bytes: int = SHUFFLE_CHUNK_BYTES,
    topology: str = "star",
) -> ReferenceRun:
    """Run the shuffle fault-free and record every receive-completion
    (crash boundary) and send-post time per rank."""
    stores = shuffle_chaos_stores(n_ranks, per_rank=per_rank)
    engine, world, comm = build_world(n_ranks, topology=topology)
    progress = _RecordingShuffleProgress(n_ranks)

    send_times: dict[int, set[float]] = {r: set() for r in range(n_ranks)}

    def observe(src, dst, tag, nbytes):
        send_times[src].add(engine.now)

    world.send_observers.append(observe)
    start = engine.now
    procs = [
        engine.process(
            distributed_shuffle(
                comm, r, stores[r], seed=SHUFFLE_SEED, round_id=0,
                max_chunk_bytes=max_chunk_bytes, progress=progress,
            ),
            name=f"shuffle{r}",
        )
        for r in range(n_ranks)
    ]
    engine.run(engine.all_of(procs))
    for s in stores:
        s.finalize_shuffle(0)
    boundaries = {
        r: tuple(sorted({0.0, *progress.advance_times.get(r, [])}))
        for r in range(n_ranks)
    }
    return ReferenceRun(
        algorithm="shuffle",
        n_ranks=n_ranks,
        elapsed=engine.now - start,
        boundaries=boundaries,
        send_times={r: tuple(sorted(send_times[r])) for r in range(n_ranks)},
    )


def enumerate_shuffle_points(
    n_ranks: int,
    *,
    kinds: tuple[str, ...] = SHUFFLE_KINDS,
    per_rank: int = SHUFFLE_PER_RANK,
    max_chunk_bytes: int = SHUFFLE_CHUNK_BYTES,
    max_points_per_rank: int | None = None,
    topology: str = "star",
) -> tuple[list[ChaosPoint], ReferenceRun]:
    """Enumerate every injectable fault point of one shuffle group size.

    Crash points are each rank's receive-completion instants (plus t=0,
    covering every pass and exchange step of the transactional shuffle);
    drop/delay/corrupt points are each rank's distinct send-post instants.
    """
    for kind in kinds:
        if kind not in SHUFFLE_KINDS:
            raise ValueError(f"unknown chaos kind {kind!r}; use {SHUFFLE_KINDS}")
    ref = shuffle_reference_run(
        n_ranks, per_rank=per_rank, max_chunk_bytes=max_chunk_bytes,
        topology=topology,
    )
    points: list[ChaosPoint] = []
    for rank in range(n_ranks):
        if "crash" in kinds:
            times = _subsample(ref.boundaries[rank], max_points_per_rank)
            capped = len(times) < len(ref.boundaries[rank])
            for i, t in enumerate(times):
                points.append(ChaosPoint(
                    "shuffle", n_ranks, "crash", rank, t,
                    note=f"boundary {i}/{len(times)}"
                    + (" (subsampled)" if capped else ""),
                ))
        for kind in ("drop", "delay", "corrupt"):
            if kind not in kinds:
                continue
            times = _subsample(ref.send_times[rank], max_points_per_rank)
            capped = len(times) < len(ref.send_times[rank])
            for i, t in enumerate(times):
                points.append(ChaosPoint(
                    "shuffle", n_ranks, kind, rank, t,
                    note=f"send {i}/{len(times)}"
                    + (" (subsampled)" if capped else ""),
                ))
    return points, ref


def _shuffle_end_state(
    n_ranks: int,
    victims: tuple[int, ...],
    *,
    per_rank: int,
    max_chunk_bytes: int,
    timeout: float,
    topology: str,
) -> list[DIMDStore]:
    """Fault-free survivor-group end state: pop victims (in repair order,
    dealing each one's records), then run the same shuffle round."""
    live = shuffle_chaos_stores(n_ranks, per_rank=per_rank)
    for victim in victims:
        dead = live.pop(victim)
        deal_records(dead, live)
    run_shuffle_guarded(
        live, retry=RetryPolicy(timeout), seed=SHUFFLE_SEED, round_id=0,
        topology=topology, max_chunk_bytes=max_chunk_bytes,
    )
    return live


def run_shuffle_point(
    point: ChaosPoint,
    *,
    reference: ReferenceRun,
    per_rank: int = SHUFFLE_PER_RANK,
    max_chunk_bytes: int = SHUFFLE_CHUNK_BYTES,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    max_retries: int = 3,
    topology: str = "star",
    _end_state_cache: dict | None = None,
) -> ChaosOutcome:
    """Inject one fault point under ``run_shuffle_guarded`` and check the
    data-plane invariants (see the module docstring)."""
    n = point.n_ranks
    stores = shuffle_chaos_stores(n, per_rank=per_rank)
    before = _global_multiset(stores)
    timeout = max(timeout_factor * reference.elapsed, 1e-4)
    retry = RetryPolicy(timeout, max_retries, backoff=timeout / 4.0)
    if point.kind == "crash":
        spec = FaultSpec("crash", 0, rank=point.rank, at=point.at)
    elif point.kind == "drop":
        spec = FaultSpec("drop", 0, rank=point.rank, at=point.at, count=1)
    elif point.kind == "corrupt":
        spec = FaultSpec("corrupt", 0, rank=point.rank, at=point.at, count=1)
    else:
        spec = FaultSpec(
            "delay", 0, rank=point.rank, at=point.at, count=1,
            seconds=2.0 * timeout,
        )
    injector = FaultInjector(FaultPlan([spec]))
    telemetry = CollectiveTelemetry()

    def fail(detail: str, **kw) -> ChaosOutcome:
        return ChaosOutcome(
            point=point, ok=False,
            fired=bool(injector.events),
            survivors=kw.get("survivors", ()),
            retries=telemetry.retries, repairs=telemetry.repairs,
            sim_time=telemetry.sim_time,
            diagnosis_named_victim=kw.get("named"),
            detail=detail,
        )

    try:
        run_shuffle_guarded(
            stores,
            retry=retry,
            seed=SHUFFLE_SEED,
            round_id=0,
            topology=topology,
            max_chunk_bytes=max_chunk_bytes,
            tag=("chaos", point.kind, point.rank),
            fault_injector=injector,
            iteration=0,
            telemetry=telemetry,
        )
    except CollectiveTimeout as exc:
        return fail(f"retry budget exhausted (possible deadlock): {exc}")

    fired = bool(injector.events)
    survivors = list(range(n))
    for victim in telemetry.repaired_ranks:
        survivors.pop(victim)
    survivors = tuple(survivors)
    live = [stores[r] for r in survivors]

    named = None
    if telemetry.diagnoses:
        named = all(
            d.suspect_rank == point.rank for d in telemetry.diagnoses
        )

    # Invariant 1: bounded simulated time (no deadlock).
    bound = (telemetry.retries + telemetry.repairs + 1) * timeout
    bound += telemetry.backoff + 1e-9
    if telemetry.sim_time > bound:
        return fail(
            f"sim time {telemetry.sim_time:g}s exceeds watchdog bound "
            f"{bound:g}s", survivors=survivors, named=named,
        )

    # Invariant 2: record conservation — zero lost or duplicated records
    # across the surviving stores (a crashed rank's partition was dealt to
    # the survivors, so the global multiset is unchanged).
    if _global_multiset(live) != before:
        return fail(
            "record multiset changed across the shuffle "
            f"({sum(len(s) for s in live)} records across "
            f"{len(live)} survivors vs {len(before)} before)",
            survivors=survivors, named=named,
        )

    # Invariant 3: repair determinism — surviving partitions bit-identical
    # to a fault-free shuffle over the same survivor group.
    cache = _end_state_cache if _end_state_cache is not None else {}
    key = (n, tuple(telemetry.repaired_ranks))
    if key not in cache:
        cache[key] = _shuffle_end_state(
            n, tuple(telemetry.repaired_ranks), per_rank=per_rank,
            max_chunk_bytes=max_chunk_bytes, timeout=timeout,
            topology=topology,
        )
    expected = cache[key]
    for got, want in zip(live, expected):
        if got.records != want.records or not np.array_equal(
            got.labels, want.labels
        ):
            return fail(
                f"survivor {got.learner} partition differs from the "
                "fault-free survivor-group shuffle",
                survivors=survivors, named=named,
            )

    # Invariant 4: telemetry consistency.
    if telemetry.retries != len(telemetry.diagnoses):
        return fail(
            f"{telemetry.retries} retries but {len(telemetry.diagnoses)} "
            "diagnoses", survivors=survivors, named=named,
        )
    want_backoff = retry.backoff * (2 ** telemetry.retries - 1)
    if abs(telemetry.backoff - want_backoff) > 1e-9 * max(1.0, want_backoff):
        return fail(
            f"backoff {telemetry.backoff:g}s is not the geometric sum "
            f"{want_backoff:g}s of {telemetry.retries} retries",
            survivors=survivors, named=named,
        )
    if point.kind == "crash":
        if fired and telemetry.retries != 0:
            return fail(
                "surgical repair consumed the retry budget "
                f"({telemetry.retries} retries for a diagnosed crash)",
                survivors=survivors, named=named,
            )
        if fired and telemetry.repairs != 1:
            return fail(
                f"{telemetry.repairs} repairs for one crash",
                survivors=survivors, named=named,
            )
    else:
        if telemetry.repairs != 0:
            return fail(
                f"{telemetry.repairs} repairs for a {point.kind} fault",
                survivors=survivors, named=named,
            )
        if fired and named is not True:
            return fail(
                "diagnosis did not name the injected victim (suspects: "
                f"{[d.suspect_rank for d in telemetry.diagnoses]}, "
                f"victim: rank {point.rank})",
                survivors=survivors, named=named,
            )

    # Invariant 5: no leaked shuffle transactions on any store (victims
    # included — a rolled-back rank must not keep its snapshot open).
    if any(s.in_transaction for s in stores):
        leaked = [s.learner for s in stores if s.in_transaction]
        return fail(
            f"open shuffle transaction leaked on store(s) {leaked}",
            survivors=survivors, named=named,
        )

    return ChaosOutcome(
        point=point, ok=True, fired=fired, survivors=survivors,
        retries=telemetry.retries, repairs=telemetry.repairs,
        sim_time=telemetry.sim_time, diagnosis_named_victim=named,
    )


def shuffle_chaos_sweep(
    n_ranks: tuple[int, ...] = (4,),
    *,
    kinds: tuple[str, ...] = SHUFFLE_KINDS,
    per_rank: int = SHUFFLE_PER_RANK,
    max_chunk_bytes: int = SHUFFLE_CHUNK_BYTES,
    max_points_per_rank: int | None = None,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    topology: str = "star",
) -> ChaosReport:
    """Sweep every shuffle fault point of every group size."""
    report = ChaosReport()
    for n in n_ranks:
        points, ref = enumerate_shuffle_points(
            n, kinds=kinds, per_rank=per_rank,
            max_chunk_bytes=max_chunk_bytes,
            max_points_per_rank=max_points_per_rank, topology=topology,
        )
        cache: dict = {}
        for point in points:
            report.outcomes.append(run_shuffle_point(
                point, reference=ref, per_rank=per_rank,
                max_chunk_bytes=max_chunk_bytes,
                timeout_factor=timeout_factor, topology=topology,
                _end_state_cache=cache,
            ))
    return report
