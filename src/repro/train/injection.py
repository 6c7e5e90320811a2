"""Live fault injection for the simulated MPI world.

Where :mod:`repro.train.faults` *models* failures analytically (closed-form
straggler and degraded-link penalties), this module *injects* them into the
running discrete-event simulation so that detection and recovery execute
through the real code paths:

* **crash** — a rank process is killed mid-collective via
  :meth:`~repro.sim.engine.Process.interrupt` carrying a
  :class:`RankFailure` (fail-stop, permanent).
* **degrade** — a host's links are rescaled *mid-flight* through
  :meth:`~repro.net.fabric.Fabric.scale_host_links`; in-flight flows
  re-share bandwidth immediately (transient if ``duration`` is set).
* **delay** — messages leaving a rank are held on the wire for extra
  seconds before transfer (a congested or flapping path).
* **drop** — message payloads are lost in transit; the sender completes
  locally and the receiver hangs until a collective timeout fires.
* **corrupt** — a message payload is bit-flipped in transit (same size,
  same timing); the receiver's CRC validation detects it, names the
  sender, and the transactional shuffle rolls back and retries.
* **sdc** — a compute buffer window is bit-flipped *between backward and
  allreduce* (a silent GPU fault): the payload is bit-valid, so no CRC
  catches it; the :mod:`repro.train.sdc` fingerprint invariants at the
  allreduce boundary do, before any optimizer applies.

Fault kinds are registered in :data:`FAULT_KINDS`, which records for
each the plane it attacks, whether it carries a per-attempt payload
budget (``count``), and whether it must name a target rank — the
validation in :meth:`FaultSpec.__post_init__` reads the registry, so a
new kind cannot silently skip e.g. the ``count >= 1`` check.

A :class:`FaultPlan` is a declarative schedule of :class:`FaultSpec`
entries keyed by trainer iteration; :class:`FaultInjector` arms the live
specs against each collective attempt (engine + world + rank processes)
and logs every fault that actually fires.  Transient specs are consumed
per *attempt* (``max_firings``), so a retry after a timeout observes the
fault gone — the transient-fault model of §6's discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mpi.schedule import CollectiveTimeout, RankFailure
from repro.mpi.world import MPIWorld
from repro.sim.engine import Engine, Process

__all__ = [
    "CollectiveTimeout",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RankFailure",
    "corrupt_messages",
    "crash",
    "degrade_links",
    "delay_messages",
    "drop_messages",
    "sdc_flip",
]


@dataclass(frozen=True)
class FaultKind:
    """Registry entry describing one injectable fault kind.

    ``payload`` kinds affect a budget of ``count`` messages/elements per
    attempt (and so must validate ``count >= 1``); ``needs_rank`` kinds
    cannot default to the any-sender wildcard.
    """

    name: str
    plane: str          # "process" | "network" | "compute"
    doc: str            # one line, shown by `repro faults --list`
    payload: bool = False
    needs_rank: bool = False


FAULT_KINDS: dict[str, FaultKind] = {
    k.name: k for k in (
        FaultKind(
            "crash", "process",
            "kill a rank process mid-collective (fail-stop, permanent)",
            needs_rank=True,
        ),
        FaultKind(
            "degrade", "network",
            "rescale a host's link bandwidth mid-flight (transient if "
            "duration set)",
            needs_rank=True,
        ),
        FaultKind(
            "delay", "network",
            "hold messages on the wire for extra seconds before transfer",
            payload=True,
        ),
        FaultKind(
            "drop", "network",
            "lose message payloads in transit until a collective timeout "
            "fires",
            payload=True,
        ),
        FaultKind(
            "corrupt", "network",
            "bit-flip message payloads in transit; CRC/fingerprint checks "
            "detect and retry",
            payload=True,
        ),
        FaultKind(
            "sdc", "compute",
            "bit-flip a gradient bucket between backward and allreduce; "
            "fingerprint invariants detect before any optimizer apply",
            payload=True, needs_rank=True,
        ),
    )
}

_KINDS = tuple(FAULT_KINDS)

# RankFailure / CollectiveTimeout live with the watchdog and retry logic
# (repro.mpi.guard); they are re-exported here for backward compatibility.


@dataclass
class FaultSpec:
    """One scheduled fault.

    ``rank`` is the *group rank at arm time* of the target (the victim for
    ``crash``/``degrade``, the sender for ``delay``/``drop``; ``None``
    matches any sender).  ``at`` is simulated seconds into the collective.
    ``max_firings`` bounds how many collective *attempts* the spec can hit;
    retried attempts past that see the fault cleared (transient faults).
    """

    kind: str
    iteration: int
    rank: int | None = None
    at: float = 0.0
    factor: float = 0.25          # degrade: link bandwidth multiplier
    duration: float | None = None  # degrade: restore after this long
    seconds: float = 0.0          # delay: extra on-wire time per message
    count: int = 1                # payload kinds: messages/bits per attempt
    bucket: int = 0               # sdc: gradient bucket index to flip
    max_firings: int = 1
    firings: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {_KINDS}")
        registered = FAULT_KINDS[self.kind]
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.kind == "degrade" and not 0 < self.factor <= 1:
            raise ValueError("degrade factor must be in (0, 1]")
        if self.kind == "delay" and self.seconds <= 0:
            raise ValueError("delay needs seconds > 0")
        if registered.payload and self.count < 1:
            raise ValueError("count must be >= 1")
        if self.bucket < 0:
            raise ValueError("bucket must be >= 0")
        if self.max_firings < 1:
            raise ValueError("max_firings must be >= 1")
        if registered.needs_rank and self.rank is None:
            raise ValueError(f"{self.kind} needs a target rank")

    @property
    def exhausted(self) -> bool:
        return self.firings >= self.max_firings

    @property
    def permanent(self) -> bool:
        """Crashes remove a learner for good; everything else is transient."""
        return self.kind == "crash"


def crash(rank: int, iteration: int, *, at: float = 0.0) -> FaultSpec:
    """Kill ``rank`` permanently, ``at`` seconds into the collective."""
    return FaultSpec("crash", iteration, rank=rank, at=at)


def degrade_links(
    rank: int,
    iteration: int,
    *,
    factor: float = 0.25,
    at: float = 0.0,
    duration: float | None = None,
    max_firings: int = 1,
) -> FaultSpec:
    """Scale ``rank``'s host links to ``factor`` of nominal, mid-flight."""
    return FaultSpec(
        "degrade", iteration, rank=rank, at=at, factor=factor,
        duration=duration, max_firings=max_firings,
    )


def delay_messages(
    iteration: int,
    *,
    seconds: float,
    rank: int | None = None,
    count: int = 1,
    at: float = 0.0,
    max_firings: int = 1,
) -> FaultSpec:
    """Hold the next ``count`` messages (from ``rank``, or any sender)
    posted at or after ``at`` seconds into the collective."""
    return FaultSpec(
        "delay", iteration, rank=rank, seconds=seconds, count=count, at=at,
        max_firings=max_firings,
    )


def drop_messages(
    iteration: int,
    *,
    rank: int | None = None,
    count: int = 1,
    at: float = 0.0,
    max_firings: int = 1,
) -> FaultSpec:
    """Lose the next ``count`` message payloads (from ``rank``, or any
    sender) posted at or after ``at`` seconds into the collective."""
    return FaultSpec(
        "drop", iteration, rank=rank, count=count, at=at,
        max_firings=max_firings,
    )


def corrupt_messages(
    iteration: int,
    *,
    rank: int | None = None,
    count: int = 1,
    at: float = 0.0,
    max_firings: int = 1,
) -> FaultSpec:
    """Bit-flip the next ``count`` non-empty message payloads (from
    ``rank``, or any sender) posted at or after ``at`` seconds into the
    collective.  Size and timing are unchanged — only the bytes lie."""
    return FaultSpec(
        "corrupt", iteration, rank=rank, count=count, at=at,
        max_firings=max_firings,
    )


def sdc_flip(
    rank: int,
    iteration: int,
    *,
    bucket: int = 0,
    count: int = 1,
    max_firings: int = 1,
) -> FaultSpec:
    """Bit-flip ``count`` element(s) of ``rank``'s gradient ``bucket``
    between backward and allreduce — a silent GPU compute fault.  The
    damaged payload is bit-valid on the wire; only the fingerprint
    invariants at the allreduce boundary can catch it."""
    return FaultSpec(
        "sdc", iteration, rank=rank, bucket=bucket, count=count,
        max_firings=max_firings,
    )


class FaultPlan:
    """A declarative schedule of faults, keyed by trainer iteration."""

    def __init__(self, specs: list[FaultSpec] | None = None):
        self.specs: list[FaultSpec] = []
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        if not isinstance(spec, FaultSpec):
            raise TypeError(f"expected FaultSpec, got {spec!r}")
        self.specs.append(spec)
        return self

    def live_specs(self, iteration: int) -> list[FaultSpec]:
        """Specs that still have firings left for ``iteration``."""
        return [
            s for s in self.specs
            if s.iteration == iteration and not s.exhausted
        ]

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.specs!r})"


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (for metrics and logs).

    ``rank`` names the suspected/affected rank; ``step`` (when known) the
    schedule step the fault was observed at, e.g. ``"RecvReduceStep #17"``
    for a diagnosed stall.
    """

    kind: str
    iteration: int
    rank: int | None
    t: float
    detail: str
    step: str | None = None

    def __str__(self) -> str:
        who = "any" if self.rank is None else f"rank {self.rank}"
        at_step = f" at {self.step}" if self.step else ""
        return (
            f"{self.kind}[{who}]@it{self.iteration}+{self.t:.3g}s"
            f"{at_step} {self.detail}"
        )


class FaultInjector:
    """Arms a :class:`FaultPlan` against successive collective attempts.

    One injector lives for a whole training run; :meth:`arm` binds the
    plan's live specs for the current iteration to a freshly built
    (engine, world, rank processes) triple.  Crash and degrade specs run
    as watchdog processes inside the simulation; delay and drop specs
    intercept sends through :attr:`MPIWorld.fault_controller`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: list[FaultEvent] = []
        # Largest group this injector has ever been armed against; ranks
        # valid for an earlier, larger group are *stale* after a shrink
        # (their target is gone), not errors.
        self._max_group: int | None = None

    def arm(
        self,
        engine: Engine,
        world: MPIWorld,
        procs: list[Process],
        iteration: int,
    ) -> None:
        group = len(procs)
        live = []
        for spec in self.plan.live_specs(iteration):
            if FAULT_KINDS[spec.kind].plane == "compute":
                # Compute faults fire between backward and allreduce via
                # apply_compute_faults, never inside the simulation.
                continue
            if spec.rank is not None and not 0 <= spec.rank < group:
                if self._max_group is not None and spec.rank < self._max_group:
                    # Shrink-then-rearm: the spec addressed a group rank
                    # that existed before the group shrank — skip quietly.
                    continue
                raise ValueError(
                    f"fault spec {spec.kind!r} targets rank {spec.rank}, but "
                    f"the armed group has {group} rank(s) (group ranks "
                    f"0..{group - 1}); specs address group ranks at arm "
                    "time, not world ranks"
                )
            live.append(spec)
        self._max_group = max(self._max_group or 0, group)
        if not live:
            return
        armed = _ArmedFaults(self, engine, world, procs, live, iteration)
        if armed.message_specs:
            world.fault_controller = armed

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def events_since(self, mark: int) -> list[FaultEvent]:
        return self.events[mark:]

    def apply_compute_faults(
        self,
        grads: list,
        iteration: int,
        *,
        bucket_ranges: list[tuple[int, int]],
    ) -> list[FaultEvent]:
        """Fire this iteration's compute-plane (``"sdc"``) specs.

        Called by the trainer after backward, before the allreduce, with
        the per-rank gradient arrays and the guard's bucket windows.
        Flips ``count`` evenly spread bits inside the spec's bucket of
        the target rank's gradient, in place.  Returns the events fired
        (also recorded), so the caller can fold them into step telemetry
        — the guard (:func:`~repro.mpi.guard.guard`) only harvests events
        recorded after an attempt arms, and these fire before the first.
        """
        from repro.train.sdc import FLIP_BIT, flip_bit

        group = len(grads)
        fired: list[FaultEvent] = []
        for spec in self.plan.live_specs(iteration):
            if FAULT_KINDS[spec.kind].plane != "compute":
                continue
            if not 0 <= spec.rank < group:
                if self._max_group is not None and spec.rank < self._max_group:
                    continue  # stale after a shrink, like arm()
                raise ValueError(
                    f"fault spec {spec.kind!r} targets rank {spec.rank}, but "
                    f"the group has {group} rank(s)"
                )
            if spec.bucket >= len(bucket_ranges):
                raise ValueError(
                    f"fault spec {spec.kind!r} targets bucket {spec.bucket}, "
                    f"but the gradient has {len(bucket_ranges)} bucket(s)"
                )
            lo, hi = bucket_ranges[spec.bucket]
            width = hi - lo
            if width < 1:
                raise ValueError(
                    f"fault spec {spec.kind!r} targets empty bucket "
                    f"{spec.bucket} [{lo}:{hi}]"
                )
            spec.firings += 1
            n_flips = min(spec.count, width)
            for j in range(n_flips):
                flip_bit(grads[spec.rank], lo + (width * (2 * j + 1)) // (2 * n_flips))
            event = FaultEvent(
                "sdc", iteration, spec.rank, 0.0,
                f"{n_flips} bit(s) flipped in gradient bucket {spec.bucket} "
                f"[{lo}:{hi}] (bit {FLIP_BIT}) between backward and allreduce",
            )
            self.record(event)
            fired.append(event)
        self._max_group = max(self._max_group or 0, group)
        return fired


class _ArmedFaults:
    """Plan specs bound to one collective attempt."""

    def __init__(
        self,
        injector: FaultInjector,
        engine: Engine,
        world: MPIWorld,
        procs: list[Process],
        specs: list[FaultSpec],
        iteration: int,
    ):
        self.injector = injector
        self.engine = engine
        self.world = world
        self.procs = procs
        self.iteration = iteration
        self.message_specs: list[FaultSpec] = []
        # Per-attempt budget of messages each delay/drop spec may hit.
        self._budget: dict[int, int] = {}
        # Rank bounds were validated (or stale specs skipped) at arm time.
        for spec in specs:
            if spec.kind == "crash":
                engine.process(self._crash_watch(spec), name=f"fault-crash{spec.rank}")
            elif spec.kind == "degrade":
                engine.process(
                    self._degrade_watch(spec), name=f"fault-degrade{spec.rank}"
                )
            else:
                self.message_specs.append(spec)
                self._budget[id(spec)] = spec.count

    # -- watchdog processes -------------------------------------------------
    def _crash_watch(self, spec: FaultSpec):
        yield self.engine.timeout(spec.at)
        proc = self.procs[spec.rank]
        if not proc.is_alive:
            return
        spec.firings += 1
        self.injector.record(
            FaultEvent("crash", self.iteration, spec.rank, self.engine.now,
                       "fail-stop (permanent)")
        )
        proc.interrupt(RankFailure(spec.rank, when=self.engine.now))

    def _degrade_watch(self, spec: FaultSpec):
        yield self.engine.timeout(spec.at)
        spec.firings += 1
        self.world.fabric.scale_host_links(spec.rank, spec.factor)
        self.injector.record(
            FaultEvent("degrade", self.iteration, spec.rank, self.engine.now,
                       f"links x{spec.factor:g}"
                       + (f" for {spec.duration:g}s" if spec.duration else ""))
        )
        if spec.duration is not None:
            yield self.engine.timeout(spec.duration)
            self.world.fabric.scale_host_links(spec.rank, 1.0)
            self.injector.record(
                FaultEvent("degrade", self.iteration, spec.rank,
                           self.engine.now, "links restored")
            )

    # -- MPIWorld.fault_controller protocol ---------------------------------
    def on_send(
        self, src: int, dst: int, tag: object, nbytes: int
    ) -> tuple[str, float]:
        for spec in self.message_specs:
            if spec.rank is not None and spec.rank != src:
                continue
            if self.engine.now < spec.at:
                continue
            if spec.kind == "corrupt" and nbytes == 0:
                # Nothing to flip in an empty payload; hold the budget for
                # the next message that actually carries bytes.
                continue
            budget = self._budget[id(spec)]
            if budget <= 0:
                continue
            if budget == spec.count:  # first hit this attempt
                spec.firings += 1
            self._budget[id(spec)] = budget - 1
            if spec.kind == "drop":
                self.injector.record(
                    FaultEvent("drop", self.iteration, src, self.engine.now,
                               f"{nbytes}B to rank {dst} lost in transit")
                )
                return "drop", 0.0
            if spec.kind == "corrupt":
                self.injector.record(
                    FaultEvent("corrupt", self.iteration, src, self.engine.now,
                               f"{nbytes}B to rank {dst} bit-flipped in transit")
                )
                return "corrupt", 0.0
            self.injector.record(
                FaultEvent("delay", self.iteration, src, self.engine.now,
                           f"{nbytes}B to rank {dst} held {spec.seconds:g}s")
            )
            return "delay", spec.seconds
        return "deliver", 0.0

    def corrupt_payload(self, payload):
        """Return a copy of ``payload`` with one bit flipped mid-buffer.

        Called by :meth:`MPIWorld.isend` when :meth:`on_send` answered
        ``"corrupt"``.  Size-only payloads (``None``) pass through — there
        are no bytes to damage in a timing run.
        """
        if payload is None:
            return None
        if isinstance(payload, np.ndarray) and payload.nbytes > 0:
            flipped = payload.copy()
            view = flipped.view(np.uint8).reshape(-1)
            view[len(view) // 2] ^= 0x80
            return flipped
        if isinstance(payload, (bytes, bytearray)) and len(payload) > 0:
            flipped = bytearray(payload)
            flipped[len(flipped) // 2] ^= 0x80
            return bytes(flipped)
        return payload
