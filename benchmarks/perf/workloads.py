"""The four benchmark workloads, and the child process that runs one of them.

Each workload has a ``setup`` that imports ``repro`` and builds the inputs,
and a ``pass`` that runs every operation once and records the simulated
outputs.  The outputs are the paper's results (simulated seconds, verdicts),
not the simulator's speed; the harness pins them in ``expected.json``.

Run as a script, this file is one fresh child interpreter::

    python3 benchmarks/perf/workloads.py WORKLOAD MODE SEED SPAWNED

``MODE`` is ``setup`` (set up only), ``pass`` (set up, then one timed pass)
or ``trace`` (set up, then one pass under cProfile).  ``SPAWNED`` is the
parent's ``time.monotonic()`` just before the spawn, so ``setup_s`` includes
interpreter start-up.  The child prints one JSON object as its last line.
``PYTHONPATH`` must name the repository's ``src`` directory.

Children also time :func:`reference_work`, a fixed loop that uses no
``repro`` code: three times right after set-up, and every
:data:`REFERENCE_PERIOD_S` during an untraced pass.  The harness divides by
those samples to cancel the host's speed drift.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

WORKLOADS: tuple[str, ...] = ("allreduce", "shuffle", "train-step", "fleet-chaos")
#: Workloads whose inputs depend on ``--seed``; the rest are fixed paper
#: configurations and must give the same outputs for every seed.
SEEDED: frozenset[str] = frozenset({"fleet-chaos"})

MB = 1000**2
MiB = 1 << 20

# Figure 5: three algorithms x six payloads at 16 ranks.
FIG5_ALGORITHMS = ("multicolor", "ring", "openmpi_default")
FIG5_PAYLOADS_MB = (1, 4, 16, 64, 93, 128)
# ResNet-50's gradient payload, for the rank-scaling cases.
SCALE_BYTES = int(88.7 * MiB)
# (span, ranks, algorithm): mc16 -> mc32 shows the cost of one rank doubling.
SCALE_CASES = (
    ("mc16", 16, "multicolor"),
    ("mc32", 32, "multicolor"),
    ("ring32", 32, "ring"),
    ("ring64", 64, "ring"),
)
# (span, dataset, learners, groups): Figs. 7-9.
SHUFFLE_CASES = (
    ("l8", "imagenet-22k", 8, 1),
    ("l16", "imagenet-22k", 16, 1),
    ("l32", "imagenet-22k", 32, 1),
    ("l32_1k", "imagenet-1k", 32, 1),
    ("grouped", "imagenet-22k", 32, 4),
    ("grouped", "imagenet-22k", 32, 16),
)
# (model, ranks), each run the way ``repro step`` runs it.
STEP_CASES = (
    ("resnet50", 4),
    ("resnet50", 16),
    ("googlenet_bn", 4),
    ("googlenet_bn", 16),
)
STEP_BUCKETS = 8
STEP_BATCH = 32
STEP_PROXY_COUNT = 1003

#: Reference-loop samples taken right after set-up.
REFERENCE_SAMPLES = 3
#: Wall-clock gap between reference samples during a pass.
REFERENCE_PERIOD_S = 0.2
#: ``reference_work``'s duration on a quiet host; times are scaled to it.
REFERENCE_NOMINAL_S = 0.0053


def fig5_segment(nbytes: int) -> int:
    """Fig. 5 segmentation: ~64 segments, 64 KiB floor."""
    return max(64 * 1024, nbytes // 64)


def reference_work() -> float:
    """Fixed pure-Python work (heap, dict and float traffic, like the event
    engine's).  Never change it: every recorded time is scaled by it."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(8000):
        heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc


class ReferenceSampler:
    """Times :func:`reference_work`, on demand and, inside ``with``, every
    :data:`REFERENCE_PERIOD_S` from a ``SIGALRM`` handler.  The timer spreads
    samples evenly through long operations, and needs no thread.

    The host's slowdowns come in bursts, so the pass's slowdown is the *mean*
    of samples taken evenly in time; :meth:`work_clock` stops while a sample
    runs, so the samples never count as the program's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.total += seconds

    def work_clock(self) -> float:
        return time.perf_counter() - self.total

    def _tick(self, _signum, _frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S)

    def __enter__(self) -> ReferenceSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Recorder:
    """One pass's operation outputs and stage spans, timed on ``clock``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.outputs: dict[str, dict] = {}
        self.spans: dict[str, float] = {}

    def add(self, span: str, seconds: float) -> None:
        self.spans[span] = self.spans.get(span, 0.0) + seconds

    def ops(self, name: str, fn, span: str | None = None) -> None:
        """Run ``fn``, which returns outputs by operation name.  An exception
        fails operation ``name``, not the pass."""
        t0 = self.clock()
        try:
            self.outputs.update(fn())
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            self.outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
        if span is not None:
            self.add(span, self.clock() - t0)

    def op(self, name: str, fn, span: str | None = None) -> None:
        """Run one operation; ``fn`` returns its outputs."""
        self.ops(name, lambda: {name: fn()}, span)


# -- allreduce ----------------------------------------------------------------

def _setup_allreduce(seed: int) -> dict:
    from repro.mpi import simulate_allreduce

    cases = [
        (f"fig5/{alg}/{mb}MB", "fig5", 16, alg, mb * MB)
        for alg in FIG5_ALGORITHMS
        for mb in FIG5_PAYLOADS_MB
    ]
    cases += [
        (f"{alg}/{ranks}/88.7MiB", span, ranks, alg, SCALE_BYTES)
        for span, ranks, alg in SCALE_CASES
    ]
    return {"simulate": simulate_allreduce, "cases": cases}


def _pass_allreduce(ctx: dict, rec: Recorder) -> None:
    def run(ranks: int, alg: str, nbytes: int) -> dict:
        out = ctx["simulate"](ranks, nbytes, algorithm=alg, segment_bytes=fig5_segment(nbytes))
        return {
            "elapsed_s": out.elapsed,
            "bytes_on_wire": out.bytes_on_wire,
            "ok": out.elapsed > 0 and out.bytes_on_wire > 0,
        }

    for name, span, ranks, alg, nbytes in ctx["cases"]:
        rec.op(name, lambda r=ranks, a=alg, n=nbytes: run(r, a, n), span)
    if "mc16" in rec.spans and "mc32" in rec.spans:
        rec.spans["doubling_x"] = rec.spans["mc32"] / rec.spans["mc16"]


# -- shuffle ------------------------------------------------------------------

def _setup_shuffle(seed: int) -> dict:
    from repro.core.calibration import DATASETS
    from repro.data import simulate_shuffle

    cases = [
        (f"{ds}/{learners}/g{groups}", span, DATASETS[ds], learners, groups)
        for span, ds, learners, groups in SHUFFLE_CASES
    ]
    return {"simulate": simulate_shuffle, "cases": cases}


def _pass_shuffle(ctx: dict, rec: Recorder) -> None:
    def run(dataset, learners: int, groups: int) -> dict:
        report = ctx["simulate"](learners, dataset, n_groups=groups)
        return {
            "elapsed_s": report.elapsed,
            "n_passes": report.n_passes,
            "bytes_exchanged": report.bytes_exchanged,
            "ok": report.elapsed > 0 and report.n_passes >= 1,
        }

    for name, span, dataset, learners, groups in ctx["cases"]:
        rec.op(name, lambda d=dataset, n=learners, g=groups: run(d, n, g), span)


# -- train-step -----------------------------------------------------------------

def _setup_step(seed: int) -> dict:
    from repro.core.calibration import compute_model_for
    from repro.models.zoo import get_model

    # Import what the pass calls, so import time counts as set-up.
    import repro.mpi.runner  # noqa: F401
    import repro.mpi.verify  # noqa: F401
    import repro.train.stepdag  # noqa: F401

    cases = [
        (f"{model}/{ranks}", get_model(model), compute_model_for(model), ranks)
        for model, ranks in STEP_CASES
    ]
    return {"cases": cases}


def _run_step(rec: Recorder, model, compute, ranks: int) -> dict:
    """One ``repro step`` case: compile, prove the staged proxy, simulate the
    full-size step, and check the critical-path bound against it."""
    from repro.mpi.datatypes import SizeBuffer
    from repro.mpi.runner import build_world
    from repro.mpi.schedule import ScheduleExecutor
    from repro.mpi.verify import analyze_bounds, train_step_contract, verify_schedule
    from repro.train.stepdag import compile_bucketed_step, compile_model_step

    t0 = rec.clock()
    schedule = compile_model_step(
        model, n_ranks=ranks, algorithm="multicolor", compute=compute,
        batch_per_gpu=STEP_BATCH, n_buckets=STEP_BUCKETS, fp16=False, memory="data",
    )
    t1 = rec.clock()
    proxy = compile_bucketed_step(
        ranks, STEP_PROXY_COUNT, schedule.itemsize,
        forward_time=1e-3, backward_time=2e-3, optim_time=5e-4,
        n_buckets=STEP_BUCKETS, algorithm="multicolor", memory="staged",
    )
    proof = verify_schedule(proxy, train_step_contract(ranks, STEP_PROXY_COUNT))
    t2 = rec.clock()
    engine, _world, comm = build_world(ranks)
    buffers = [SizeBuffer(schedule.count, schedule.itemsize) for _ in range(ranks)]
    executor = ScheduleExecutor(comm, schedule, buffers)
    start = engine.now
    engine.run(executor.launch())
    elapsed = engine.now - start
    t3 = rec.clock()
    critical_path = analyze_bounds(schedule).critical_path_s
    t4 = rec.clock()
    for span, seconds in (("compile", t1 - t0), ("verify", t2 - t1),
                          ("simulate", t3 - t2), ("bound", t4 - t3)):
        rec.add(span, seconds)
    return {
        "elapsed_s": elapsed,
        "critical_path_s": critical_path,
        "n_steps": len(schedule.steps),
        "proof_ok": proof.ok,
        "ok": proof.ok and critical_path <= elapsed,
    }


def _pass_step(ctx: dict, rec: Recorder) -> None:
    for name, model, compute, ranks in ctx["cases"]:
        rec.op(name, lambda m=model, c=compute, r=ranks: _run_step(rec, m, c, r))


# -- fleet-chaos ----------------------------------------------------------------

def _setup_fleet(seed: int) -> dict:
    from repro.fleet.chaos import FLEET_KINDS, fleet_chaos_sweep

    return {
        "sweep": fleet_chaos_sweep,
        "kinds": tuple(FLEET_KINDS),
        "placements": ("pack", "spread"),
        "seed": seed,
    }


def _pass_fleet(ctx: dict, rec: Recorder) -> None:
    # One sweep call (its points share fault-free references); each point
    # is one operation.
    def sweep() -> dict:
        report = ctx["sweep"](kinds=ctx["kinds"], placements=ctx["placements"], seed=ctx["seed"])
        return {
            f"{i:02d} {o.point.label()}": {
                "makespan_s": o.makespan,
                "ref_makespan_s": o.ref_makespan,
                "violations": len(o.violations),
                "ok": o.ok,
            }
            for i, o in enumerate(report.outcomes)
        }

    rec.ops("sweep", sweep, "sweep")


SETUP = {
    "allreduce": _setup_allreduce,
    "shuffle": _setup_shuffle,
    "train-step": _setup_step,
    "fleet-chaos": _setup_fleet,
}
PASS = {
    "allreduce": _pass_allreduce,
    "shuffle": _pass_shuffle,
    "train-step": _pass_step,
    "fleet-chaos": _pass_fleet,
}


def run_pass(workload: str, ctx: dict, clock=time.perf_counter) -> Recorder:
    """Run every operation of ``workload`` once."""
    rec = Recorder(clock)
    PASS[workload](ctx, rec)
    return rec


def main(argv: list[str]) -> int:
    workload, mode, seed, spawned = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode not in ("setup", "pass", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    # One core: worker threads the program starts (the fleet trainer's
    # data-parallel replicas) then run on the core the reference loop times,
    # not on a second core whose load the reference cannot see.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
    ctx = SETUP[workload](seed)
    result: dict = {"setup_s": time.monotonic() - spawned}
    sampler = ReferenceSampler()
    for _ in range(REFERENCE_SAMPLES):
        sampler.sample()
    result["setup_reference_s"] = list(sampler.samples)
    if mode == "pass":
        with sampler:
            t0 = sampler.work_clock()
            rec = run_pass(workload, ctx, sampler.work_clock)
            result["wall_s"] = sampler.work_clock() - t0
        sampler.sample()  # a pass shorter than the timer period has none
        result["reference_s"] = sampler.samples[REFERENCE_SAMPLES:]
    elif mode == "trace":
        import cProfile
        import pstats

        import repro
        from layers import summarize_profile

        profiler = cProfile.Profile()
        t0 = time.perf_counter()
        profiler.enable()
        rec = run_pass(workload, ctx)
        profiler.disable()
        result["wall_s"] = time.perf_counter() - t0
        src_dir = Path(repro.__file__).parent.parent
        result["profile"] = summarize_profile(pstats.Stats(profiler).stats, src_dir)
    if mode != "setup":
        result["outputs"], result["spans"] = rec.outputs, rec.spans
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
