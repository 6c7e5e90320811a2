"""The unified training-step DAG: one Schedule for compute + comm.

Two layers of guarantees:

* the compiled step proves clean under every verify pass (the semantic
  pass certifying each bucket's gradient is reduced before its optimizer
  reads it) and its critical-path lower bound never exceeds its own
  simulated elapsed time;
* the unified DAG reproduces the retired bucket-release driver's overlap
  estimate (``tests/train/overlap_reference.py``) within 1% — including
  the fp16 x bucketing x multicolor composition the whatif benchmarks
  expose.
"""

import pytest

from repro.mpi.datatypes import SizeBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import ComputeStep, OptimStep, ScheduleExecutor
from repro.mpi.verify import analyze_bounds, train_step_contract, verify_schedule
from repro.train.overlap import simulate_bucketed_overlap
from repro.train.stepdag import compile_bucketed_step, compile_model_step
from tests.train.overlap_reference import legacy_simulate_bucketed_overlap

COUNT = 1003


def _compile(algorithm="multicolor", n_ranks=4, memory="staged", **kw):
    kw.setdefault("forward_time", 1e-3)
    kw.setdefault("backward_time", 2e-3)
    kw.setdefault("optim_time", 5e-4)
    kw.setdefault("n_buckets", 4)
    return compile_bucketed_step(
        n_ranks, COUNT, 4, algorithm=algorithm, memory=memory, **kw
    )


# -- compilation --------------------------------------------------------------

def test_validation_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_ranks"):
        compile_bucketed_step(0, COUNT, 4)
    with pytest.raises(ValueError, match="count"):
        compile_bucketed_step(4, 0, 4)
    with pytest.raises(ValueError, match="compute times"):
        compile_bucketed_step(4, COUNT, 4, forward_time=-1.0)
    with pytest.raises(ValueError, match="n_buckets"):
        compile_bucketed_step(4, COUNT, 4, n_buckets=0)
    with pytest.raises(ValueError, match="memory"):
        compile_bucketed_step(4, COUNT, 4, memory="gpu")
    with pytest.raises(ValueError, match="unknown allreduce algorithm"):
        compile_bucketed_step(4, COUNT, 4, algorithm="warp")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("knob", ["forward_time", "backward_time", "optim_time"])
def test_non_finite_compute_times_are_rejected(knob, bad):
    with pytest.raises(ValueError, match="compute times must be finite"):
        compile_bucketed_step(4, COUNT, 4, **{knob: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_bad_audit_time_is_rejected(bad):
    with pytest.raises(ValueError, match="audit_time must be finite"):
        compile_bucketed_step(4, COUNT, 4, audit=True, audit_time=bad)


def test_compiler_is_memoized():
    assert _compile() is _compile()
    assert _compile() is not _compile(n_buckets=2)


def test_more_buckets_than_elements_skips_empty_buckets():
    sched = compile_bucketed_step(
        2, 3, 4, forward_time=1e-4, backward_time=1e-4, n_buckets=8
    )
    optims = [s for s in sched.steps if isinstance(s, OptimStep)]
    # Only the 3 non-empty buckets get an optimizer step per rank.
    assert len(optims) == 2 * 3
    assert all(s.hi - s.lo == 1 for s in optims)


def test_step_structure_per_rank():
    sched = _compile()
    for rank in range(4):
        mine = [s for s in sched.steps if s.rank == rank]
        computes = [s for s in mine if isinstance(s, ComputeStep)]
        optims = [s for s in mine if isinstance(s, OptimStep)]
        assert len(computes) == 1 + 4  # forward + one backward per bucket
        assert len(optims) == 4
        # Optimizer ranges tile the gradient exactly.
        covered = sorted((s.lo, s.hi) for s in optims)
        assert covered[0][0] == 0 and covered[-1][1] == COUNT
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))


# -- verification -------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["multicolor", "ring", "rsag", "binomial"])
def test_staged_step_proves_clean(algorithm):
    report = verify_schedule(
        _compile(algorithm), train_step_contract(4, COUNT)
    )
    assert report.ok, report.format()


def test_critical_path_bounds_simulated_elapsed():
    sched = _compile(memory="data")
    engine, world, comm = build_world(4)
    bufs = [SizeBuffer(COUNT, 4) for _ in range(4)]
    executor = ScheduleExecutor(comm, sched, bufs)
    elapsed = executor.run()
    bounds = analyze_bounds(sched)
    assert 0 < bounds.critical_path_s <= elapsed
    # All compute ran: 4 ranks x (fwd 1ms + bwd 2ms + optim 0.5ms).
    assert None not in executor.progress.end
    compute = sum(s.seconds for s in sched.steps if isinstance(s, (ComputeStep, OptimStep)))
    assert compute == pytest.approx(4 * 3.5e-3)


def test_gpu_exclusivity_floor_in_critical_path():
    # With communication far cheaper than compute, the per-rank compute
    # sum is the binding lower bound and the simulated step matches it.
    sched = compile_bucketed_step(
        2, 64, 4, forward_time=0.05, backward_time=0.1, optim_time=0.01,
        n_buckets=2, algorithm="ring",
    )
    engine, world, comm = build_world(2)
    elapsed = ScheduleExecutor(
        comm, sched, [SizeBuffer(64, 4) for _ in range(2)]
    ).run()
    bounds = analyze_bounds(sched)
    # 0.16 s of compute per rank, less the bound's rounding allowance.
    assert bounds.critical_path_s >= 0.16 * (1 - 1e-12)
    assert bounds.critical_path_s <= elapsed


def test_critical_path_stays_below_a_clock_that_rounds_differently():
    # The bound sums the per-rank compute seconds in sid order and the
    # clock in event order: unrounded, the sum here lands one ulp above
    # the simulated 0.0020499999999999997 s.
    sched = compile_bucketed_step(
        3, 50000, 2, forward_time=0, backward_time=2e-3, optim_time=5e-5,
        n_buckets=3, algorithm="binomial", memory="data",
    )
    engine, world, comm = build_world(3)
    elapsed = ScheduleExecutor(
        comm, sched, [SizeBuffer(sched.count, sched.itemsize) for _ in range(3)]
    ).run()
    assert elapsed == 0.0020499999999999997
    assert 0.00205 * (1 - 1e-12) < analyze_bounds(sched).critical_path_s <= elapsed


def test_model_step_compiles_and_verifies():
    from repro.core.calibration import compute_model_for
    from repro.models.zoo import get_model

    sched = compile_model_step(
        get_model("googlenet_bn"),
        n_ranks=4,
        algorithm="multicolor",
        compute=compute_model_for("googlenet_bn"),
        n_buckets=4,
        memory="data",
    )
    assert sched.itemsize == 4
    fwd = [
        s for s in sched.steps
        if isinstance(s, ComputeStep) and s.buf is None
    ]
    bwd = [
        s for s in sched.steps
        if isinstance(s, ComputeStep) and s.buf is not None
    ]
    # fwd:bwd = 1:2 FLOP accounting, whole step split across buckets.
    assert sum(s.seconds for s in bwd) == pytest.approx(
        2 * sum(s.seconds for s in fwd)
    )


def test_model_step_fp16_halves_the_wire_payload():
    from repro.core.calibration import compute_model_for
    from repro.models.zoo import get_model

    model = get_model("googlenet_bn")
    compute = compute_model_for("googlenet_bn")
    fp32 = compile_model_step(
        model, n_ranks=4, algorithm="multicolor", compute=compute,
        memory="data",
    )
    fp16 = compile_model_step(
        model, n_ranks=4, algorithm="multicolor", compute=compute,
        fp16=True, memory="data",
    )
    assert fp32.itemsize == 4 and fp16.itemsize == 2
    assert analyze_bounds(fp16).total_wire_bytes < analyze_bounds(
        fp32
    ).total_wire_bytes


# -- parity with the retired bucket-release driver ----------------------------

PARITY_KW = dict(
    n_ranks=4,
    forward_time=0.037,
    backward_time=0.074,
    gradient_bytes=8_000_000,
)


@pytest.mark.parametrize("algorithm,n_buckets", [
    ("multicolor", 1),
    ("multicolor", 8),
    ("ring", 4),
])
def test_unified_dag_matches_legacy_driver(algorithm, n_buckets):
    unified = simulate_bucketed_overlap(
        algorithm=algorithm, n_buckets=n_buckets, **PARITY_KW
    )
    legacy = legacy_simulate_bucketed_overlap(
        algorithm=algorithm, n_buckets=n_buckets, **PARITY_KW
    )
    assert unified.iteration_time == pytest.approx(
        legacy.iteration_time, rel=0.01
    )
    assert unified.serial_iteration_time == pytest.approx(
        legacy.serial_iteration_time, rel=1e-9
    )


def test_composition_smoke_fp16_overlap_multicolor():
    """fp16 + bucketed overlap + multicolor compose in ONE schedule.

    A comm-dominated step over a fixed 4M-parameter gradient: the unified
    fp16 step (2-byte elements, half the wire bytes) must agree within 1%
    with the manually-composed legacy estimate (bucket-release driver
    over the fp16 payload) — the whatif composition CI gate.
    """
    n_params = 4_000_000
    kw = dict(
        n_ranks=4,
        forward_time=0.002,
        backward_time=0.004,
        n_buckets=8,
        algorithm="multicolor",
    )
    unified = simulate_bucketed_overlap(
        gradient_bytes=2 * n_params, itemsize=2, **kw
    )
    legacy = legacy_simulate_bucketed_overlap(
        gradient_bytes=2 * n_params, itemsize=2, **kw
    )
    assert unified.iteration_time == pytest.approx(
        legacy.iteration_time, rel=0.01
    )
    # fp16 must actually help: the same parameters at fp32 are slower.
    fp32 = simulate_bucketed_overlap(
        gradient_bytes=4 * n_params, itemsize=4, **kw
    )
    assert unified.iteration_time < fp32.iteration_time
    assert unified.overlap_gain > 0.0
    assert len(unified.bucket_spans) == 8
    assert all(end >= start for start, end in unified.bucket_spans)
