"""Ablation: what the SDC defense costs, and what it saves.

Two questions the fingerprinting design must answer with numbers:

* **Detection overhead** — per-bucket fingerprints are pure bookkeeping
  outside the simulation, so a clean run's *simulated* time is bit-equal
  with the guard on or off; the wall-clock cost of hashing is measured
  here, and the real-world audit latency enters simulated time only
  through the explicit ``audit_time`` of the step DAG's gated audit
  steps (:func:`repro.train.stepdag.compile_bucketed_step`), priced here
  at the same geometry.
* **MTTR** — when a flip is caught at the allreduce boundary, quarantine
  and-rerun repeats one collective on the survivors; the classic
  alternative restores the last checkpoint and replays every step since.
  The gap between those two is the repair-time saving.
"""

import time

from conftest import emit

import numpy as np

from repro.mpi.datatypes import SizeBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleExecutor
from repro.train.injection import FaultPlan, sdc_flip
from repro.train.sdc_chaos import (
    _N_BUCKETS,
    _N_LEARNERS,
    _N_STEPS,
    SDCChaosPoint,
    sdc_trainer,
)
from repro.train.stepdag import compile_bucketed_step
from repro.utils.ascii import render_table

#: The scripted flip used for the MTTR comparison.
POINT = SDCChaosPoint(rank=1, bucket=0, iteration=2)
#: Checkpoint cadence of the hypothetical restore-based recovery.
CHECKPOINT_EVERY = 4


def _run(trainer):
    """Drive a trainer to completion; wall seconds, per-step sim, params."""
    with trainer:
        start = time.perf_counter()
        results = [trainer.step() for _ in range(_N_STEPS)]
        wall = time.perf_counter() - start
        return wall, [r.sim_time for r in results], trainer.params()


def _scripted_shrink_times(point):
    """Per-step sim times of a fault-free run shedding the same learner
    at the same iteration (the quarantine repair's reference cost)."""
    trainer = sdc_trainer()
    with trainer:
        times = []
        for iteration in range(_N_STEPS):
            grads, losses = trainer.step_compute()
            if iteration == point.iteration:
                del grads[point.rank]
                trainer.absorb_failure(point.rank, reshuffle=False)
            summed, n = trainer.reduce(grads)
            result = trainer.step_apply(summed, n, losses)
            times.append(result.sim_time)
        return times


def _audited_step_dag_times(count, audit_time):
    """Per-step sim times of the audited step DAG (data mode, no compute
    time) at the sweep's geometry: the same learners, gradient, buckets
    and fabric as the training job."""
    sched = compile_bucketed_step(
        _N_LEARNERS, count, 8, n_buckets=_N_BUCKETS, algorithm="multicolor",
        audit=True, audit_time=audit_time,
    )
    _engine, _world, comm = build_world(_N_LEARNERS, topology="star")
    bufs = [SizeBuffer(count, 8) for _ in range(_N_LEARNERS)]
    return [ScheduleExecutor(comm, sched, bufs).run()] * _N_STEPS


def run_sdc_ablation():
    out = {}
    # Clean path: audit off vs on.
    for buckets in (None, _N_BUCKETS):
        label = "off" if buckets is None else "on"
        out[label] = _run(sdc_trainer(sdc_buckets=buckets))
    # Priced audit: the step DAG's gated audit steps with explicit latency.
    with sdc_trainer() as trainer:
        count = trainer.n_params
    for label, audit in (("audit-free", 0.0), ("audit-priced", 5e-4)):
        out[label] = (None, _audited_step_dag_times(count, audit), None)
    # MTTR: one scripted flip, quarantine-and-rerun measured for real.
    plan = FaultPlan([
        sdc_flip(POINT.rank, POINT.iteration, bucket=POINT.bucket)
    ])
    out["faulted"] = _run(sdc_trainer(fault_plan=plan, sdc_buckets=_N_BUCKETS))
    out["shrink-ref"] = _scripted_shrink_times(POINT)
    return out


def test_ablation_sdc(benchmark):
    out = benchmark.pedantic(run_sdc_ablation, rounds=1, iterations=1)

    wall_off, sim_off, params_off = out["off"]
    wall_on, sim_on, params_on = out["on"]
    # Zero simulated cost on the clean path: params and sim time bit-equal.
    np.testing.assert_array_equal(params_off, params_on)
    assert sim_off == sim_on

    _, sim_free, _ = out["audit-free"]
    _, sim_priced, _ = out["audit-priced"]
    assert sum(sim_priced) > sum(sim_free)  # the knob is really priced

    # MTTR: extra simulated time the quarantine repair added, vs a full
    # restore-and-replay of every step since the last checkpoint.
    _, sim_faulted, _ = out["faulted"]
    ref_times = out["shrink-ref"]
    mttr_quarantine = sum(sim_faulted) - sum(ref_times)
    last_ckpt = (POINT.iteration // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
    replayed = POINT.iteration - last_ckpt + 1
    mttr_restart = sum(sim_off[last_ckpt:POINT.iteration + 1])
    assert 0 < mttr_quarantine < mttr_restart

    overhead = (wall_on - wall_off) / wall_off if wall_off else 0.0
    cost = render_table(
        ["mode", "wall (ms)", "simulated (ms)"],
        [
            ["fingerprints off", f"{wall_off * 1e3:.2f}",
             f"{sum(sim_off) * 1e3:.4f}"],
            ["fingerprints on", f"{wall_on * 1e3:.2f}",
             f"{sum(sim_on) * 1e3:.4f}"],
            ["audited step DAG (audit_time=0)", "-",
             f"{sum(sim_free) * 1e3:.4f}"],
            ["audited step DAG (audit_time=0.5ms)", "-",
             f"{sum(sim_priced) * 1e3:.4f}"],
        ],
        title="Ablation — SDC detection cost "
              f"(wall overhead {overhead:+.0%}; simulated cost 0 unless "
              "priced via the step DAG's audit_time)",
    )
    mttr = render_table(
        ["recovery", "replayed work", "MTTR (sim ms)"],
        [
            ["quarantine-and-rerun",
             "1 collective on survivors",
             f"{mttr_quarantine * 1e3:.4f}"],
            [f"restore + replay (ckpt every {CHECKPOINT_EVERY})",
             f"{replayed} full steps",
             f"{mttr_restart * 1e3:.4f}"],
        ],
        title="Ablation — SDC repair: mean time to recovery "
              f"({mttr_restart / mttr_quarantine:.1f}x faster than restart)",
    )
    emit("ablation_sdc", cost + "\n\n" + mttr)
