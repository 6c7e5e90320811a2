"""Silent-data-corruption chaos for the training step: flip one gradient
bit on every (rank x bucket x iteration) point and prove the defense.

Each point runs a full multi-learner training job with one scripted
compute-plane bit-flip (:func:`repro.train.injection.sdc_flip` — bit 62
of one float64, between backward and the gradient allreduce), then
asserts five invariants:

1. **injected** — the scripted ``sdc`` fault actually fired, exactly
   once, at the scripted iteration against the scripted rank;
2. **detected before apply** — the same step's result carries an
   ``sdc-detect`` event: the fingerprint invariants caught the flip at
   the allreduce boundary, before any optimizer apply;
3. **attributed** — the detection names the corrupting rank (and the
   recompute confirmation, when enabled, agrees);
4. **contained** — exactly that learner is quarantined (an elastic
   shrink), and every survivor replica stays synchronized;
5. **repaired bit-exact** — the run's final params equal a fault-free
   reference that shrinks the same learner at the same iteration as a
   *controlled* shrink: the poisoned iteration was rolled back and
   re-run on the survivors with no numeric residue.

The sweep also proves the **zero-cost clean path**, as a sweep-level
invariant: a fault-free run with fingerprinting enabled lands on
bit-identical params *and* the identical simulated time as one with it
disabled — detection spends no simulated events, so every existing
golden stays byte-stable.  The loop is :func:`repro.chaos.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chaos import ChaosOutcome, ChaosReport, References, subsample, sweep
from repro.train.distributed import DistributedSGDTrainer
from repro.train.injection import FaultPlan, sdc_flip
from repro.train.tiny import build_tiny_trainer

__all__ = ["SDCChaosPoint", "run_sdc_point", "sdc_chaos_points",
           "sdc_chaos_sweep", "sdc_trainer"]

#: Sweep geometry: learners in the group, gradient buckets, train steps.
_N_LEARNERS = 3
_N_BUCKETS = 2
_N_STEPS = 4


@dataclass(frozen=True)
class SDCChaosPoint:
    """One scripted flip: which rank, which bucket, which iteration."""

    rank: int
    bucket: int
    iteration: int

    @property
    def group(self) -> str:
        return self.label()

    def label(self) -> str:
        return (
            f"sdc rank={self.rank} bucket={self.bucket} "
            f"iteration={self.iteration}"
        )


def sdc_trainer(**overrides) -> DistributedSGDTrainer:
    """The sweep's training job: the tiny job with its group geometry,
    data drawn from seed 0 and initial weights from seed 11.  The SDC
    audit is off unless ``sdc_buckets`` is passed."""
    defaults = dict(seed=11, reshuffle_on_shrink=False)
    return build_tiny_trainer(_N_LEARNERS, 0, **(defaults | overrides))


def _scripted_reference(rank: int, iteration: int) -> np.ndarray:
    """Final params of a fault-free run that sheds ``rank`` at
    ``iteration`` as a controlled shrink (the repair target)."""
    trainer = sdc_trainer()
    with trainer:
        for it in range(_N_STEPS):
            grads, losses = trainer.step_compute()
            if it == iteration:
                del grads[rank]
                trainer.absorb_failure(rank, reshuffle=False)
            summed, n = trainer.reduce(grads)
            trainer.step_apply(summed, n, losses)
        return trainer.params()


def _clean_run(refs: References, audit: bool) -> tuple[np.ndarray, list]:
    """Fault-free run with the audit on or off: final params, step results."""

    def run() -> tuple[np.ndarray, list]:
        buckets = _N_BUCKETS if audit else None
        with sdc_trainer(sdc_buckets=buckets) as trainer:
            results = [trainer.step() for _ in range(_N_STEPS)]
            return trainer.params(), results

    return refs.get(("clean", audit), run)


def run_sdc_point(
    point: SDCChaosPoint, refs: References | None = None
) -> ChaosOutcome:
    """Run one scripted flip and check the five defense invariants."""
    refs = refs if refs is not None else References()
    violations: list[str] = []
    plan = FaultPlan([
        sdc_flip(point.rank, point.iteration, bucket=point.bucket)
    ])
    trainer = sdc_trainer(fault_plan=plan, sdc_buckets=_N_BUCKETS)
    with trainer:
        results = [trainer.step() for _ in range(_N_STEPS)]
        injected = [e for e in trainer.fault_log if e.kind == "sdc"]
        detected = [e for e in trainer.fault_log if e.kind == "sdc-detect"]
        if len(injected) != 1 or injected[0].rank != point.rank:
            violations.append(
                f"expected one sdc injection against rank {point.rank}, "
                f"got {[str(e) for e in injected]}"
            )
        if len(detected) != 1:
            violations.append(
                f"expected one sdc-detect, got "
                f"{[str(e) for e in detected]} — a flip reached the "
                f"optimizer undetected"
            )
        elif detected[0].rank != point.rank:
            violations.append(
                f"detection named rank {detected[0].rank}, "
                f"injected rank {point.rank}"
            )
        hit = results[point.iteration]
        if hit.quarantined != (point.rank,):
            violations.append(
                f"step {point.iteration} quarantined {hit.quarantined}, "
                f"expected learner {point.rank}"
            )
        if trainer.n_learners != _N_LEARNERS - 1:
            violations.append(
                f"{trainer.n_learners} survivors, expected "
                f"{_N_LEARNERS - 1}"
            )
        for r in results:
            if r.iteration - 1 > point.iteration and r.quarantined:
                violations.append(
                    f"step {r.iteration - 1} quarantined {r.quarantined} "
                    f"with no fault scripted there"
                )
        try:
            trainer.check_synchronized()
        except AssertionError as exc:
            violations.append(f"survivors desynchronized: {exc}")
        ref = refs.get(
            ("shrink", point.rank, point.iteration),
            lambda: _scripted_reference(point.rank, point.iteration),
        )
        if not np.array_equal(trainer.params(), ref):
            violations.append(
                "final params diverge from the controlled-shrink "
                "reference — the poisoned iteration left numeric residue"
            )
    _params, clean = _clean_run(refs, False)
    return ChaosOutcome(
        point, violations, fired=bool(injected),
        makespan=sum(r.sim_time for r in results),
        ref_makespan=sum(r.sim_time for r in clean),
    )


def _clean_path_violations(refs: References) -> list[str]:
    """Fault-free runs with detection on vs off: params and simulated
    time must both be bit-identical (zero-sim-event bookkeeping)."""
    (params_off, off), (params_on, on) = (
        _clean_run(refs, audit) for audit in (False, True)
    )
    if np.array_equal(params_off, params_on) and (
        [r.sim_time for r in off] == [r.sim_time for r in on]
    ):
        return []
    return ["fingerprinting PERTURBED the clean run (params or sim time)"]


def sdc_chaos_points(*, smoke: bool = False) -> list[SDCChaosPoint]:
    """The sweep grid: every rank x bucket x a spread of iterations
    (smoke: corner ranks and buckets at one mid-run iteration)."""
    if smoke:
        return [
            SDCChaosPoint(rank, bucket, 1)
            for rank in (0, _N_LEARNERS - 1)
            for bucket in (0, _N_BUCKETS - 1)
        ]
    iterations = sorted({0, 1, _N_STEPS - 1})
    return [
        SDCChaosPoint(rank, bucket, iteration)
        for rank in range(_N_LEARNERS)
        for bucket in range(_N_BUCKETS)
        for iteration in iterations
    ]


def sdc_chaos_sweep(
    *, smoke: bool = False, max_points: int | None = None
) -> ChaosReport:
    """Run every scripted-flip point plus the clean-path equivalence."""
    points = subsample(sdc_chaos_points(smoke=smoke), max_points)
    return sweep("sdc", lambda refs: points, run_sdc_point, _clean_path_violations)
