"""Static verification of Schedule IR programs (DESIGN.md §4g).

``validate_schedule`` (PR 2) lints *structure*: acyclicity, send/recv
matching, range bounds.  This package proves *meaning*.  Four passes run
over one :class:`~repro.mpi.verify.hb.HBGraph`:

1. **determinism** — the runtime's per-channel FIFO matching is forced
   to equal the lint's sid-order pairing (no ambiguous eager sends);
2. **race** — no unordered conflicting same-rank accesses;
3. **semantic** — abstract interpretation over rank-contribution
   multisets proves the collective's postcondition contract (sound for
   every execution order *because* passes 1–2 are clean);
4. **bounds** — alpha-beta critical-path lower bound and peak in-flight
   bytes, cross-checkable against the Fig. 5 goldens.

Entry point: :func:`verify_schedule`, returning one
:class:`~repro.mpi.verify.report.VerificationReport`.  The CLI sweep
(:mod:`repro.mpi.verify.sweep`) is loaded lazily so importing the
verifier core never drags in compiler or chaos machinery.  The mutation
self-test that grades these passes against the executor lives with the
tests (``tests/mpi/mutation.py``).
"""

from __future__ import annotations

import time

from repro.mpi.analytic import AlphaBetaModel
from repro.mpi.schedule import Schedule, ScheduleError, validate_schedule
from repro.mpi.verify.bounds import ResourceBounds, analyze_bounds, check_bounds
from repro.mpi.verify.contracts import (
    Contract,
    allreduce_contract,
    alltoallv_contract,
    barrier_contract,
    broadcast_contract,
    reduce_contract,
    train_step_contract,
)
from repro.mpi.verify.determinism import check_match_determinism
from repro.mpi.verify.hb import HBGraph
from repro.mpi.verify.races import find_races
from repro.mpi.verify.report import Issue, VerificationReport
from repro.mpi.verify.semantics import interpret_schedule

__all__ = [
    "Contract",
    "HBGraph",
    "Issue",
    "ResourceBounds",
    "VerificationReport",
    "allreduce_contract",
    "alltoallv_contract",
    "analyze_bounds",
    "barrier_contract",
    "broadcast_contract",
    "check_bounds",
    "check_match_determinism",
    "find_races",
    "interpret_schedule",
    "reduce_contract",
    "train_step_contract",
    "verify_schedule",
]

#: Attributes resolved lazily from the sweep (it imports the compiler
#: registry / golden tables, which the verifier core must not).
_LAZY = {
    "run_sweep": "repro.mpi.verify.sweep",
    "sweep_cases": "repro.mpi.verify.sweep",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def verify_schedule(
    schedule: Schedule,
    contract: Contract | None = None,
    *,
    model: AlphaBetaModel | None = None,
    max_in_flight_bytes: int | None = None,
    golden_elapsed_s: float | None = None,
) -> VerificationReport:
    """Run every static pass over one schedule and aggregate the findings.

    Without a ``contract`` the semantic pass is skipped (structure,
    determinism, races and bounds are still checked) — that is how
    auxiliary token-only schedules like barriers are verified.
    """
    t0 = time.perf_counter()
    report = VerificationReport(
        schedule_name=schedule.name,
        n_ranks=schedule.n_ranks,
        n_steps=len(schedule.steps),
        contract=contract.name if contract is not None else None,
    )
    report.lint_summary = schedule.step_counts()

    try:
        validate_schedule(schedule)
        hb = HBGraph(schedule)
    except ScheduleError as exc:
        report.issues.append(
            Issue(pass_name="lint", kind="lint-error", message=str(exc))
        )
        report.wall_time_s = time.perf_counter() - t0
        return report

    report.issues.extend(check_match_determinism(schedule, hb))
    report.issues.extend(find_races(schedule, hb))
    if contract is not None:
        if contract.n_ranks != schedule.n_ranks:
            report.issues.append(Issue(
                pass_name="semantic", kind="contract-mismatch",
                message=(
                    f"contract is for {contract.n_ranks} ranks but the "
                    f"schedule has {schedule.n_ranks}"
                ),
            ))
        else:
            report.issues.extend(interpret_schedule(schedule, contract, hb=hb).issues)
    report.resources = analyze_bounds(schedule, hb, model=model)
    report.issues.extend(check_bounds(
        report.resources,
        max_in_flight_bytes=max_in_flight_bytes,
        golden_elapsed_s=golden_elapsed_s,
        schedule_name=schedule.name,
    ))
    report.wall_time_s = time.perf_counter() - t0
    return report
