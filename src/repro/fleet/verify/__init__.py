"""Bounded model checking of the fleet control plane.

An explicit-state explorer over abstract control-plane events (arrival,
iteration boundaries, kills, revives, drains, SDC strikes, preemption,
grow grants) that runs the runtime scheduler's own control core,
:mod:`repro.fleet.control`, and through it the shared decisions of
:mod:`repro.fleet.policy`.
Eight invariants — the slot ledger, grant lifecycle, gang atomicity,
lineage replayability, drain hygiene and requeue budgets — are checked
at every reachable state up to a configurable bound; breaches come back
as minimal event traces replayable through the real scheduler via
:mod:`repro.fleet.verify.replay`.  The checker's own mutation battery
(surgical scheduler bugs it must kill statically) lives with the tests,
``tests/fleet/mutation.py``.

Entry points: ``repro verify --fleet`` on the CLI,
:func:`verify_fleet` + :func:`smoke_bounds` / :func:`sweep_bounds` from
code.
"""

from repro.fleet.control import Violation
from repro.fleet.verify.explore import (
    Bounds,
    Counterexample,
    Event,
    FleetVerifyResult,
    ModelJobSpec,
    apply_event,
    enabled_events,
    initial_state,
    smoke_bounds,
    sweep_bounds,
    verify_fleet,
)
from repro.fleet.verify.invariants import INVARIANTS, check_invariants
from repro.fleet.verify.replay import ReplayResult, replay_trace, trace_specs

__all__ = [
    "Bounds",
    "Counterexample",
    "Event",
    "FleetVerifyResult",
    "INVARIANTS",
    "ModelJobSpec",
    "ReplayResult",
    "Violation",
    "apply_event",
    "check_invariants",
    "enabled_events",
    "initial_state",
    "replay_trace",
    "smoke_bounds",
    "sweep_bounds",
    "trace_specs",
    "verify_fleet",
]
