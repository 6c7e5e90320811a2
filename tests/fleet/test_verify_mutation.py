"""Mutation self-test: every seeded control-plane bug dies statically."""

from repro.fleet import control, policy
from repro.fleet.verify import replay_trace, verify_fleet
from repro.fleet.verify.invariants import INVARIANTS

from tests.fleet.mutation import (
    FLEET_MUTANTS,
    _patched,
    clean_hunt_bounds,
    hunt,
    run_fleet_mutation_suite,
)


def test_clean_model_proves_under_every_hunt_bound():
    # A kill is only attributable to the mutation if the unmutated model
    # proves clean under the same bound.
    for name, bounds in clean_hunt_bounds().items():
        result = verify_fleet(bounds, max_states=500_000)
        assert result.ok, f"hunt bound {name!r} unsound:\n{result.format()}"


def test_every_mutant_is_killed():
    result = run_fleet_mutation_suite()
    assert result.kill_rate == 1.0, result.format()
    assert not result.escaped
    assert len(result.records) >= 10


def test_mutants_exercise_every_invariant():
    # Each of the eight invariants must be the one that kills at least
    # one mutant — otherwise an invariant could silently rot.
    result = run_fleet_mutation_suite()
    assert result.invariants_exercised == set(INVARIANTS), result.format()


def test_killing_traces_are_short():
    # BFS minimality: every seeded bug is surfaced within a handful of
    # events, so counterexamples stay human-readable.
    result = run_fleet_mutation_suite()
    for record in result.records:
        assert record.killed
        assert record.trace_len <= 6, (
            f"{record.operator}: trace of {record.trace_len}"
        )


def test_mutant_patching_reaches_every_seam_and_restores():
    # Policy mutants are rebound wherever the name is bound — the policy
    # module and the control core that the runtime scheduler and the
    # checker both call — and undone afterwards.
    mutant = next(m for m in FLEET_MUTANTS if m.operator == "grow-overcommit")
    original = policy.wants_grow
    assert control.wants_grow is original
    with _patched(mutant):
        assert policy.wants_grow is not original
        assert control.wants_grow is policy.wants_grow
    assert policy.wants_grow is original
    assert control.wants_grow is original
    # Plumbing mutants patch that one core too, so each reaches the
    # runtime: its killing trace, replayed through the real scheduler,
    # fails the runtime audit (a breach, a leak or a SimulationError) —
    # and passes it unmutated.
    for operator in ("revoke-leaks-slot", "double-free-slot"):
        mutant = next(m for m in FLEET_MUTANTS if m.operator == operator)
        outcome = hunt(mutant)
        assert outcome is not None and outcome.counterexample is not None
        trace = outcome.counterexample.trace
        with _patched(mutant):
            replay = replay_trace(mutant.bounds, trace)
        assert not replay.ok, f"{operator} never reached the runtime"
        assert replay_trace(mutant.bounds, trace).ok
