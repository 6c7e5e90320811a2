"""Mutation self-test: the verifier must kill what the executor miscomputes.

The smoke slice (one compiler per structural family) runs in tier 1;
the full eight-compiler sweep is ``slow``-marked for CI's dedicated
schedule-verify step.
"""

import pytest

from repro.mpi.collectives import ALLREDUCE_COMPILERS, ALLREDUCE_FAMILIES
from repro.mpi.verify import allreduce_contract, verify_schedule

from tests.mpi.mutation import (
    MUTATORS,
    _execute_allreduce,
    _execute_train_step,
    run_mutation_suite,
    run_step_mutation_suite,
)

SMOKE = sorted(family[0] for family in ALLREDUCE_FAMILIES.values())

#: Operators that need ComputeStep/OptimStep sites — they cannot fire on
#: a pure-communication allreduce schedule.
COMPUTE_OPS = {"drop-optim-dep", "swap-compute-comm"}


def _assert_no_escapes(result):
    escaped = result.by_class("escaped")
    assert result.kill_rate >= 0.95, result.format()
    assert not escaped, result.format()


def test_mutation_smoke_slice_kills_all_harmful_mutants():
    result = run_mutation_suite(
        {name: ALLREDUCE_COMPILERS[name] for name in SMOKE}
    )
    assert result.records, "no mutants generated"
    _assert_no_escapes(result)
    # Every communication operator fired on at least one algorithm (the
    # compute-aware ones have no sites in a pure allreduce schedule).
    assert {r.operator for r in result.records} == set(MUTATORS) - COMPUTE_OPS


@pytest.mark.slow
def test_mutation_full_sweep_kills_all_harmful_mutants():
    result = run_mutation_suite(ALLREDUCE_COMPILERS, per_op=3)
    _assert_no_escapes(result)


def test_mutants_are_valid_schedule_objects():
    # Surgery must renumber sids densely and keep deps backward same-rank
    # references; the verifier's lint pass would reject anything else as
    # "lint-error" — the deeper passes, not the lint, should do the work.
    baseline = ALLREDUCE_COMPILERS["rsag"](4, 29, 8)
    lint_only = 0
    total = 0
    for mutate in MUTATORS.values():
        for mutant in mutate(baseline, 2):
            total += 1
            report = verify_schedule(
                mutant.schedule, allreduce_contract(4, 29)
            )
            if report.issues_by_pass("lint"):
                lint_only += 1
    assert total > 0
    assert lint_only == 0, "mutants should survive the structural lint"


def test_dynamic_oracle_judges_the_baseline_correct():
    sched = ALLREDUCE_COMPILERS["ring"](4, 29, 8, segment_bytes=64)
    assert _execute_allreduce(sched, 4, 29) == "correct"


# -- unified training-step DAG mutations --------------------------------------

def test_step_mutation_suite_kills_all_harmful_mutants():
    result = run_step_mutation_suite()
    assert result.records, "no mutants generated"
    _assert_no_escapes(result)
    # On a step DAG every operator has sites, including the compute ones.
    assert {r.operator for r in result.records} == set(MUTATORS)


def test_compute_mutants_are_killed_statically():
    """The two overlap bugs the step DAG exists to rule out.

    Un-gating an optimizer from its bucket's reduce and swapping a
    chained compute/comm pair: every harmful mutant (executor
    miscomputes) must be *killed* (verifier flags it too), and each
    operator must produce at least one harmful mutant per algorithm —
    genuinely behavior-preserving swap sites (e.g. optimizer moved ahead
    of the final broadcast send of an already-reduced segment) may be
    benign, but none may escape.
    """
    result = run_step_mutation_suite(per_op=4)
    for op in COMPUTE_OPS:
        records = [r for r in result.records if r.operator == op]
        assert records, f"{op} produced no mutants"
        for algorithm in {r.algorithm for r in records}:
            harmful = [
                r for r in records if r.algorithm == algorithm and r.harmful
            ]
            assert harmful, f"{op} produced no harmful mutants on {algorithm}"
            for r in harmful:
                assert r.classification == "killed", (
                    f"{r.algorithm}/{r.operator}: {r.description} — "
                    f"dynamic={r.dynamic}, static={r.static_kinds}"
                )


def test_step_dynamic_oracle_judges_the_baseline_correct():
    from repro.train.stepdag import compile_bucketed_step

    sched = compile_bucketed_step(
        4, 29, 8, forward_time=1e-9, backward_time=2e-9, optim_time=1e-9,
        n_buckets=3, algorithm="ring", memory="staged",
    )
    assert _execute_train_step(sched, 4, 29) == "correct"


@pytest.mark.slow
def test_step_mutation_full_sweep_kills_all_harmful_mutants():
    result = run_step_mutation_suite(
        tuple(sorted(ALLREDUCE_COMPILERS)), per_op=3
    )
    _assert_no_escapes(result)
    compute_harmful = [
        r for r in result.records if r.operator in COMPUTE_OPS and r.harmful
    ]
    assert compute_harmful, "compute operators produced no harmful mutants"
    assert all(r.caught for r in compute_harmful), result.format()
