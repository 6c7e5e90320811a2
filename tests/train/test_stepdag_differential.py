"""The once-per-schedule analyses and the direct splice against their
recomputing references.

Every registered allreduce compiler and the bucketed step compiler must
give the same steps, lint summary, message pairs, canonical order and
resource bounds as ``tests/mpi/analysis_reference.py`` and
``tests/train/stepdag_reference.py``; every mutant of
``tests/mpi/mutation.py`` and every corrupted schedule must pass or fail
the lint alike, with the same first-violation text.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ALLREDUCE_COMPILERS
from repro.mpi import schedule as schedule_module
from repro.mpi.schedule import ScheduleBuilder, ScheduleError, validate_schedule
from repro.mpi.verify import analyze_bounds
from repro.mpi.verify.hb import HBGraph
from repro.train.stepdag import compile_bucketed_step

from tests.mpi import mutation
from tests.mpi.analysis_reference import (
    ReferenceHBGraph,
    reference_analyze_bounds,
    reference_validate_schedule,
)
from tests.train.stepdag_reference import reference_compile_bucketed_step

ALGORITHMS = sorted(ALLREDUCE_COMPILERS)


def lint_outcome(lint, schedule):
    try:
        return ("ok", lint(schedule))
    except ScheduleError as exc:
        return ("error", str(exc))


def assert_same_analysis(schedule):
    """Lint, pairs, order, graph and bounds equal the references'."""
    assert validate_schedule(schedule) == reference_validate_schedule(schedule)
    hb, ref = HBGraph(schedule), ReferenceHBGraph(schedule)
    assert list(hb.message_pairs) == ref.message_pairs
    assert list(hb.order) == ref.order
    assert hb.position == ref.position
    assert hb.succs == ref.succs
    assert hb.channels == ref.channels
    assert hb.recv_to_send == ref.recv_to_send
    assert hb.send_to_recv == ref.send_to_recv
    want = reference_analyze_bounds(schedule, ref)
    assert analyze_bounds(schedule) == want
    assert analyze_bounds(schedule, hb) == want


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    n_ranks=st.integers(1, 6),
    count=st.integers(1, 3000),
    segment_bytes=st.sampled_from([None, 256, 4096]),
)
def test_registered_compilers_analyse_as_the_reference(algorithm, n_ranks, count, segment_bytes):
    kwargs = {} if segment_bytes is None else {"segment_bytes": segment_bytes}
    assert_same_analysis(ALLREDUCE_COMPILERS[algorithm](n_ranks, count, 4, **kwargs))


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    n_ranks=st.integers(1, 6),
    count=st.integers(1, 3000),
    n_buckets=st.integers(1, 5),
    memory=st.sampled_from(["data", "staged"]),
    audit=st.booleans(),
    serialize=st.booleans(),
    itemsize=st.sampled_from([2, 4]),
    segment_bytes=st.sampled_from([None, 512]),
)
def test_bucketed_steps_splice_and_analyse_as_the_reference(
    algorithm, n_ranks, count, n_buckets, memory, audit, serialize, itemsize, segment_bytes,
):
    kwargs = dict(
        forward_time=1e-3, backward_time=2e-3, optim_time=1e-4, n_buckets=n_buckets,
        algorithm=algorithm, segment_bytes=segment_bytes, serialize_buckets=serialize,
        memory=memory, audit=audit, audit_time=3e-5,
    )
    schedule = compile_bucketed_step(n_ranks, count, itemsize, **kwargs)
    reference = reference_compile_bucketed_step(n_ranks, count, itemsize, **kwargs)
    assert schedule == reference
    assert schedule.steps == reference.steps
    assert_same_analysis(schedule)


def _baselines():
    for name in ALGORITHMS:
        yield ALLREDUCE_COMPILERS[name](4, 29, 8)
    yield compile_bucketed_step(
        3, 64, 4, forward_time=1e-3, backward_time=2e-3, optim_time=1e-4,
        n_buckets=2, algorithm="ring", memory="staged", audit=True,
    )


def test_mutants_lint_and_analyse_as_the_reference():
    n_mutants = n_failed = 0
    for baseline in _baselines():
        for mutate in mutation.MUTATORS.values():
            for mutant in mutate(baseline, 3):
                schedule = mutant.schedule
                n_mutants += 1
                outcome = lint_outcome(validate_schedule, schedule)
                assert outcome == lint_outcome(reference_validate_schedule, schedule), (
                    mutant.description
                )
                if outcome[0] == "ok":
                    assert_same_analysis(schedule)
                else:
                    n_failed += 1
    assert n_mutants > 100
    assert n_failed > 0  # some mutants do reach the lint's error paths


def _corrupt(data, schedule):
    """Up to four random field edits that may break any lint rule.  Edits
    favour one step, so that one step often breaks several rules."""
    steps = list(schedule.steps)
    any_sid = st.integers(0, len(steps) - 1)
    hot = data.draw(any_sid)
    for _ in range(data.draw(st.integers(1, 4))):
        sid = data.draw(st.one_of(st.just(hot), any_sid))
        step = steps[sid]
        edits = {
            "sid": st.integers(-1, len(steps)),
            "rank": st.integers(-1, schedule.n_ranks),
            "deps": st.lists(st.integers(-1, len(steps)), max_size=3).map(tuple),
            "lo": st.integers(-2, schedule.count + 2),
            "hi": st.integers(-2, schedule.count + 2),
        }
        if hasattr(step, "dst"):
            edits["dst"] = st.integers(-1, schedule.n_ranks)
        if hasattr(step, "src"):
            edits["src"] = st.integers(-1, schedule.n_ranks)
        if hasattr(step, "key"):
            edits["key"] = st.sampled_from([None, 0, 1, ("x", 0)])
        if hasattr(step, "seconds"):
            edits["seconds"] = st.sampled_from([-1.0, 0.0, 2e-3])
        field = data.draw(st.sampled_from(sorted(edits)))
        steps[sid] = dataclasses.replace(step, **{field: data.draw(edits[field])})
    return dataclasses.replace(schedule, steps=tuple(steps))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), algorithm=st.sampled_from(ALGORITHMS), staged=st.booleans())
def test_corrupted_schedules_fail_with_the_reference_text(data, algorithm, staged):
    if staged:
        base = compile_bucketed_step(
            3, 40, 4, forward_time=1e-3, backward_time=2e-3, optim_time=1e-4,
            n_buckets=2, algorithm=algorithm, memory="staged",
        )
    else:
        base = ALLREDUCE_COMPILERS[algorithm](3, 40, 4)
    schedule = _corrupt(data, base)
    outcome = lint_outcome(validate_schedule, schedule)
    assert outcome == lint_outcome(reference_validate_schedule, schedule)
    # An invalid schedule raises again: nothing of the failure is cached.
    assert lint_outcome(validate_schedule, schedule) == outcome


def test_one_step_breaking_every_rule_reports_as_the_reference():
    # Peel the violations off one at a time: each lint must name the
    # same first one, in the same words.
    b = ScheduleBuilder(2, count=8)
    b.compute(0, 1e-3)
    b.send(1, 0, "k", 0, 4)
    b.recv_reduce(0, 1, "k", 0, 4, deps=0)
    b.optim(0, 1e-3, 0, 8, deps=2)
    base = b.build()
    broken = dataclasses.replace(base.steps[3], sid=7, rank=5, deps=(9,), seconds=-1.0, lo=6, hi=2)
    fixes = [
        {"sid": 3}, {"rank": 0}, {"deps": (1,)}, {"deps": (2,)},
        {"seconds": 1e-3}, {"hi": 9}, {"lo": 0, "hi": 8},
    ]
    for fix in fixes:
        schedule = dataclasses.replace(base, steps=base.steps[:3] + (broken,))
        outcome = lint_outcome(validate_schedule, schedule)
        assert outcome[0] == "error"
        assert outcome == lint_outcome(reference_validate_schedule, schedule)
        broken = dataclasses.replace(broken, **fix)
    fixed = dataclasses.replace(base, steps=base.steps[:3] + (broken,))
    assert validate_schedule(fixed) == reference_validate_schedule(fixed)


def test_mutation_harness_pairs_with_the_lints_pairing():
    schedule = ALLREDUCE_COMPILERS["rsag"](4, 29, 8)
    assert mutation._message_edges is schedule_module._message_edges
    assert tuple(mutation._message_edges(schedule)) == HBGraph(schedule).message_pairs


def test_equal_but_distinct_schedules_are_analysed_independently():
    a = ALLREDUCE_COMPILERS["ring"](3, 50, 4)
    b = dataclasses.replace(a)
    assert a == b and a is not b
    validate_schedule(a)
    HBGraph(a)
    assert "_lint_summary" in vars(a)
    assert not {"_lint_summary", "_message_pairs", "_canonical_order"} & set(vars(b))
    assert validate_schedule(b) == validate_schedule(a)
    assert HBGraph(b).message_pairs is not HBGraph(a).message_pairs


def test_lint_summary_copies_do_not_share_the_cache():
    schedule = ALLREDUCE_COMPILERS["ring"](3, 50, 4)
    first = validate_schedule(schedule)
    first["sends_per_rank"].append(99)
    first["step_counts"].clear()
    assert validate_schedule(schedule) == reference_validate_schedule(schedule)


def test_invalid_schedule_raises_on_every_call():
    b = ScheduleBuilder(2, count=8)
    b.send(0, 1, "k", 0, 4)
    unmatched = b.build()
    for _ in range(3):
        with pytest.raises(ScheduleError, match="matching receive"):
            validate_schedule(unmatched)
        with pytest.raises(ScheduleError, match="matching receive"):
            HBGraph(unmatched)
    assert not {"_lint_summary", "_message_pairs", "_canonical_order"} & set(vars(unmatched))

    b = ScheduleBuilder(2, count=8)
    b.recv_reduce(0, 1, "a", 0, 4)
    b.send(0, 1, "b", 0, 4, deps=0)
    b.recv_reduce(1, 0, "b", 0, 4)
    b.send(1, 0, "a", 0, 4, deps=2)
    cyclic = b.build()
    for _ in range(3):
        with pytest.raises(ScheduleError, match="cycle involving steps"):
            validate_schedule(cyclic)
        with pytest.raises(ScheduleError, match="cycle involving steps"):
            HBGraph(cyclic)
    assert not {"_lint_summary", "_canonical_order"} & set(vars(cyclic))
