"""Stall diagnoses from the timed run records against the earlier bookkeeping.

Hypothesis draws a schedule and a progress state — each step not started,
in flight or finished, at drawn times — and a diagnosis time, feeds the same
state to :class:`~repro.mpi.schedule.ExecutionProgress` and to the earlier
version kept in ``diagnosis_reference``, and requires equal
:class:`~repro.mpi.schedule.FailureDiagnosis` results (fields and ``str``).
The shuffle diagnoser gets the same treatment over drawn sequences of
sends, blocked receives, completed receives and finished ranks.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.guard import diagnose_shuffle
from repro.data.shuffle import ShuffleProgress
from repro.mpi.schedule import (
    ExecutionProgress,
    ScheduleBuilder,
    SendStep,
    diagnose_execution,
)

from tests.mpi import diagnosis_reference as ref
from tests.mpi.test_strand_differential import KINDS, compile_case

#: Few distinct times, so drawn states have ties and both signs of overdue.
TIMES = [0.0, 1e-6, 1e-4, 1e-3, 5e-3, 0.02, 1.0]


def assert_same_diagnosis(new, old):
    assert new == old
    assert str(new) == str(old)


@st.composite
def execution_states(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 5))
    # Large payloads give receives deadlines of milliseconds that differ
    # from step to step, so some blocked receives are overdue and some not.
    count = draw(st.sampled_from([1, 37, 200, 300_000]))
    schedule, _contract = compile_case(kind, n, count, 256, 2)
    # Without posted sends every stall goes down the blocked-receive chain.
    send_status = st.sampled_from(
        ["idle", "flight", "done"] if draw(st.booleans()) else ["idle"]
    )
    status = st.sampled_from(["idle", "flight", "done"])
    events = []  # (time, order, is_finish, step)
    for step in schedule.steps:
        what = draw(send_status if isinstance(step, SendStep) else status)
        if what == "idle":
            continue
        begin = draw(st.sampled_from(TIMES))
        events.append((begin, step.sid, False, step))
        if what == "done":
            end = begin + draw(st.sampled_from([0.0, 1e-6, 0.5]))
            events.append((end, step.sid, True, step))
    events.sort(key=lambda e: (e[0], e[2], e[1]))
    latest = events[-1][0] if events else 0.0
    now = latest + draw(st.sampled_from([0.0, 1e-5, 1e-3, 2.0]))
    knobs = draw(st.fixed_dictionaries({
        "grace": st.sampled_from([None, 0.5, 4.0]),
        "slack": st.sampled_from([None, 0.0]),
    }))
    return schedule, events, now, knobs


def oldest_receive_inside_its_deadline():
    """Rank 0's large receive has waited longest but is not overdue yet;
    rank 2's small one is, so the search starts from rank 2's receive."""
    count = 300_000
    b = ScheduleBuilder(3, name="overdue split", count=count, itemsize=8)
    b.send(1, 0, "big", 0, count)
    b.send(1, 2, "small", 0, 1)
    big = b.recv_reduce(0, 1, "big", 0, count)
    small = b.recv_reduce(2, 1, "small", 0, 1)
    schedule = b.build(validate=True)
    events = [
        (0.0, big, False, schedule.steps[big]),
        (1e-3, small, False, schedule.steps[small]),
    ]
    return schedule, events, 5e-3, {"grace": None, "slack": None}


@settings(max_examples=200, deadline=None)
@given(execution_states())
@example(oldest_receive_inside_its_deadline())
def test_execution_diagnosis_matches_the_earlier_bookkeeping(state):
    schedule, events, now, knobs = state
    new = ExecutionProgress(schedule)
    old = ref.ExecutionProgress(schedule)
    for t, _sid, is_finish, step in events:
        (new.end if is_finish else new.start)[step.sid] = t
        (old.finish if is_finish else old.begin)(step, t)
    assert_same_diagnosis(
        diagnose_execution(schedule, new, now, **knobs),
        ref.diagnose_execution(schedule, old, now, **knobs),
    )


@st.composite
def shuffle_states(draw):
    n = draw(st.integers(1, 5))
    rank = st.integers(0, n - 1)
    # Keys name a sender and a receiver, as the shuffle's wire keys do.
    key = st.tuples(st.sampled_from(["a2a", "shg"]), rank, rank)
    op = st.one_of(
        st.tuples(st.just("sent"), rank, key),
        st.tuples(st.just("begin_recv"), rank, rank, key),
        st.tuples(st.just("end_recv"), rank),
        st.tuples(st.just("finish"), rank),
    )
    ops = draw(st.lists(op, max_size=20))
    times = sorted(draw(st.lists(st.sampled_from(TIMES), min_size=len(ops), max_size=len(ops))))
    now = (times[-1] if times else 0.0) + draw(st.sampled_from([0.0, 1e-5, 2.0]))
    return n, list(zip(times, ops)), now


@settings(max_examples=300, deadline=None)
@given(shuffle_states())
def test_shuffle_diagnosis_matches_the_earlier_bookkeeping(state):
    n, ops, now = state
    new = ShuffleProgress(n)
    old = ref.ShuffleProgress(n)
    for t, (name, *args) in ops:
        if name == "sent":
            rank, key = args
            new.sent(rank, key, t)
            old.sent(rank, key[2], key)
        elif name == "begin_recv":
            rank, src, key = args
            new.begin_recv(rank, src, key, t)
            old.begin_recv(rank, src, key, t)
        elif name == "end_recv":
            new.end_recv(args[0], t)
            old.end_recv(args[0], t)
        else:
            new.finish(args[0])
            old.finish(args[0], t)
    assert new.steps_done == old.steps_done
    assert_same_diagnosis(diagnose_shuffle(new, now), ref.diagnose_shuffle(old, now))
