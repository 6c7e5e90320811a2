"""Unit tests for the shared guard core with a scripted fake attempt.

The fake needs no engine or fabric: a stand-in clock hands the guard its
deadline/gate events, and the test plays each attempt's scripted outcome
into the generator (``send`` for a completion or a watchdog stall,
``throw`` for an interrupt).
"""

import math

import pytest

from repro.mpi.guard import (
    Attempt,
    CollectiveTelemetry,
    CollectiveTimeout,
    RankFailure,
    RetryPolicy,
    guard,
)
from repro.sim.engine import Interrupt


class FakeEvent:
    def __init__(self, clock, delay=None):
        self.engine = clock
        self.delay = delay
        self.triggered = False
        self.defused = False

    def defuse(self):
        self.defused = True


class FakeClock:
    """Just enough of an engine for the guard: a clock and event factories."""

    def __init__(self):
        self.now = 0.0
        self.gate = None

    def timeout(self, delay):
        return FakeEvent(self, delay)

    def any_of(self, events):
        self.gate = FakeEvent(self)
        return self.gate


class Preempted(Exception):
    pass


class Corrupted(Exception):
    pass


class ScriptedAttempt(Attempt):
    """Each launch pops one outcome: ``"ok"``, ``"stall"``, ``"corrupt"``,
    ``("crash", rank)`` or ``"preempt"``."""

    def __init__(self, script, *, size=4, victims=(), sleeps=False):
        super().__init__(iteration=7)
        self.script = list(script)
        self.ranks = list(range(size))
        self.victims = list(victims)
        self.sleeps_backoff = sleeps
        self.clock = FakeClock()
        self.log = []

    @property
    def size(self):
        return len(self.ranks)

    def next_victim(self):
        return self.victims.pop(0) if self.victims else None

    def drop(self, rank):
        self.log.append(("drop", self.ranks.pop(rank)))

    def solo(self):
        self.log.append("solo")
        return list(self.ranks)

    def launch(self):
        self.outcome = self.script.pop(0)
        self.done = FakeEvent(self.clock)
        self.log.append("launch")
        return self.done

    def diagnose(self, failure):
        if failure is None:
            return f"stall #{self.log.count('launch')}"
        if isinstance(failure, Corrupted):
            return f"corruption #{self.log.count('launch')}"
        return None

    def rollback(self):
        self.log.append("rollback")

    def commit(self):
        self.log.append("commit")
        return list(self.ranks)


def play(attempt, retry, telemetry=None):
    """Drive the guard through ``attempt``'s script; returns (result, telemetry).

    Completions take 1 s, stalls one watchdog window, crashes 0.5 s.
    """
    telemetry = telemetry if telemetry is not None else CollectiveTelemetry()
    steps = guard(attempt, retry, telemetry)
    clock = attempt.clock
    try:
        event = next(steps)
        while True:
            if event is not clock.gate:  # a slept backoff
                clock.now += event.delay
                event = steps.send(None)
                continue
            assert event.defused  # pre-defused: safe to abandon
            outcome = attempt.outcome
            if outcome == "ok":
                clock.now += 1.0
                attempt.done.triggered = True
                event = steps.send(None)
            elif outcome == "stall":
                clock.now += retry.timeout
                event = steps.send(None)
            elif outcome == "corrupt":
                clock.now += 0.25
                event = steps.throw(Corrupted("bad crc"))
            elif outcome == "preempt":
                event = steps.throw(Interrupt(Preempted()))
            else:
                _, rank = outcome
                clock.now += 0.5
                event = steps.throw(Interrupt(RankFailure(rank)))
    except StopIteration as stop:
        return stop.value, telemetry


def test_stall_stall_success_retries_with_geometric_backoff():
    attempt = ScriptedAttempt(["stall", "stall", "ok"])
    retry = RetryPolicy(timeout=2.0, max_retries=3, backoff=0.5)
    result, telemetry = play(attempt, retry)
    assert result == [0, 1, 2, 3]
    assert telemetry.retries == len(telemetry.diagnoses) == 2
    assert telemetry.diagnoses == ["stall #1", "stall #2"]
    assert telemetry.backoff == pytest.approx(0.5 + 1.0)
    # Two watchdog windows, the successful attempt, and the backoff.
    assert telemetry.sim_time == pytest.approx(2.0 + 2.0 + 1.0 + 1.5)
    assert attempt.log == [
        "launch", "rollback", "launch", "rollback", "launch", "commit",
    ]


def test_rank_failure_is_repaired_without_charging_retries():
    attempt = ScriptedAttempt([("crash", 1), "ok"])
    result, telemetry = play(attempt, RetryPolicy(timeout=2.0, max_retries=0))
    assert result == [0, 2, 3]
    assert telemetry.repaired_ranks == [1]
    assert telemetry.retries == 0 and telemetry.diagnoses == []
    assert telemetry.backoff == 0.0
    assert telemetry.sim_time == pytest.approx(0.5 + 1.0)
    # Roll back first, then drop the victim, then relaunch the survivors.
    assert attempt.log == ["launch", "rollback", ("drop", 1), "launch", "commit"]


def test_exhausted_budget_raises_with_attempts_and_last_diagnosis():
    attempt = ScriptedAttempt(["stall"] * 3)
    retry = RetryPolicy(timeout=1.0, max_retries=2, backoff=0.25)
    telemetry = CollectiveTelemetry()
    with pytest.raises(CollectiveTimeout) as exc:
        play(attempt, retry, telemetry)
    assert exc.value.attempts == retry.max_retries + 1
    assert exc.value.diagnosis == "stall #3"
    assert exc.value.iteration == 7
    assert "stall #3" in str(exc.value)
    # Telemetry is accounted in place up to the raise; the final attempt
    # earns no backoff.
    assert telemetry.retries == 3
    assert telemetry.backoff == pytest.approx(0.25 + 0.5)
    assert attempt.log.count("launch") == 3


def test_attributed_failure_retries_then_chains_the_cause():
    """A failure the attempt can diagnose (a CRC error) is retried like a
    stall; on exhaustion the timeout chains the original exception."""
    attempt = ScriptedAttempt(["corrupt", "corrupt"])
    with pytest.raises(CollectiveTimeout) as exc:
        play(attempt, RetryPolicy(timeout=1.0, max_retries=1))
    assert exc.value.diagnosis == "corruption #2"
    assert isinstance(exc.value.__cause__, Corrupted)


def test_foreign_interrupt_abandons_the_attempt_and_propagates():
    attempt = ScriptedAttempt(["preempt"])
    telemetry = CollectiveTelemetry()
    with pytest.raises(Interrupt) as exc:
        play(attempt, RetryPolicy(), telemetry)
    assert isinstance(exc.value.cause, Preempted)
    assert attempt.log == ["launch", "rollback"]
    assert telemetry.retries == 0 and telemetry.repaired_ranks == []


def test_single_survivor_returns_without_launching():
    attempt = ScriptedAttempt([], size=1)
    result, telemetry = play(attempt, RetryPolicy())
    assert result == [0]
    assert attempt.log == ["solo"]
    assert telemetry.sim_time == 0.0


def test_pending_victims_are_dropped_before_launch():
    attempt = ScriptedAttempt([], size=2, victims=[0])
    result, telemetry = play(attempt, RetryPolicy())
    assert result == [1]
    assert telemetry.repaired_ranks == [0]
    assert attempt.log == [("drop", 0), "solo"]


def test_slept_backoff_is_yielded_as_timeouts():
    attempt = ScriptedAttempt(["stall", "stall", "ok"], sleeps=True)
    retry = RetryPolicy(timeout=2.0, max_retries=3, backoff=0.5)
    _, telemetry = play(attempt, retry)
    # The clock advanced through both sleeps as well as the attempts.
    assert attempt.clock.now == pytest.approx(2.0 + 0.5 + 2.0 + 1.0 + 1.0)
    assert telemetry.sim_time == pytest.approx(attempt.clock.now)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"timeout": math.nan},
        {"max_retries": -1},
        {"backoff": -0.1},
        {"backoff": math.nan},
    ],
)
def test_retry_policy_rejects_invalid_settings(kwargs):
    with pytest.raises(ValueError, match="must be"):
        RetryPolicy(**kwargs)


def test_retry_policy_is_a_frozen_value():
    policy = RetryPolicy(5.0, 2, 0.05)
    assert policy == RetryPolicy(timeout=5.0, max_retries=2, backoff=0.05)
    with pytest.raises(AttributeError):
        policy.timeout = 1.0
