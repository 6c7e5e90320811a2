"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import AllOf, Engine, Interrupt, SimulationError


def test_timeout_advances_clock():
    eng = Engine()
    t = eng.timeout(2.5)
    eng.run(t)
    assert eng.now == pytest.approx(2.5)


def test_timeout_value_passthrough():
    eng = Engine()
    t = eng.timeout(1.0, value="payload")
    assert eng.run(t) == "payload"


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_process_returns_value():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        return "done"

    p = eng.process(proc())
    assert eng.run(p) == "done"
    assert eng.now == pytest.approx(3.0)


def test_process_receives_event_value():
    eng = Engine()
    seen = []

    def proc():
        v = yield eng.timeout(1.0, value=41)
        seen.append(v + 1)

    eng.run(eng.process(proc()))
    assert seen == [42]


def test_processes_interleave_deterministically():
    eng = Engine()
    trace = []

    def worker(name, delay):
        yield eng.timeout(delay)
        trace.append((name, eng.now))

    eng.process(worker("a", 2.0))
    eng.process(worker("b", 1.0))
    eng.process(worker("c", 2.0))
    eng.run()
    assert trace == [("b", 1.0), ("a", 2.0), ("c", 2.0)]


def test_event_succeed_wakes_waiter():
    eng = Engine()
    gate = eng.event()
    results = []

    def waiter():
        v = yield gate
        results.append((eng.now, v))

    def opener():
        yield eng.timeout(5.0)
        gate.succeed("open")

    eng.process(waiter())
    eng.process(opener())
    eng.run()
    assert results == [(5.0, "open")]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_process():
    eng = Engine()
    gate = eng.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(waiter())
    gate.fail(ValueError("boom"))
    eng.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("model bug")

    p = eng.process(bad())
    with pytest.raises(RuntimeError, match="model bug"):
        eng.run(p)


def test_yield_non_event_fails_process():
    eng = Engine()

    def bad():
        yield 42  # type: ignore[misc]

    p = eng.process(bad())
    with pytest.raises(SimulationError):
        eng.run(p)


def test_wait_on_already_processed_event():
    eng = Engine()
    first = eng.timeout(1.0, value="v")
    trace = []

    def late_waiter():
        yield eng.timeout(3.0)
        v = yield first  # already processed at t=1
        trace.append((eng.now, v))

    eng.run(eng.process(late_waiter()))
    assert trace == [(3.0, "v")]


def test_all_of_waits_for_all():
    eng = Engine()

    def proc():
        values = yield eng.all_of([eng.timeout(1.0, "a"), eng.timeout(3.0, "b")])
        return (eng.now, values)

    assert eng.run(eng.process(proc())) == (3.0, ["a", "b"])


def test_all_of_empty_triggers_immediately():
    eng = Engine()
    cond = AllOf(eng, [])
    eng.run(cond)
    assert cond.value == []
    assert eng.now == 0.0


def test_any_of_takes_first():
    eng = Engine()

    def proc():
        v = yield eng.any_of([eng.timeout(5.0, "slow"), eng.timeout(1.0, "fast")])
        return (eng.now, v)

    assert eng.run(eng.process(proc())) == (1.0, "fast")


def test_all_of_propagates_failure():
    eng = Engine()
    gate = eng.event()

    def proc():
        yield eng.all_of([eng.timeout(1.0), gate])

    p = eng.process(proc())
    gate.fail(KeyError("nope"))
    with pytest.raises(KeyError):
        eng.run(p)


def test_run_until_time_stops_clock():
    eng = Engine()
    hits = []

    def ticker():
        while True:
            yield eng.timeout(1.0)
            hits.append(eng.now)

    eng.process(ticker())
    eng.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert eng.now == pytest.approx(3.5)


def test_run_until_event_deadlock_detected():
    eng = Engine()
    never = eng.event()
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run(never)


def test_interrupt_delivers_cause():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(100.0)
        except Interrupt as intr:
            log.append((eng.now, intr.cause))

    def killer(target):
        yield eng.timeout(2.0)
        target.interrupt("wake up")

    p = eng.process(sleeper())
    eng.process(killer(p))
    eng.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_rejected():
    eng = Engine()

    def quick():
        yield eng.timeout(0.1)

    p = eng.process(quick())
    eng.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_of_a_process_that_finishes_first_is_dropped():
    # Interrupted from inside its own step, a process that then returns
    # without yielding again is already finished when the interrupt is
    # delivered; so is one an earlier interrupt ended.
    eng = Engine()
    procs = {}

    def self_interrupting():
        yield eng.timeout(1.0)
        procs["self"].interrupt("late")
        return "done"

    def doubly_interrupted():
        yield eng.timeout(100.0)

    def killer():
        yield eng.timeout(2.0)
        procs["double"].interrupt("first")
        procs["double"].interrupt("second")

    procs["self"] = eng.process(self_interrupting())
    procs["double"] = eng.process(doubly_interrupted())
    procs["double"].defuse()
    eng.process(killer())
    eng.run()
    assert procs["self"].value == "done"
    assert isinstance(procs["double"].value, Interrupt)
    assert procs["double"].value.cause == "first"


def test_nested_process_wait():
    eng = Engine()

    def inner():
        yield eng.timeout(2.0)
        return "inner-result"

    def outer():
        v = yield eng.process(inner())
        return f"outer({v})"

    assert eng.run(eng.process(outer())) == "outer(inner-result)"
    assert eng.now == pytest.approx(2.0)


def test_peek_reports_next_event_time():
    eng = Engine()
    assert eng.peek() == float("inf")
    eng.timeout(4.0)
    eng.timeout(2.0)
    assert eng.peek() == pytest.approx(2.0)


# -- NaN times are rejected ----------------------------------------------------

NAN = float("nan")


def test_nan_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(NAN)
    assert eng.peek() == float("inf")


def test_nan_trigger_delay_rejected_and_event_stays_pending():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(ValueError):
        ev.succeed(1, delay=NAN)
    with pytest.raises(ValueError):
        ev.fail(KeyError("x"), delay=NAN)
    assert not ev.triggered
    ev.succeed(2, delay=1.0)
    assert eng.run(ev) == 2


def test_nan_run_until_rejected():
    eng = Engine()
    eng.timeout(1.0)
    with pytest.raises(ValueError):
        eng.run(until=NAN)
    assert eng.now == 0.0
    eng.run(until=2.0)
    assert eng.now == 2.0


def test_nan_and_negative_call_delay_rejected():
    eng = Engine()
    for bad in (NAN, -1.0):
        with pytest.raises(ValueError):
            eng.call(print, None, bad)
    assert eng.peek() == float("inf")


def test_clock_never_runs_backwards_with_a_rejected_nan():
    eng = Engine()
    fired = []
    for delay in (3.0, NAN, 1.0, 2.0):
        try:
            eng.timeout(delay).callbacks.append(lambda _ev: fired.append(eng.now))
        except ValueError:
            pass
    eng.run()
    assert fired == [1.0, 2.0, 3.0]


# -- call entries ----------------------------------------------------------------


def test_calls_and_events_run_fifo_at_equal_time():
    eng = Engine()
    order = []

    def note(label):
        return lambda _ev: order.append(label)

    eng.call(order.append, "call-1", 1.0)
    eng.timeout(1.0).callbacks.append(note("timeout"))
    eng.call(order.append, "call-2", 1.0)
    ev = eng.event()
    ev.callbacks.append(note("event"))
    ev.succeed(delay=1.0)
    eng.call(order.append, "call-3", 1.0)
    eng.call(order.append, "early", 0.5)
    eng.run()
    assert order == ["early", "call-1", "timeout", "call-2", "event", "call-3"]
    assert eng.now == 1.0


def test_call_passes_its_argument_and_each_call_is_one_step():
    eng = Engine()
    seen = []
    eng.call(seen.append, ("payload", 7))
    eng.call(seen.append)
    eng.step()
    assert seen == [("payload", 7)]
    eng.step()
    assert seen == [("payload", 7), None]
    with pytest.raises(SimulationError):
        eng.step()


def test_exception_in_a_call_leaves_run_with_its_own_type():
    class ModelBug(Exception):
        pass

    def bad(_arg):
        raise ModelBug("in a call")

    for until in (None, 5.0, "event"):
        eng = Engine()
        eng.call(bad, None, 1.0)
        stop = eng.timeout(2.0) if until == "event" else until
        with pytest.raises(ModelBug, match="in a call"):
            eng.run(stop)
        assert eng.now == 1.0


def test_interrupt_before_first_resume_delivers_interrupt():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(10.0)
        except Interrupt as intr:
            log.append((eng.now, intr.cause))
        yield eng.timeout(1.0)
        log.append(("done", eng.now))

    p = eng.process(sleeper())
    p.interrupt("early")  # the process has not run a single line yet
    eng.run()  # the abandoned 10 s timeout must not resume it again
    assert log == [(0.0, "early"), ("done", 1.0)]
    assert p.ok


def test_uncaught_interrupt_before_first_resume_fails_the_process():
    eng = Engine()

    def sleeper():
        yield eng.timeout(10.0)

    p = eng.process(sleeper())
    p.interrupt("stop")
    with pytest.raises(Interrupt):
        eng.run(p)
    assert eng.now == 0.0
    eng.run()  # nothing resumes the failed process later
    assert eng.now == 10.0


def test_interrupt_cancels_a_queued_resume_on_a_processed_event():
    eng = Engine()
    first = eng.timeout(1.0, value="v")
    log = []

    def waiter():
        yield eng.timeout(2.0)
        try:
            yield first  # already processed: the resume is queued, not run
        except Interrupt as intr:
            log.append((eng.now, intr.cause))
            return
        log.append("resumed")

    p = eng.process(waiter())

    def killer():
        yield eng.timeout(2.0)
        p.interrupt("now")

    eng.process(killer())
    eng.run()
    assert log == [(2.0, "now")]


def test_waiting_on_processed_event_resumes_at_the_same_time():
    eng = Engine()
    first = eng.timeout(1.0, value="v")
    eng.run(first)
    assert first.processed
    trace = []

    def late():
        v = yield first
        trace.append((eng.now, v))

    p = eng.process(late())
    eng.call(trace.append, "queued-before-resume")
    eng.run(p)
    # Boot, then the resume is queued behind the call already waiting.
    assert trace == ["queued-before-resume", (1.0, "v")]


# -- the tie-break rule ------------------------------------------------------------


def test_an_entry_scheduled_earlier_for_t_runs_before_a_zero_delay_call_made_at_t():
    eng = Engine()
    order = []

    def at_one(_arg):
        order.append("first at 1.0")
        eng.event().succeed().callbacks.append(lambda _ev: order.append("event at 1.0"))
        eng.call(order.append, "zero delay at 1.0")

    eng.call(at_one, None, 1.0)
    eng.call(order.append, "scheduled at 0.0 for 1.0", 1.0)
    eng.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout for 1.0"))
    eng.run()
    assert order == [
        "first at 1.0",
        "scheduled at 0.0 for 1.0",
        "timeout for 1.0",
        "event at 1.0",
        "zero delay at 1.0",
    ]


def test_a_sub_ulp_delay_runs_in_fifo_order_with_the_zero_delay_calls():
    eng = Engine()
    order = []

    def at_one(_arg):
        assert eng.now + 1e-300 == eng.now
        eng.call(order.append, "zero")
        eng.call(order.append, "sub-ulp", 1e-300)
        eng.timeout(1e-17).callbacks.append(lambda _ev: order.append("sub-ulp timeout"))
        eng.event().succeed(delay=1e-300).callbacks.append(
            lambda _ev: order.append("sub-ulp event")
        )
        eng.call(order.append, "zero again")

    eng.call(at_one, None, 1.0)
    eng.call(order.append, "later", 1.0 + 2**-52)
    eng.run()
    assert order == [
        "zero",
        "sub-ulp",
        "sub-ulp timeout",
        "sub-ulp event",
        "zero again",
        "later",
    ]
    assert eng.now == 1.0 + 2**-52


def test_peek_is_now_while_same_time_calls_wait_and_run_until_now_drains_them():
    eng = Engine()
    seen = []
    eng.call(seen.append, "future", 2.0)
    eng.run(until=1.0)
    eng.call(seen.append, "a")
    eng.call(seen.append, "b", 1e-300)
    assert eng.peek() == eng.now == 1.0
    eng.run(until=eng.now)
    assert seen == ["a", "b"]
    assert (eng.now, eng.peek()) == (1.0, 2.0)
    eng.run(until=2.0)  # an entry due at the horizon runs
    assert seen == ["a", "b", "future"]
