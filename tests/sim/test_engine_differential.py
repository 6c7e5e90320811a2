"""The engine against the single-heap engine it replaced (hypothesis).

A drawn program — calls, timeouts, events succeeded or failed after a
delay, processes that sleep, wait on earlier events and get interrupted —
runs once on :class:`repro.sim.engine.Engine` and once on the reference in
``engine_reference``, driven by the same drawn mix of ``step()``,
``run(until=now)``, ``run(until=peek())``, ``run(until=time)``,
``run(until=event)`` and ``run()``.  Delays come from a small set so that
equal times tie often: zero, equal nonzero delays, and sub-ulp delays
(``1e-300`` and ``1e-17`` leave a clock at ``>= 1.0`` unchanged).  Both
runs must log the same ``(now.hex(), label)`` entries, raise the same
errors, take the same number of steps and read the same clock and
``peek()`` after every step.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.engine as fast
from tests.sim import engine_reference as reference

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 1e-17, 1e-300])
TRIGGERS = ("call", "timeout", "succeed", "fail", "fail-defused")
PROCESSES = ("process", "process-fragile")


def _nodes(children):
    waits = st.lists(st.one_of(DELAYS, st.just("wait-last")), min_size=1, max_size=3)
    return st.one_of(
        st.tuples(st.sampled_from(TRIGGERS), DELAYS, st.lists(children, max_size=3)),
        st.tuples(st.sampled_from(PROCESSES), waits, st.lists(children, max_size=2)),
        st.tuples(st.just("interrupt"), st.integers(0, 7), st.just([])),
    )


NODE = st.recursive(
    st.tuples(st.sampled_from(TRIGGERS), DELAYS, st.just([])), _nodes, max_leaves=16
)
COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["step", "until-now", "until-peek", "run"])),
        st.tuples(st.just("until-plus"), DELAYS),
        st.tuples(st.just("until-event"), st.integers(0, 31)),
    ),
    max_size=10,
)


class Boom(Exception):
    pass


def _error(exc: BaseException) -> tuple[str, str]:
    return type(exc).__name__, re.sub(r" at 0x[0-9a-f]+", "", str(exc))


def simulate(mod, program, commands):
    """Run ``program`` on ``mod.Engine``; return its log and step trace."""
    log: list[tuple] = []
    events: list = []
    processes: list = []

    class Engine(mod.Engine):
        def __init__(self):
            super().__init__()
            self.trace: list[tuple] = []

        def step(self):
            try:
                super().step()
            finally:
                self.trace.append((len(log), self.now.hex(), self.peek().hex()))

    eng = Engine()

    def note(label):
        log.append((eng.now.hex(), label))

    def spawn(nodes, path):
        for i, (kind, param, children) in enumerate(nodes):
            label = f"{path}.{i}"
            if kind == "interrupt":
                if processes:
                    target = processes[param % len(processes)]
                    try:
                        target.interrupt(label)
                    except mod.SimulationError as exc:
                        log.append(("interrupt-refused", label, *_error(exc)))
                continue
            if kind in PROCESSES:
                proc = eng.process(sleeper(label, param, kind == "process", children))
                events.append(proc)
                processes.append(proc)
                continue

            def fired(arg, label=label, children=children):
                if isinstance(arg, mod.Event):
                    if not arg.ok and kind == "fail-defused":
                        arg.defuse()
                    arg = arg.value
                note((label, repr(arg)))
                spawn(children, label)

            if kind == "call":
                eng.call(fired, label, param)
                continue
            if kind == "timeout":
                ev = eng.timeout(param, label)
            else:
                ev = eng.event()
            ev.callbacks.append(fired)
            events.append(ev)
            if kind == "succeed":
                ev.succeed(label, delay=param)
            elif kind != "timeout":
                ev.fail(Boom(label), delay=param)

    def sleeper(label, waits, catches, children):
        for i, wait in enumerate(waits):
            target = events[-1] if wait == "wait-last" else eng.timeout(wait)
            try:
                value = yield target
                note((f"{label}/{i}", repr(value)))
            except Exception as exc:
                note((f"{label}/{i}", *_error(exc)))
                if not catches:
                    raise
        spawn(children, label)
        return label

    spawn(program, "p")
    for command in [*commands, ("run",)]:
        kind = command[0]
        try:
            if kind == "step":
                eng.step()
            elif kind == "until-now":
                eng.run(until=eng.now)
            elif kind == "until-peek":
                peek = eng.peek()
                eng.run(until=peek if peek < float("inf") else eng.now)
            elif kind == "until-plus":
                eng.run(until=eng.now + command[1])
            elif kind == "until-event":
                if events:
                    value = eng.run(until=events[command[1] % len(events)])
                    log.append(("until-event", eng.now.hex(), repr(value)))
            else:
                eng.run()
        except Exception as exc:  # noqa: BLE001 - both engines must agree
            log.append((kind, eng.now.hex(), *_error(exc)))
        log.append((kind, eng.now.hex(), eng.peek().hex()))
    return log, eng.trace


@settings(max_examples=300, deadline=None)
@given(program=st.lists(NODE, min_size=1, max_size=6), commands=COMMANDS)
@example(
    # An entry due at 1.0 from the start, then zero and sub-ulp delays at 1.0.
    program=[
        ("call", 1.0, [("call", 1e-300, []), ("call", 0.0, []), ("timeout", 1e-17, [])]),
        ("timeout", 1.0, []),
        ("succeed", 1.0, [("fail-defused", 1e-300, [])]),
    ],
    commands=[("step",), ("until-now",), ("until-peek",)],
)
@example(
    # Interrupts of a sleeper and of a waiter on a processed event.
    program=[
        ("timeout", 1.0, []),
        ("process", [1.0, "wait-last", 0.5], []),
        ("process-fragile", [2.0], []),
        ("call", 1.0, [("interrupt", 1, []), ("interrupt", 0, [])]),
    ],
    commands=[("until-event", 2), ("until-plus", 0.0)],
)
def test_engine_matches_the_single_heap_reference(program, commands):
    got = simulate(fast, program, commands)
    want = simulate(reference, program, commands)
    assert got[0] == want[0]
    assert got[1] == want[1]
