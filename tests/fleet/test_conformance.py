"""Runtime conformance: random deep traces through the real scheduler.

The model checker proves the eight invariants over every interleaving up
to its BFS depth.  Here Hypothesis draws deeper traces — up to 16
events, over the smoke workload with the sweep's flap budgets and a
third iteration per job — by walking the checker's own
``enabled_events``, replays each through a real ``FleetScheduler``, and
requires the runtime audit to stay clean: the same eight invariants on
the scheduler's own control state after every node event and once the
fleet drains, and no ``SimulationError``.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.verify import (
    apply_event,
    enabled_events,
    initial_state,
    replay_trace,
    sweep_bounds,
)

BOUNDS = replace(sweep_bounds(), depth=16, max_steps=3)


@st.composite
def traces(draw: st.DrawFn) -> tuple:
    state = initial_state(BOUNDS)
    spent = (0, 0, 0, 0, 0)
    trace = []
    for _ in range(draw(st.integers(1, BOUNDS.depth))):
        enabled = enabled_events(state, BOUNDS, spent)
        if not enabled:
            break
        event = draw(st.sampled_from(enabled))
        state, spent = apply_event(state, event, BOUNDS, spent)
        trace.append(event)
    return tuple(trace)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(traces())
def test_random_deep_traces_hold_every_invariant_on_the_runtime(trace):
    replay = replay_trace(BOUNDS, trace)
    assert replay.ok, (
        "\n".join(str(e) for e in trace) + "\n" + replay.format()
    )
