"""Property-based tests for the event engine (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource

from tests.sim.store import Store


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
def test_timeouts_fire_in_sorted_order(delays):
    eng = Engine()
    fired = []
    for i, d in enumerate(delays):

        def proc(i=i, d=d):
            yield eng.timeout(d)
            fired.append((eng.now, i))

        eng.process(proc())
    eng.run()
    times = [t for t, _i in fired]
    assert times == sorted(times)
    # Equal-delay ties break by creation order (determinism).
    assert len(fired) == len(delays)


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
    capacity=st.integers(1, 4),
)
def test_resource_never_oversubscribed(delays, capacity):
    eng = Engine()
    res = Resource(eng, capacity=capacity)
    peak = [0]

    def user(d):
        yield res.request()
        peak[0] = max(peak[0], res.in_use)
        assert res.in_use <= capacity
        yield eng.timeout(d)
        res.release()

    for d in delays:
        eng.process(user(d))
    eng.run()
    assert res.in_use == 0
    assert peak[0] <= capacity


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=25))
def test_store_preserves_fifo_order(items):
    eng = Engine()
    store = Store(eng)
    got = []

    def producer():
        for item in items:
            yield store.put(item)
            yield eng.timeout(0.1)

    def consumer():
        for _ in items:
            v = yield store.get()
            got.append(v)

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == items


@settings(max_examples=20, deadline=None)
@given(
    n_procs=st.integers(1, 10),
    rounds=st.integers(1, 5),
)
def test_run_is_deterministic(n_procs, rounds):
    def simulate():
        eng = Engine()
        trace = []

        def worker(i):
            for r in range(rounds):
                yield eng.timeout(0.5 + (i * 7 % 3) * 0.25)
                trace.append((i, r, eng.now))

        for i in range(n_procs):
            eng.process(worker(i))
        eng.run()
        return trace

    assert simulate() == simulate()
