"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Engine, Resource, SimulationError

from tests.sim.store import Store


def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    a = res.request()
    b = res.request()
    c = res.request()
    assert a.triggered and b.triggered
    assert not c.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_wakes_fifo():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(name, hold):
        yield res.request()
        order.append(("start", name, eng.now))
        yield eng.timeout(hold)
        res.release()

    eng.process(user("a", 2.0))
    eng.process(user("b", 1.0))
    eng.process(user("c", 1.0))
    eng.run()
    assert order == [("start", "a", 0.0), ("start", "b", 2.0), ("start", "c", 3.0)]


def test_resource_use_helper_serializes():
    eng = Engine()
    res = Resource(eng, capacity=1)
    done = []

    def worker(name):
        yield from res.use(1.5)
        done.append((name, eng.now))

    eng.process(worker("x"))
    eng.process(worker("y"))
    eng.run()
    assert done == [("x", 1.5), ("y", 3.0)]


def test_release_idle_resource_is_error():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_call_waiters_share_the_fifo_with_event_waiters():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def hold_then_release(name):
        order.append((name, eng.now))
        eng.call(lambda _arg: res.release(), None, 1.0)

    def event_user(name):
        yield res.request()
        hold_then_release(name)

    eng.process(event_user("a"))
    eng.call(lambda _arg: res.request_call(lambda _res: hold_then_release("b")))
    eng.process(event_user("c"))
    eng.call(lambda _arg: res.request_call(lambda _res: hold_then_release("d")))
    eng.run()
    assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]
    assert res.in_use == 0


def test_cancel_withdraws_a_queued_call_waiter_or_releases_a_granted_one():
    eng = Engine()
    res = Resource(eng, capacity=1)
    granted = []
    first, second = granted.append, lambda r: granted.append(("second", r))
    res.request_call(first)  # granted at once: its call is on the heap
    res.request_call(second)  # queued behind it
    assert (res.in_use, res.queue_length) == (1, 1)
    res.cancel(second)  # withdrawn: never granted
    assert res.queue_length == 0
    res.cancel(first)  # granted already: the slot is released
    assert res.in_use == 0
    eng.run()
    assert granted == [res]  # the grant call still runs; its owner ignores it


def test_store_fifo_order():
    eng = Engine()
    store = Store(eng)
    got = []

    def producer():
        for i in range(3):
            yield eng.timeout(1.0)
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((eng.now, item))

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    ev = store.get()
    assert not ev.triggered
    store.put("x")
    assert ev.triggered and ev.value == "x"


def test_store_capacity_blocks_put():
    eng = Engine()
    store = Store(eng, capacity=1)
    p1 = store.put("a")
    p2 = store.put("b")
    assert p1.triggered and not p2.triggered
    g = store.get()
    assert g.value == "a"
    assert p2.triggered  # freed slot admits the queued put
    assert store.items == ("b",)


def test_store_len_and_items():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == (1, 2)
