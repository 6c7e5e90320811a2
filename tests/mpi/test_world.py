"""Unit tests for MPIWorld messaging and Communicator groups."""

import numpy as np
import pytest

from repro.mpi import ArrayBuffer, Communicator, SizeBuffer, build_world


def test_send_recv_delivers_payload():
    eng, world, comm = build_world(2, topology="star")
    got = []

    def receiver():
        msg = yield world.recv(1, src=0, tag="t")
        got.append((msg.source, msg.payload.tolist(), msg.nbytes))

    world.isend(0, 1, "t", ArrayBuffer(np.array([1.0, 2.0])))
    eng.run(eng.process(receiver()))
    assert got == [(0, [1.0, 2.0], 16)]


def test_recv_before_send_blocks_then_fires():
    eng, world, comm = build_world(2, topology="star")
    times = []

    def receiver():
        msg = yield world.recv(1, src=0, tag=7)
        times.append((eng.now, msg.nbytes))

    def sender():
        yield eng.timeout(1.0)
        world.isend(0, 1, 7, SizeBuffer(0))

    eng.process(receiver())
    eng.process(sender())
    eng.run()
    assert len(times) == 1
    assert times[0][0] > 1.0  # delivery after latency
    assert times[0][1] == 0


def test_messages_matched_by_tag():
    eng, world, comm = build_world(2, topology="star")
    order = []

    def receiver():
        b = yield world.recv(1, src=0, tag="b")
        a = yield world.recv(1, src=0, tag="a")
        order.append((a.payload.tolist(), b.payload.tolist()))

    world.isend(0, 1, "a", ArrayBuffer(np.array([1.0])))
    world.isend(0, 1, "b", ArrayBuffer(np.array([2.0])))
    eng.run(eng.process(receiver()))
    assert order == [([1.0], [2.0])]


def test_same_channel_sends_fifo():
    """Sends on one (src, dst) pair must arrive in posting order, even if a
    later message is much smaller (NIC send-queue serialization)."""
    eng, world, comm = build_world(2, topology="star")
    arrivals = []

    def receiver():
        for i in range(2):
            yield world.recv(1, src=0, tag=("m", i))
            arrivals.append((i, eng.now))

    world.isend(0, 1, ("m", 0), SizeBuffer(10_000_000))  # big first
    world.isend(0, 1, ("m", 1), SizeBuffer(8))  # tiny second
    eng.run(eng.process(receiver()))
    assert arrivals[0][0] == 0
    assert arrivals[0][1] <= arrivals[1][1]


def test_payload_snapshot_at_send_time():
    """The receiver must see the values at isend time, not later mutations."""
    eng, world, comm = build_world(2, topology="star")
    arr = np.array([5.0])
    got = []

    def receiver():
        msg = yield world.recv(1, src=0, tag=0)
        got.append(msg.payload.tolist())

    world.isend(0, 1, 0, ArrayBuffer(arr))
    arr[0] = -1.0  # mutate after send
    eng.run(eng.process(receiver()))
    assert got == [[5.0]]


def test_rank_bounds_checked():
    _eng, world, _comm = build_world(2, topology="star")
    with pytest.raises(ValueError):
        world.isend(0, 2, 0, SizeBuffer(1))
    with pytest.raises(ValueError):
        world.recv(5, 0, 0)


def test_world_needs_enough_hosts():
    from repro.net import CONNECTX5_DUAL, Fabric, star
    from repro.mpi.world import MPIWorld
    from repro.sim import Engine

    eng = Engine()
    fab = Fabric(eng, star(2, CONNECTX5_DUAL))
    with pytest.raises(ValueError):
        MPIWorld(eng, fab, 4)


def test_assert_quiescent_detects_leftovers():
    eng, world, comm = build_world(2, topology="star")
    world.isend(0, 1, "orphan", SizeBuffer(4))
    eng.run()
    with pytest.raises(AssertionError, match="unconsumed"):
        world.assert_quiescent()


def test_communicator_rank_translation():
    _eng, world, comm = build_world(6, topology="star")
    sub = Communicator(world, [4, 2, 0])
    assert sub.size == 3
    assert sub.world_rank(0) == 4
    assert sub.group_rank(2) == 1
    assert sub.contains(0) and not sub.contains(3)
    with pytest.raises(ValueError):
        sub.group_rank(5)


def test_communicator_rejects_duplicates_and_empty():
    _eng, world, _comm = build_world(4, topology="star")
    with pytest.raises(ValueError):
        Communicator(world, [0, 0, 1])
    with pytest.raises(ValueError):
        Communicator(world, [])


def test_split_contiguous_groups():
    _eng, world, comm = build_world(8, topology="star")
    groups = comm.split(4)
    assert [g.members for g in groups] == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_split_validation():
    _eng, _world, comm = build_world(8, topology="star")
    with pytest.raises(ValueError):
        comm.split(3)  # 8 not divisible by 3
    with pytest.raises(ValueError):
        comm.split(0)
    with pytest.raises(ValueError):
        comm.split(9)


def test_subcommunicator_messaging_uses_group_ranks():
    eng, world, comm = build_world(4, topology="star")
    sub = Communicator(world, [3, 1])
    got = []

    def receiver():
        msg = yield sub.recv(1, src=0, tag="x")  # group rank 0 == world rank 3
        got.append(msg.source)

    sub.isend(0, 1, "x", SizeBuffer(8))
    eng.run(eng.process(receiver()))
    assert got == [3]  # message sources are world ranks


def test_recv_any_matches_any_source():
    eng, world, comm = build_world(3, topology="star")
    got = []

    def receiver():
        for _ in range(2):
            msg = yield world.recv_any(2, tag="w")
            got.append(msg.source)

    world.isend(0, 2, "w", SizeBuffer(4))
    world.isend(1, 2, "w", SizeBuffer(4))
    eng.run(eng.process(receiver()))
    assert sorted(got) == [0, 1]


def test_recv_any_from_mailbox_backlog():
    eng, world, comm = build_world(2, topology="star")
    world.isend(0, 1, "t", SizeBuffer(8))
    eng.run()  # deliver into the mailbox first
    ev = world.recv_any(1, tag="t")
    assert ev.triggered
    assert ev.value.source == 0


def test_recv_any_ignores_other_tags():
    eng, world, comm = build_world(2, topology="star")
    got = []

    def receiver():
        msg = yield world.recv_any(1, tag="wanted")
        got.append(msg.tag)

    world.isend(0, 1, "other", SizeBuffer(1))
    world.isend(0, 1, "wanted", SizeBuffer(1))
    eng.run(eng.process(receiver()))
    assert got == ["wanted"]
    # the "other" message is still waiting in the mailbox
    import pytest as _pytest

    with _pytest.raises(AssertionError):
        world.assert_quiescent()


class Tag:
    """A message tag that can be weakly referenced."""


def test_finished_sends_leave_no_reference_cycle():
    # A send's record is the pair's channel tail; once delivered it must not
    # point back at the world, or every finished simulation would wait for
    # the cycle collector instead of being freed at once, and it must not
    # keep its predecessor or its tag, or the tail would keep the pair's
    # every message, or more than a plain event would.
    import gc
    import weakref

    from repro.mpi import ALLREDUCE_COMPILERS, ScheduleExecutor
    from repro.mpi.world import _Send

    schedule = ALLREDUCE_COMPILERS["multicolor"](4, 4096, 4, segment_bytes=1024)
    gc.collect()
    gc.disable()
    try:
        eng, world, comm = build_world(4)
        ScheduleExecutor(comm, schedule, [SizeBuffer(4096) for _ in range(4)]).run()
        tags = [Tag(), Tag()]  # the second message is chained behind the first
        for tag in tags:
            world.isend(0, 1, tag, SizeBuffer(8))
        for tag in tags:
            eng.run(world.recv(1, 0, tag))
        eng.run()  # the last delivery fire and the fabric's last calls
        # Only each pair's last record is alive, and it let its tag go.
        live = sum(type(obj) is _Send for obj in gc.get_objects())
        assert live == len(world._channel_tail)
        tag_refs = [weakref.ref(tag) for tag in tags]
        del tag, tags
        assert [ref() for ref in tag_refs] == [None, None]
        refs = [weakref.ref(eng), weakref.ref(world), weakref.ref(world.fabric)]
        del eng, world, comm
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
