"""Unit tests for the live fault-injection layer.

Covers the plan/spec model, the fabric's mid-flight link degradation, the
world's message delay/drop interception, and the injector's crash
delivery — each exercised directly against a small simulated world.
"""

import numpy as np
import pytest

from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.runner import build_world
from repro.net.params import LinkParams, NetworkParams
from repro.sim.engine import Interrupt
from repro.train.injection import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankFailure,
    crash,
    degrade_links,
    delay_messages,
    drop_messages,
)


# -- FaultSpec / FaultPlan ----------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor", 0)
    with pytest.raises(ValueError, match="target rank"):
        FaultSpec("crash", 0, rank=None)
    with pytest.raises(ValueError, match="factor"):
        degrade_links(0, 0, factor=0.0)
    with pytest.raises(ValueError, match="seconds"):
        delay_messages(0, seconds=0.0)
    with pytest.raises(ValueError, match="count"):
        drop_messages(0, count=0)
    with pytest.raises(ValueError, match="iteration"):
        crash(0, -1)
    with pytest.raises(ValueError, match="max_firings"):
        drop_messages(0, max_firings=0)


def test_plan_filters_by_iteration_and_exhaustion():
    a = crash(0, 3)
    b = drop_messages(3, rank=1, max_firings=2)
    c = delay_messages(7, seconds=1.0)
    plan = FaultPlan([a, b, c])
    assert plan.live_specs(3) == [a, b]
    assert plan.live_specs(7) == [c]
    assert plan.live_specs(0) == []
    b.firings = 2
    assert plan.live_specs(3) == [a]
    assert len(plan) == 3
    with pytest.raises(TypeError):
        plan.add("not a spec")


def test_helper_constructors_set_kind():
    assert crash(1, 2).kind == "crash"
    assert degrade_links(1, 2).kind == "degrade"
    assert delay_messages(2, seconds=1.0).kind == "delay"
    assert drop_messages(2).kind == "drop"
    assert crash(1, 2).permanent
    assert not drop_messages(2).permanent


# -- Fabric mid-flight degradation -------------------------------------------

#: Idealized network for exact arithmetic: 1 GB/s, no cap, no latency.
IDEAL_NET = NetworkParams(
    host_link=LinkParams(bandwidth=1e9, latency=0.0),
    fabric_link=LinkParams(bandwidth=1e9, latency=0.0),
    software_overhead=0.0,
)


def test_scale_links_mid_flight_slows_inflight_transfer():
    """Degrading a host's links while a flow is on the wire must stretch
    the remaining bytes, not just future transfers."""
    engine, world, _comm = build_world(4, topology="star", network=IDEAL_NET)
    fabric = world.fabric
    nbytes = 100e6
    healthy_time = nbytes / 1e9  # 0.1 s

    def degrade_midway():
        yield engine.timeout(healthy_time / 2)
        fabric.scale_host_links(0, 0.25)

    ev = fabric.transfer(0, 1, nbytes)
    engine.process(degrade_midway())
    engine.run(ev)
    # First half at full speed, second half at 1/4 speed -> 2.5x total.
    assert engine.now == pytest.approx(healthy_time * 2.5, rel=1e-6)


def test_scale_links_restore_mid_flight():
    engine, world, _comm = build_world(2, topology="star", network=IDEAL_NET)
    fabric = world.fabric
    fabric.scale_host_links(0, 0.5)
    nbytes = 100e6
    healthy_time = nbytes / 1e9

    def restore_midway():
        # Half the *bytes* pass in the first `healthy_time` at half rate.
        yield engine.timeout(healthy_time)
        fabric.scale_host_links(0, 1.0)

    ev = fabric.transfer(0, 1, nbytes)
    engine.process(restore_midway())
    engine.run(ev)
    assert engine.now == pytest.approx(healthy_time * 1.5, rel=1e-6)


def test_scale_links_validation():
    _engine, world, _comm = build_world(2, topology="star")
    with pytest.raises(ValueError, match="positive"):
        world.fabric.scale_host_links(0, 0.0)
    with pytest.raises(ValueError, match="out of range"):
        world.fabric.scale_links([999], 0.5)


# -- MPIWorld delay / drop interception ---------------------------------------

class _OneShotController:
    """Scripted fault_controller: verdict per (src, dst) key."""

    def __init__(self, verdicts):
        self.verdicts = dict(verdicts)
        self.seen = []

    def on_send(self, src, dst, tag, nbytes):
        self.seen.append((src, dst, tag, nbytes))
        return self.verdicts.pop((src, dst), ("deliver", 0.0))


def test_dropped_message_never_arrives():
    engine, world, _comm = build_world(2, topology="star")
    world.fault_controller = _OneShotController({(0, 1): ("drop", 0.0)})
    payload = np.arange(4, dtype=np.float64)
    send_done = world.isend(0, 1, "t", ArrayBuffer(payload))
    recv_ev = world.recv(1, 0, "t")
    engine.run(send_done)  # local completion: the sender is unaware
    assert send_done.ok
    engine.run()  # drain everything — the receive must still be pending
    assert not recv_ev.triggered


def test_delayed_message_arrives_late():
    timings = {}
    for name, verdicts in (
        ("normal", {}),
        ("delayed", {(0, 1): ("delay", 5.0)}),
    ):
        engine, world, _comm = build_world(2, topology="star")
        world.fault_controller = _OneShotController(verdicts)
        world.isend(0, 1, "t", ArrayBuffer(np.ones(8)))
        recv_ev = world.recv(1, 0, "t")
        engine.run(recv_ev)
        timings[name] = engine.now
        assert recv_ev.value.payload.tolist() == [1.0] * 8
    assert timings["delayed"] == pytest.approx(timings["normal"] + 5.0)


def test_drop_only_affects_selected_message():
    engine, world, _comm = build_world(3, topology="star")
    world.fault_controller = _OneShotController({(0, 2): ("drop", 0.0)})
    world.isend(0, 2, "t", ArrayBuffer(np.zeros(2)))
    world.isend(1, 2, "t", ArrayBuffer(np.ones(2)))
    ok_recv = world.recv(2, 1, "t")
    lost_recv = world.recv(2, 0, "t")
    engine.run(ok_recv)
    assert ok_recv.value.source == 1
    engine.run()
    assert not lost_recv.triggered


# -- FaultInjector against real collectives -----------------------------------

def _launch_multicolor(n_ranks, nelem=64):
    """Launch a multicolor allreduce; returns its rank proxies to arm."""
    from repro.mpi.collectives import ALLREDUCE_COMPILERS
    from repro.mpi.schedule import ScheduleExecutor

    engine, world, comm = build_world(n_ranks, topology="star")
    buffers = [ArrayBuffer(np.full(nelem, float(r))) for r in range(n_ranks)]
    schedule = ALLREDUCE_COMPILERS["multicolor"](n_ranks, nelem, 8)
    executor = ScheduleExecutor(comm, schedule, buffers, tag="t")
    done = executor.launch()
    return engine, world, executor.rank_procs, done, buffers


def _armed_allreduce(n_ranks, specs, iteration=0, nelem=64):
    engine, world, procs, done, buffers = _launch_multicolor(n_ranks, nelem)
    injector = FaultInjector(FaultPlan(specs))
    injector.arm(engine, world, procs, iteration)
    return engine, injector, done, buffers


def test_injected_crash_interrupts_rank_and_fails_collective():
    engine, injector, done, _buffers = _armed_allreduce(4, [crash(2, 0)])
    with pytest.raises(Interrupt) as exc_info:
        engine.run(done)
    cause = exc_info.value.cause
    assert isinstance(cause, RankFailure)
    assert cause.rank == 2
    assert [ev.kind for ev in injector.events] == ["crash"]
    assert injector.plan.specs[0].exhausted


def test_injected_drop_hangs_collective_until_watchdog():
    engine, injector, done, _buffers = _armed_allreduce(
        4, [drop_messages(0, rank=1, count=1)]
    )
    deadline = engine.timeout(60.0)
    engine.run(engine.any_of([done, deadline]))
    assert not done.triggered  # the collective is stuck on the lost payload
    assert engine.now == pytest.approx(60.0)
    assert [ev.kind for ev in injector.events] == ["drop"]


def test_injected_degrade_slows_but_completes():
    nelem = 1 << 18  # 2 MB of float64: bandwidth-dominated timing
    healthy_engine, _inj, done, buffers = _armed_allreduce(4, [], nelem=nelem)
    healthy_engine.run(done)
    healthy_time = healthy_engine.now
    expected = buffers[0].array.copy()

    engine, injector, done, buffers = _armed_allreduce(
        4, [degrade_links(1, 0, factor=0.1)], nelem=nelem
    )
    engine.run(done)
    assert engine.now > healthy_time * 1.5
    np.testing.assert_allclose(buffers[0].array, expected)
    assert [ev.kind for ev in injector.events] == ["degrade"]


def _arm_world(injector, n_ranks, iteration, nelem=64):
    """Arm an existing injector against a freshly built collective."""
    engine, world, procs, done, buffers = _launch_multicolor(n_ranks, nelem)
    injector.arm(engine, world, procs, iteration)
    return engine, done, buffers


def test_arm_rejects_out_of_range_rank_with_clear_error():
    """A spec rank the armed group never had is a user error, caught at
    arm time (not just construction time) with an actionable message."""
    with pytest.raises(ValueError, match="armed group has 3 rank"):
        _armed_allreduce(3, [crash(7, 0)])


def test_stale_spec_after_shrink_is_skipped():
    """Shrink-then-rearm: a spec addressing a rank of the *previous*,
    larger group is stale after the shrink (its target is gone) and must
    be skipped quietly, not raise."""
    injector = FaultInjector(FaultPlan([crash(3, 1)]))
    engine, done, _ = _arm_world(injector, 4, iteration=0)  # records group=4
    engine.run(done)
    assert injector.events == []
    engine, done, _ = _arm_world(injector, 3, iteration=1)  # group shrank
    engine.run(done)  # completes: stale spec skipped
    assert injector.events == []
    assert not injector.plan.specs[0].exhausted


def test_shrunken_group_rank_is_still_a_valid_target():
    """Group rank != world rank after a shrink: a spec for rank 2 of the
    shrunken 3-rank group arms against slot 2 of the current group."""
    injector = FaultInjector(FaultPlan([crash(2, 1)]))
    engine, done, _ = _arm_world(injector, 4, iteration=0)
    engine.run(done)
    engine, done, _ = _arm_world(injector, 3, iteration=1)
    with pytest.raises(Interrupt) as exc_info:
        engine.run(done)
    assert isinstance(exc_info.value.cause, RankFailure)
    assert exc_info.value.cause.rank == 2


def test_injector_event_log_and_since():
    engine, injector, done, _buffers = _armed_allreduce(
        4, [delay_messages(0, seconds=0.001, rank=0, count=2)]
    )
    engine.run(done)
    assert len(injector.events) == 2
    assert injector.events_since(1) == injector.events[1:]
    assert all(ev.kind == "delay" for ev in injector.events)
    assert "held" in str(injector.events[0])


def test_events_since_orders_events_across_retried_attempts():
    """One drop per attempt for two attempts: the log keeps attempt order,
    events_since slices it consistently, and every watchdog diagnosis
    names the dropping sender."""
    from repro.mpi.collectives import ALLREDUCE_COMPILERS
    from repro.mpi.guard import RetryPolicy
    from repro.mpi.schedule import run_guarded

    injector = FaultInjector(
        FaultPlan([drop_messages(0, rank=1, count=1, max_firings=2)])
    )
    arrays = [np.full(8, float(r + 1)) for r in range(4)]
    buffers, telemetry = run_guarded(
        ALLREDUCE_COMPILERS["ring"],
        lambda: [ArrayBuffer(a.copy()) for a in arrays],
        retry=RetryPolicy(5.0, 3, 0.5),
        fault_injector=injector,
        iteration=0,
    )
    # Two dropped attempts, then a clean third: two events in attempt order.
    assert [ev.kind for ev in injector.events] == ["drop", "drop"]
    assert telemetry.fault_events == injector.events
    assert injector.events_since(0) == injector.events
    assert injector.events_since(1) == injector.events[1:]
    assert injector.events_since(2) == []
    assert telemetry.retries == 2
    assert telemetry.backoff == pytest.approx(0.5 + 1.0)
    assert [d.suspect_rank for d in telemetry.diagnoses] == [1, 1]
    np.testing.assert_array_equal(buffers[0].array, np.sum(arrays, axis=0))


def test_fault_event_str_names_rank_and_step():
    ev = FaultEvent("stall", 2, 1, 0.5, "suspected victim", step="RecvReduceStep #7")
    s = str(ev)
    assert "rank 1" in s
    assert "RecvReduceStep #7" in s
