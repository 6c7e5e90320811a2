"""Health-monitor strike lifecycle, signal validation, and the SDC ledger.

The monitor's hysteresis contract: a drain needs ``strikes`` *consecutive*
unhealthy polls, any healthy poll resets the counter, and a node returned
to service (undrained or revived) re-earns its strikes from zero.  The
SDC ledger feeds the same policy: confirmed corruption strikes accumulate
per node across jobs and leave with the node on drain.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import (
    FleetScheduler,
    HealthPolicy,
    JobSpec,
    SharedCluster,
    control,
)
from repro.fleet.control import ControlState, Job
from repro.train.faults import DrainPolicy, NodeHealthSignal
from repro.train.injection import FaultPlan, sdc_flip
from repro.train.tiny import build_tiny_trainer

TIGHT = dict(n_racks=2, nodes_per_rack=2, slots_per_node=1)

#: One poll period of the fast policies below.
POLL = 2e-4


def run_fleet(specs, *, cluster_kw=None, trigger=None, health=None):
    cluster = SharedCluster(**(cluster_kw or TIGHT))
    scheduler = FleetScheduler(cluster, specs, placement="pack", health=health)
    if trigger is not None:
        scheduler.spawn(trigger(cluster, scheduler))
    report = scheduler.run()
    return report, scheduler


# -- signal validation --------------------------------------------------------

def test_signal_rejects_negative_queue_depth():
    with pytest.raises(ValueError, match="cpu_queue_depth"):
        NodeHealthSignal(node=0, cpu_queue_depth=-1, link_factor=1.0)


@pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
def test_signal_rejects_out_of_range_link_factor(factor):
    with pytest.raises(ValueError, match="link_factor"):
        NodeHealthSignal(node=0, cpu_queue_depth=0, link_factor=factor)


def test_signal_rejects_negative_sdc_count():
    with pytest.raises(ValueError, match="sdc_count"):
        NodeHealthSignal(
            node=0, cpu_queue_depth=0, link_factor=1.0, sdc_count=-1
        )


# -- policy validation and classification -------------------------------------

def test_policy_rejects_bad_thresholds():
    with pytest.raises(ValueError, match="link_factor_threshold"):
        DrainPolicy(link_factor_threshold=1.5)
    with pytest.raises(ValueError, match="queue_depth_threshold"):
        DrainPolicy(queue_depth_threshold=0)
    with pytest.raises(ValueError, match="sdc_threshold"):
        DrainPolicy(sdc_threshold=0)
    with pytest.raises(ValueError, match="strikes"):
        DrainPolicy(strikes=0)


def test_policy_must_watch_at_least_one_signal():
    with pytest.raises(
        ValueError, match="neither links, CPU queues nor SDC strikes"
    ):
        DrainPolicy(
            link_factor_threshold=None,
            queue_depth_threshold=None,
            sdc_threshold=None,
        )


def test_classify_reasons_and_priority():
    policy = DrainPolicy(
        link_factor_threshold=0.5, queue_depth_threshold=4, sdc_threshold=2
    )

    def signal(**kw):
        base = dict(node=0, cpu_queue_depth=0, link_factor=1.0, sdc_count=0)
        base.update(kw)
        return NodeHealthSignal(**base)

    assert policy.classify(signal()) is None
    assert "degraded links" in policy.classify(signal(link_factor=0.25))
    assert "cpu queue depth" in policy.classify(signal(cpu_queue_depth=4))
    assert "silent data corruption" in policy.classify(signal(sdc_count=2))
    # Links outrank queues outrank SDC when several signals fire at once.
    everything = signal(link_factor=0.25, cpu_queue_depth=9, sdc_count=5)
    assert "degraded links" in policy.classify(everything)


# -- strike lifecycle ---------------------------------------------------------

def double_transient(job_name="long", factor=0.05):
    """Degrade the job's last node for 2-3 polls, restore for at least one
    healthy poll, then degrade for 2-3 polls again: 4-6 unhealthy polls
    in total, but never 4 consecutive."""

    def trigger(cluster, scheduler):
        job = scheduler.jobs[job_name]
        while job.telemetry.steps < 1:
            yield cluster.engine.timeout(1e-4)
        # De-align from the poll instants so each degrade window covers a
        # deterministic 2-3 polls with no edge ambiguity.
        yield cluster.engine.timeout(0.3 * POLL)
        node = job.placement[-1]
        cluster.degrade_node_links(node, factor)
        yield cluster.engine.timeout(2.5 * POLL)
        cluster.degrade_node_links(node, 1.0)
        yield cluster.engine.timeout(1.6 * POLL)  # >= 1 healthy poll
        cluster.degrade_node_links(node, factor)
        yield cluster.engine.timeout(2.5 * POLL)
        cluster.degrade_node_links(node, 1.0)

    return trigger


def _lifecycle_health(strikes):
    return HealthPolicy(
        policy=DrainPolicy(link_factor_threshold=0.5, strikes=strikes),
        poll_every=POLL,
    )


def test_healthy_streak_resets_strikes():
    """Two transient windows of 2-3 strikes each never drain a 4-strike
    policy: the healthy polls between them reset the counter instead of
    letting the windows accumulate past the threshold."""
    spec = JobSpec(name="long", n_learners=2, n_steps=12, seed=540)
    report, scheduler = run_fleet(
        [spec], trigger=double_transient(), health=_lifecycle_health(4)
    )
    assert scheduler.jobs["long"].status == "finished"
    assert not any(e.kind in ("drain", "migrate") for e in report.events)


def test_transient_windows_do_carry_strikes():
    """Control for the reset test: the same disturbance drains a 2-strike
    policy, so each window really did land >= 2 consecutive strikes."""
    spec = JobSpec(name="long", n_learners=2, n_steps=12, seed=540)
    report, scheduler = run_fleet(
        [spec], trigger=double_transient(), health=_lifecycle_health(2)
    )
    assert scheduler.jobs["long"].status == "finished"
    drain = next(e for e in report.events if e.kind == "drain")
    assert "degraded links" in drain.text


def test_undrained_node_is_re_drained_on_fresh_strikes():
    """A node restored to service re-earns its strikes from zero and is
    drained again when the degradation returns."""
    spec = JobSpec(name="long", n_learners=2, n_steps=24, seed=541)

    def trigger(cluster, scheduler):
        job = scheduler.jobs[job_name := "long"]
        while job.telemetry.steps < 1:
            yield cluster.engine.timeout(1e-4)
        node = job.placement[-1]
        cluster.degrade_node_links(node, 0.05)
        while node not in scheduler.draining:
            yield cluster.engine.timeout(POLL)
        cluster.degrade_node_links(node, 1.0)
        scheduler.undrain_node(node)
        yield cluster.engine.timeout(2 * POLL)  # healthy polls in between
        cluster.degrade_node_links(node, 0.05)
        while scheduler.jobs[job_name].status != "finished":
            if node in scheduler.draining:
                cluster.degrade_node_links(node, 1.0)
                return
            yield cluster.engine.timeout(POLL)

    report, scheduler = run_fleet(
        [spec], trigger=trigger, health=_lifecycle_health(2)
    )
    assert scheduler.jobs["long"].status == "finished"
    drains = [e for e in report.events if e.kind == "drain"]
    assert len(drains) == 2
    assert drains[0].data["node"] == drains[1].data["node"]
    assert any(e.kind == "undrain" for e in report.events)


# -- the SDC ledger -----------------------------------------------------------

def test_cluster_sdc_ledger_counts_and_clears():
    # The ledger lives on the cluster's nodes; the control core's SDC
    # transition books each strike on the quarantined learner's node.
    cluster = SharedCluster(**TIGHT)
    jobs = {name: Job(name, 0, 2, False, "requeue") for name in "abc"}
    state = ControlState("pack", cluster.nodes, jobs)
    control.start(state, jobs["a"], (0, 1))
    control.start(state, jobs["b"], (2, 3))
    assert cluster.nodes[1].sdc == 0
    control.sdc(state, jobs["a"], 1, 0, "flip")  # node 1
    control.sdc(state, jobs["b"], 0, 0, "flip")  # node 2
    control.start(state, jobs["c"], (1,))
    control.sdc(state, jobs["c"], 0, 1, "flip")  # node 1 again
    assert [n.sdc for n in cluster.nodes] == [0, 2, 1, 0]
    control.drain(state, 1, "silent data corruption (test)")
    assert [n.sdc for n in cluster.nodes] == [0, 0, 1, 0]  # others keep theirs
    control.undrain(state, 1)
    control.start(state, jobs["c"], (1,))
    control.sdc(state, jobs["c"], 0, 2, "flip")
    assert cluster.nodes[1].sdc == 1  # re-strikes accumulate from zero
    assert not state.violations


def test_drain_node_clears_sdc_strikes():
    cluster = SharedCluster(**TIGHT)
    scheduler = FleetScheduler(cluster, [])
    cluster.nodes[0].sdc = 2
    scheduler.drain_node(0, "silent data corruption (test)")
    assert cluster.nodes[0].sdc == 0
    assert 0 in scheduler.draining


# -- SDC containment through the fleet ----------------------------------------

def test_single_flip_is_detected_quarantined_and_repaired_bit_exact():
    """One scripted compute-plane bit flip: the job detects it at the
    allreduce boundary, quarantines the learner, books the strike, and
    lands bit-exact on a fault-free run replaying the same shrink."""
    spec = JobSpec(
        name="sick", n_learners=3, n_steps=6, seed=700,
        sdc_buckets=2, sdc_faults=((1, 1, 0),),
    )
    report, scheduler = run_fleet([spec])
    job = scheduler.jobs["sick"]
    assert job.status == "finished"
    assert job.sdc_injected == [(1, 1, 0)]
    assert (1, 1) in job.shrink_log
    detect = next(e for e in report.events if e.kind == "sdc-detect")
    assert detect.data["job"] == "sick"
    assert detect.data["strikes"] == 1
    assert "corruption" in detect.text
    # The quarantine replays as a scripted shrink, bit-exact.
    ref_spec = replace(
        spec, sdc_faults=(), elastic_grow=False,
        scripted_shrinks=tuple(job.shrink_log),
        scripted_grows=tuple(job.grow_log),
    )
    _ref_report, ref_scheduler = run_fleet([ref_spec])
    ref = ref_scheduler.jobs["sick"]
    assert ref.status == "finished"
    np.testing.assert_array_equal(job.final_params, ref.final_params)


def test_sdc_repair_matches_across_trainer_and_fleet():
    """One audited reduce loop serves both planes: the same flip lands on
    bit-identical final params through the standalone trainer and
    through a one-job fleet."""
    spec = JobSpec(
        name="sick", n_learners=3, n_steps=6, seed=700,
        sdc_buckets=2, sdc_faults=((1, 1, 0),),
    )
    _report, scheduler = run_fleet([spec])
    job = scheduler.jobs["sick"]
    assert job.status == "finished"
    with build_tiny_trainer(
        3, 700, reshuffle_on_shrink=False, sdc_buckets=2,
        fault_plan=FaultPlan([sdc_flip(1, 1, bucket=0)]),
    ) as trainer:
        results = [trainer.step() for _ in range(spec.n_steps)]
        assert results[1].quarantined == (1,)
        np.testing.assert_array_equal(trainer.params(), job.final_params)


def test_jobspec_rejects_bad_sdc_configs():
    ok = dict(name="j", n_learners=2, n_steps=4)
    with pytest.raises(ValueError, match="sdc_buckets"):
        JobSpec(**ok, sdc_buckets=0)
    with pytest.raises(ValueError, match="poison training"):
        JobSpec(**ok, sdc_faults=((1, 0, 0),))
    with pytest.raises(ValueError, match="outside"):
        JobSpec(**ok, sdc_buckets=2, sdc_faults=((9, 0, 0),))
    with pytest.raises(ValueError, match="slot"):
        JobSpec(**ok, sdc_buckets=2, sdc_faults=((1, -1, 0),))
    with pytest.raises(ValueError, match="bucket"):
        JobSpec(**ok, sdc_buckets=2, sdc_faults=((1, 0, 5),))
