"""Fleet scheduler: gang placement, preemption, fault domains, requeue."""

from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import FleetScheduler, JobSpec, SharedCluster
from repro.fleet.chaos import _WIDE, _jobs
from repro.mpi import RetryPolicy


def run_fleet(specs, *, placement="pack", seed=0, max_queued=None,
              cluster_kw=None, trigger=None):
    cluster = SharedCluster(**(cluster_kw or {}))
    scheduler = FleetScheduler(
        cluster, specs, placement=placement, seed=seed, max_queued=max_queued
    )
    if trigger is not None:
        scheduler.spawn(trigger(cluster, scheduler))
    report = scheduler.run()
    return report, scheduler


def solo_params(spec, cluster_kw=None):
    """Final params of an uninterrupted single-job run of ``spec``."""
    clean = replace(spec, arrival=0.0, priority=0)
    _report, scheduler = run_fleet([clean], cluster_kw=cluster_kw)
    job = scheduler.jobs[spec.name]
    assert job.status == "finished"
    return job.final_params


def test_gang_waits_and_backfill():
    # big (4 learners) cannot start while job0 holds 2 of 4 one-slot
    # nodes; small (1 learner) backfills around the blocked gang.
    specs = [
        JobSpec(name="job0", n_learners=2, n_steps=4, seed=1),
        JobSpec(name="big", n_learners=4, n_steps=2, seed=2, arrival=1e-4),
        JobSpec(name="small", n_learners=1, n_steps=2, seed=3, arrival=2e-4),
    ]
    report, scheduler = run_fleet(
        specs,
        cluster_kw=dict(n_racks=2, nodes_per_rack=2, slots_per_node=1),
    )
    assert report.all_terminal
    assert all(j.status == "finished" for j in report.jobs)
    big = scheduler.jobs["big"].telemetry
    small = scheduler.jobs["small"].telemetry
    job0 = scheduler.jobs["job0"].telemetry
    assert big.first_start >= job0.finished  # gang waited for all 4 nodes
    assert small.first_start < big.first_start  # backfilled past the gang
    assert big.queue_wait > 0


def test_pack_vs_spread_rack_span():
    spec = [JobSpec(name="job0", n_learners=2, n_steps=2)]
    for placement, racks_wanted in (("pack", 1), ("spread", 2)):
        report, scheduler = run_fleet(spec, placement=placement)
        start = next(e for e in report.events if e.kind == "start")
        cluster = scheduler.cluster
        racks = {cluster.rack_of(n) for n in start.data["nodes"]}
        assert len(racks) == racks_wanted, placement


def test_colocated_jobs_contend_but_stay_bit_exact():
    spec = JobSpec(name="job0", n_learners=2, n_steps=4, seed=5)
    other = JobSpec(name="other", n_learners=2, n_steps=4, seed=6)
    solo_report, solo_sched = run_fleet([spec])
    shared_report, shared_sched = run_fleet([spec, other])
    # pack co-locates both jobs on the same nodes: genuinely slower...
    assert shared_report.makespan > solo_report.makespan
    # ...but numerically untouched.
    assert np.array_equal(
        shared_sched.jobs["job0"].final_params,
        solo_sched.jobs["job0"].final_params,
    )


def test_priority_preemption_checkpoints_and_stays_bit_exact():
    victim = JobSpec(
        name="victim", n_learners=4, n_steps=6, seed=11, checkpoint_every=2
    )
    vip = JobSpec(
        name="vip", n_learners=6, n_steps=2, seed=12, priority=5, arrival=1e-3
    )
    cluster_kw = dict(n_racks=2, nodes_per_rack=4, slots_per_node=1)
    report, scheduler = run_fleet([victim, vip], cluster_kw=cluster_kw)
    vjob = scheduler.jobs["victim"]
    assert all(j.status == "finished" for j in report.jobs)
    assert vjob.telemetry.preemptions >= 1
    assert vjob.telemetry.checkpoints >= 1
    preempt = next(e for e in report.events if e.kind == "preempt")
    assert preempt.data["beneficiary"] == "vip"
    # The vip ran in the middle of the victim's lifetime, on its slots.
    assert report.job("vip").finished < report.job("victim").finished
    # Preemption is a *controlled* fault: checkpoint/restore round-trips
    # to exactly the weights an uninterrupted run produces.
    assert np.array_equal(
        vjob.final_params, solo_params(victim, cluster_kw=cluster_kw)
    )


def test_shrink_mode_preemption_surrenders_one_learner():
    victim = JobSpec(
        name="victim", n_learners=3, n_steps=6, seed=21, preemption="shrink"
    )
    vip = JobSpec(
        name="vip", n_learners=6, n_steps=2, seed=22, priority=5, arrival=8e-4
    )
    cluster_kw = dict(n_racks=2, nodes_per_rack=4, slots_per_node=1)
    report, scheduler = run_fleet([victim, vip], cluster_kw=cluster_kw)
    vjob = scheduler.jobs["victim"]
    assert all(j.status == "finished" for j in report.jobs)
    assert vjob.telemetry.preemptions == 0  # never vacated, only shrank
    assert len(vjob.shrink_log) == 1
    # The reference: a fault-free run replaying the same controlled shrink.
    ref = replace(
        victim, arrival=0.0, scripted_shrinks=tuple(vjob.shrink_log)
    )
    assert np.array_equal(
        vjob.final_params, solo_params(ref, cluster_kw=cluster_kw)
    )


def kill_node_when_running(node_index):
    def trigger(cluster, scheduler):
        while True:
            yield cluster.engine.timeout(1e-4)
            running = [
                j for j in scheduler.jobs.values() if j.status == "running"
            ]
            if running and all(j.telemetry.steps >= 1 for j in running):
                scheduler.kill_node(node_index)
                return

    return trigger


def test_node_kill_emits_correlated_failures():
    # pack puts job0 and job1 on the same two nodes; killing one node
    # must shrink *both* jobs in the same instant and name both victims.
    specs = [
        JobSpec(name="job0", n_learners=2, n_steps=5, seed=31),
        JobSpec(name="job1", n_learners=2, n_steps=5, seed=32),
    ]
    report, scheduler = run_fleet(
        specs, trigger=kill_node_when_running(0)
    )
    assert all(j.status == "finished" for j in report.jobs)
    assert len(scheduler.jobs["job0"].shrink_log) == 1
    assert len(scheduler.jobs["job1"].shrink_log) == 1
    kill = next(e for e in report.events if e.kind == "node-kill")
    assert sorted(kill.data["jobs"]) == ["job0", "job1"]
    assert "job job0 slot 0" in kill.text
    assert "job job1 slot 0" in kill.text
    assert report.leaked == []
    # Survivors are bit-exact vs fault-free runs scripted with the shrink.
    for name in ("job0", "job1"):
        job = scheduler.jobs[name]
        ref = replace(
            job.spec, scripted_shrinks=tuple(job.shrink_log)
        )
        assert np.array_equal(job.final_params, solo_params(ref))


def test_node_kill_mid_collective_shrinks_both_jobs():
    # The kill lands while job0's allreduce is in flight, so the scheduler
    # interrupts the rank proxies of a live executor; abandoning the
    # attempt then fails their strands' AllOf, which must not crash the
    # shared engine (DESIGN §4h rule 1).
    landed = []

    def trigger(cluster, scheduler):
        job = scheduler.jobs["job0"]
        while job.active_executor is None:
            yield cluster.engine.timeout(1e-6)
        strands = job.active_executor.strands
        landed.append(sum(strand.is_alive for strand in strands))
        scheduler.kill_node(job.placement[0])

    report, scheduler = run_fleet(
        _jobs(2), cluster_kw=_WIDE, placement="pack", trigger=trigger
    )
    assert landed[0] > 0  # strands were still running when the node died
    assert all(j.status == "finished" for j in report.jobs)
    assert report.leaked == []
    for name in ("job0", "job1"):
        job = scheduler.jobs[name]
        assert len(job.shrink_log) == 1
        ref = replace(job.spec, scripted_shrinks=tuple(job.shrink_log))
        assert np.array_equal(job.final_params, solo_params(ref, cluster_kw=_WIDE))


def kill_all_job_nodes(name):
    def trigger(cluster, scheduler):
        job = scheduler.jobs[name]
        while job.telemetry.steps < 3:
            yield cluster.engine.timeout(1e-4)
        for node_index in list(job.placement):
            if cluster.nodes[node_index].alive:
                scheduler.kill_node(node_index)

    return trigger


def test_total_loss_requeues_from_checkpoint_with_seeded_backoff():
    spec = JobSpec(name="solo", n_learners=2, n_steps=6, seed=7,
                   checkpoint_every=2)
    report, scheduler = run_fleet([spec], trigger=kill_all_job_nodes("solo"))
    job = scheduler.jobs["solo"]
    assert job.status == "finished"
    assert job.requeues == 1
    assert job.final_iteration == 6
    requeue = next(
        e for e in report.events if e.kind == "requeue" and "delay" in e.data
    )
    assert requeue.data["delay"] > 0
    assert report.leaked == []
    # Restarted from the checkpoint on fresh nodes, bit-exact vs clean run.
    assert np.array_equal(job.final_params, solo_params(spec))


def test_requeue_jitter_is_seeded_and_reproducible():
    spec = JobSpec(name="solo", n_learners=2, n_steps=6, seed=7,
                   checkpoint_every=2)

    def requeue_delay(seed):
        report, _sched = run_fleet(
            [spec], seed=seed, trigger=kill_all_job_nodes("solo")
        )
        event = next(
            e for e in report.events
            if e.kind == "requeue" and "delay" in e.data
        )
        return event.data["delay"], [
            (e.t, e.kind, e.text) for e in report.events
        ], report.makespan

    delay_a, events_a, makespan_a = requeue_delay(0)
    delay_b, events_b, makespan_b = requeue_delay(0)
    delay_c, _events_c, _makespan_c = requeue_delay(1)
    # Same fleet seed: bit-identical schedule, events and makespan.
    assert delay_a == delay_b
    assert events_a == events_b
    assert makespan_a == makespan_b
    # Different fleet seed: different jitter draw.
    assert delay_a != delay_c


def test_admission_limits_reject_instead_of_queueing_forever():
    specs = [
        JobSpec(name="hog", n_learners=4, n_steps=5, seed=41),
        JobSpec(name="wait0", n_learners=4, n_steps=2, seed=42, arrival=1e-4),
        JobSpec(name="wait1", n_learners=4, n_steps=2, seed=43, arrival=2e-4),
        JobSpec(name="over", n_learners=4, n_steps=2, seed=44, arrival=3e-4),
    ]
    report, _scheduler = run_fleet(
        specs, max_queued=2,
        cluster_kw=dict(n_racks=2, nodes_per_rack=2, slots_per_node=1),
    )
    assert report.job("over").status == "rejected"
    assert report.job("wait0").status == "finished"
    assert report.job("wait1").status == "finished"
    assert report.all_terminal


def test_oversized_job_is_rejected_outright():
    report, _scheduler = run_fleet(
        [JobSpec(name="huge", n_learners=99, n_steps=1)]
    )
    assert report.job("huge").status == "rejected"


def test_fleet_metrics_are_populated():
    specs = [
        JobSpec(name=f"job{i}", n_learners=2, n_steps=4, seed=50 + i)
        for i in range(3)
    ]
    report, _scheduler = run_fleet(specs)
    assert report.makespan > 0
    assert 0 < report.utilization <= 1
    assert 0 < report.goodput <= report.utilization


def test_jobspec_carries_one_validated_retry_policy():
    """A job's watchdog, retry budget and backoff are one RetryPolicy; an
    invalid one fails when the spec is built, never mid-run inside the
    job's first collective."""
    spec = JobSpec(name="job0")
    assert spec.retry == RetryPolicy(timeout=5.0, max_retries=2, backoff=0.05)
    for bad in ({"timeout": -1.0}, {"timeout": 0.0}, {"max_retries": -1}):
        with pytest.raises(ValueError, match="must be"):
            JobSpec(name="job0", retry=RetryPolicy(**bad))
    custom = JobSpec(name="job1", retry=RetryPolicy(2.0, 1, 0.1))
    report, _scheduler = run_fleet([custom])
    assert report.all_terminal


@pytest.mark.parametrize("overrides, match", [
    (dict(arrival=float("nan")), "arrival"),
    (dict(arrival=-1.0), "arrival"),
    (dict(compute_time=-1.0), "compute_time"),
    (dict(compute_time=float("nan")), "compute_time"),
    (dict(compute_time=float("inf")), "compute_time"),
    (dict(checkpoint_time=-1.0), "checkpoint_time"),
    (dict(checkpoint_time=float("nan")), "checkpoint_time"),
    (dict(checkpoint_every=-2), "checkpoint_every"),
])
def test_jobspec_rejects_bad_times_and_periods(overrides, match):
    with pytest.raises(ValueError, match=match):
        JobSpec(name="job0", **overrides)


@pytest.mark.parametrize("overrides, match", [
    (dict(max_requeues=-1), "max_requeues"),
    (dict(requeue_base=-1.0), "requeue_base"),
    (dict(requeue_base=float("nan")), "requeue_base"),
    (dict(requeue_base=float("inf")), "requeue_base"),
    (dict(max_queued=-1), "max_queued"),
])
def test_scheduler_rejects_bad_requeue_and_queue_limits(overrides, match):
    with pytest.raises(ValueError, match=match):
        FleetScheduler(SharedCluster(), [JobSpec(name="job0")], **overrides)


def test_zero_limits_and_times_are_accepted():
    spec = JobSpec(name="job0", arrival=0.0, checkpoint_time=0.0,
                   checkpoint_every=0)
    FleetScheduler(SharedCluster(), [spec], max_requeues=0,
                   requeue_base=0.0, max_queued=0)
