"""Elastic grow-after-shrink, proactive migration and lineage replay.

The fleet-level counterparts of ``tests/train/test_grow.py``: a shrunk
job reclaims learners when the scheduler has slots to spare (node
revival or a neighbour finishing), a sick-but-alive node is drained by
the health monitor before the watchdog fires, and every grown run stays
bit-exact against a fault-free reference replaying its recorded lineage
(``JobSpec.scripted_shrinks`` + ``scripted_grows``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import (
    FleetScheduler,
    HealthPolicy,
    JobSpec,
    SharedCluster,
    validate_scripted_lineage,
)
from repro.train.faults import DrainPolicy

TIGHT = dict(n_racks=2, nodes_per_rack=2, slots_per_node=1)


def run_fleet(specs, *, placement="pack", seed=0, cluster_kw=None,
              trigger=None, health=None):
    cluster = SharedCluster(**(cluster_kw or TIGHT))
    scheduler = FleetScheduler(
        cluster, specs, placement=placement, seed=seed, health=health
    )
    if trigger is not None:
        scheduler.spawn(trigger(cluster, scheduler))
    report = scheduler.run()
    return report, scheduler


def lineage_reference_params(spec, shrinks, grows, cluster_kw=None):
    """Fault-free solo run replaying the recorded lineage as a script."""
    ref = replace(
        spec, arrival=0.0, priority=0, elastic_grow=False,
        scripted_shrinks=tuple(shrinks), scripted_grows=tuple(grows),
    )
    _report, scheduler = run_fleet([ref], cluster_kw=cluster_kw)
    job = scheduler.jobs[spec.name]
    assert job.status == "finished"
    return job.final_params


def kill_then_revive(job_name="long", revive_after=3e-4):
    """Kill one of the job's nodes mid-run, revive it a bit later."""

    def trigger(cluster, scheduler):
        job = scheduler.jobs[job_name]
        while job.telemetry.steps < 1:
            yield cluster.engine.timeout(1e-4)
        node = job.placement[-1]
        scheduler.kill_node(node)
        yield cluster.engine.timeout(revive_after)
        scheduler.revive_node(node)

    return trigger


# -- grow-after-shrink --------------------------------------------------------

def test_grow_back_after_revival_is_bit_exact():
    """The tentpole: kill -> shrink -> revive -> grow back to full gang,
    and the grown run's weights equal the scripted shrink+grow replay."""
    spec = JobSpec(name="long", n_learners=2, n_steps=8, seed=500,
                   elastic_grow=True, checkpoint_every=3)
    filler = JobSpec(name="short", n_learners=2, n_steps=3, seed=501)
    report, scheduler = run_fleet([spec, filler], trigger=kill_then_revive())
    job = scheduler.jobs["long"]
    assert job.status == "finished"
    assert len(job.shrink_log) == 1
    assert len(job.grow_log) == 1
    assert job.telemetry.grows == 1
    assert scheduler.jobs["short"].grow_log == ()  # not elastic: untouched
    kinds = [e.kind for e in report.events]
    for wanted in ("node-kill", "revive", "grow-grant", "grow"):
        assert wanted in kinds
    ref = lineage_reference_params(spec, job.shrink_log, job.grow_log)
    np.testing.assert_array_equal(job.final_params, ref)


def test_no_grow_without_elastic_flag():
    spec = JobSpec(name="long", n_learners=2, n_steps=8, seed=500)
    filler = JobSpec(name="short", n_learners=2, n_steps=3, seed=501)
    report, scheduler = run_fleet([spec, filler], trigger=kill_then_revive())
    job = scheduler.jobs["long"]
    assert job.status == "finished"
    assert job.grow_log == ()
    assert not any(e.kind == "grow-grant" for e in report.events)


def test_granted_node_killed_before_join_is_revoked():
    """A grant whose node dies before the iteration boundary must be
    revoked — never half-joined — and the slot returned to the ledger."""
    spec = JobSpec(name="long", n_learners=2, n_steps=8, seed=500,
                   elastic_grow=True)
    filler = JobSpec(name="short", n_learners=2, n_steps=3, seed=501)

    def trigger(cluster, scheduler):
        job = scheduler.jobs["long"]
        while job.telemetry.steps < 1:
            yield cluster.engine.timeout(1e-4)
        node = job.placement[-1]
        scheduler.kill_node(node)
        while node in job.placement:  # wait for the shrink to land
            yield cluster.engine.timeout(1e-4)
        scheduler.revive_node(node)
        # The revival's kick granted the freed slot back synchronously.
        assert job.pending_grows == (node,)
        scheduler.kill_node(node)  # dies again before the boundary
        assert job.pending_grows == ()

    report, scheduler = run_fleet([spec, filler], trigger=trigger)
    job = scheduler.jobs["long"]
    assert job.status == "finished"
    revoked = next(e for e in report.events if e.kind == "grow-revoked")
    dead = revoked.data["node"]
    # The revoked grant never became a learner; any later regrow (after
    # "short" frees its slots) lands on a different, living node.
    assert dead not in job.placement
    grows = [e for e in report.events if e.kind == "grow"]
    assert all(e.data["node"] != dead for e in grows)
    assert report.leaked == []
    ref = lineage_reference_params(spec, job.shrink_log, job.grow_log)
    np.testing.assert_array_equal(job.final_params, ref)


def test_queued_gang_outranks_grow_back():
    """A queued job gets freed capacity before any shrunk job regrows."""
    spec = JobSpec(name="long", n_learners=2, n_steps=10, seed=500,
                   elastic_grow=True)
    filler = JobSpec(name="short", n_learners=2, n_steps=3, seed=501)
    late = JobSpec(name="late", n_learners=2, n_steps=2, seed=502,
                   arrival=2e-4)
    report, scheduler = run_fleet(
        [spec, filler, late], trigger=kill_then_revive()
    )
    assert all(j.status == "finished" for j in report.jobs)
    events = report.events
    late_start = next(
        e.t for e in events if e.kind == "start" and e.data["job"] == "late"
    )
    first_grant = next(e.t for e in events if e.kind == "grow-grant")
    assert late_start <= first_grant


# -- checkpointed lineage round-trip ------------------------------------------

def test_saved_lineage_roundtrip_empty_logs():
    """A preempted job with no shrinks or grows saves (and restores) an
    empty lineage — the 3-tuple's degenerate case."""
    victim = JobSpec(name="victim", n_learners=2, n_steps=6, seed=31,
                     checkpoint_every=2, elastic_grow=True)
    vip = JobSpec(name="vip", n_learners=4, n_steps=2, seed=32,
                  priority=5, arrival=8e-4)
    report, scheduler = run_fleet([victim, vip])
    job = scheduler.jobs["victim"]
    assert job.telemetry.preemptions >= 1
    assert job.saved is not None
    ckpt, shrinks, grows = job.saved
    assert shrinks == () and grows == ()
    assert job.status == "finished"
    assert job.shrink_log == () and job.grow_log == ()
    ref = lineage_reference_params(victim, (), ())
    np.testing.assert_array_equal(job.final_params, ref)


def test_saved_lineage_roundtrip_populated_logs():
    """A job that shrank and grew, then checkpoints, carries both logs
    through the saved tuple; a restore resumes the same lineage and the
    final params still replay bit-exactly."""
    spec = JobSpec(name="long", n_learners=2, n_steps=10, seed=510,
                   elastic_grow=True, checkpoint_every=2,
                   preemption="requeue")
    filler = JobSpec(name="short", n_learners=2, n_steps=3, seed=511)
    vip = JobSpec(name="vip", n_learners=3, n_steps=2, seed=512,
                  priority=5, arrival=28e-4)
    report, scheduler = run_fleet(
        [spec, filler, vip], trigger=kill_then_revive()
    )
    job = scheduler.jobs["long"]
    assert job.status == "finished"
    assert job.telemetry.preemptions >= 1  # vip preempted it mid-lineage
    assert job.saved is not None
    _ckpt, shrinks, grows = job.saved
    assert len(shrinks) == 1 and len(grows) == 1
    # The restored run kept the pre-preemption lineage as its prefix.
    assert list(job.shrink_log)[: len(shrinks)] == list(shrinks)
    assert list(job.grow_log)[: len(grows)] == list(grows)
    ref = lineage_reference_params(spec, job.shrink_log, job.grow_log)
    np.testing.assert_array_equal(job.final_params, ref)


# -- scripted-lineage validation ----------------------------------------------

def test_scripted_lineage_valid_scripts_construct():
    JobSpec(name="a", n_learners=3, n_steps=6,
            scripted_shrinks=((1, 2), (3, 0)))
    JobSpec(name="b", n_learners=2, n_steps=6,
            scripted_shrinks=((1, 1),), scripted_grows=((3, 1),))
    # Same-iteration grow (top of step) then shrink (post-compute).
    JobSpec(name="c", n_learners=2, n_steps=6,
            scripted_grows=((2, 2),), scripted_shrinks=((2, 1),))
    validate_scripted_lineage(2, 4, ((0, 1),), ((1, 1),))


def test_scripted_lineage_rejects_out_of_order_iterations():
    with pytest.raises(ValueError, match="non-decreasing"):
        JobSpec(name="a", n_learners=3, n_steps=6,
                scripted_shrinks=((3, 0), (1, 0)))
    with pytest.raises(ValueError, match="non-decreasing"):
        JobSpec(name="a", n_learners=2, n_steps=6,
                scripted_grows=((3, 2), (1, 2)))


def test_scripted_lineage_rejects_out_of_range_iteration():
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        JobSpec(name="a", n_learners=2, n_steps=4,
                scripted_shrinks=((4, 0),))


def test_scripted_lineage_rejects_bad_slots():
    with pytest.raises(ValueError, match="slot outside"):
        JobSpec(name="a", n_learners=3, n_steps=6,
                scripted_shrinks=((1, 3),))
    # After one shrink only slots 0..1 remain live.
    with pytest.raises(ValueError, match="slot outside"):
        JobSpec(name="a", n_learners=3, n_steps=6,
                scripted_shrinks=((1, 0), (2, 2)))
    # Grown learners append at the end: slot must equal the live count.
    with pytest.raises(ValueError, match="expected slot 2"):
        JobSpec(name="a", n_learners=2, n_steps=6,
                scripted_grows=((1, 0),))


def test_scripted_lineage_rejects_dropping_last_learner():
    with pytest.raises(ValueError, match="last learner"):
        JobSpec(name="a", n_learners=2, n_steps=6,
                scripted_shrinks=((1, 0), (2, 0)))


# -- proactive migration ------------------------------------------------------

FAST_HEALTH = HealthPolicy(
    policy=DrainPolicy(link_factor_threshold=0.5, strikes=2),
    poll_every=2e-4,
)


def degrade_node(job_name="long", factor=0.05):
    """Degrade the job's last-placed node once it has made progress and
    capacity for a replacement exists."""

    def trigger(cluster, scheduler):
        job = scheduler.jobs[job_name]
        short = scheduler.jobs["short"]
        from repro.fleet.jobs import TERMINAL

        while job.telemetry.steps < 1 or short.status not in TERMINAL:
            yield cluster.engine.timeout(1e-4)
        node = job.placement[-1]
        cluster.degrade_node_links(node, factor)

    return trigger


def test_health_monitor_drains_and_migrates_before_watchdog():
    spec = JobSpec(name="long", n_learners=2, n_steps=10, seed=520,
                   checkpoint_every=4)
    filler = JobSpec(name="short", n_learners=2, n_steps=2, seed=521)
    report, scheduler = run_fleet(
        [spec, filler], trigger=degrade_node(), health=FAST_HEALTH
    )
    job = scheduler.jobs["long"]
    assert job.status == "finished"
    assert job.telemetry.migrations == 1
    assert job.telemetry.retries == 0  # moved before any watchdog fired
    assert len(job.shrink_log) == 1 and len(job.grow_log) == 1
    drain = next(e for e in report.events if e.kind == "drain")
    assert "degraded links" in drain.text
    migrate = next(e for e in report.events if e.kind == "migrate")
    assert migrate.data["job"] == "long"
    assert migrate.data["node"] == drain.data["node"]
    assert "replacement" in migrate.data
    # Migration is a shrink+grow pair, so the lineage replay still holds.
    ref = lineage_reference_params(spec, job.shrink_log, job.grow_log)
    np.testing.assert_array_equal(job.final_params, ref)
    assert report.leaked == []


def test_healthy_fleet_with_monitor_never_drains():
    spec = JobSpec(name="long", n_learners=2, n_steps=6, seed=530)
    with_mon, s1 = run_fleet([spec], health=FAST_HEALTH)
    without, s2 = run_fleet([spec])
    assert not any(e.kind in ("drain", "migrate") for e in with_mon.events)
    assert with_mon.makespan == without.makespan
    np.testing.assert_array_equal(
        s1.jobs["long"].final_params, s2.jobs["long"].final_params
    )


def test_finish_log_line_reports_grows():
    spec = JobSpec(name="long", n_learners=2, n_steps=8, seed=500,
                   elastic_grow=True)
    filler = JobSpec(name="short", n_learners=2, n_steps=3, seed=501)
    report, _scheduler = run_fleet([spec, filler], trigger=kill_then_revive())
    finish = next(
        e for e in report.events
        if e.kind == "finish" and e.data["job"] == "long"
    )
    assert "1 shrinks, 1 grows" in finish.text
    assert len(report.job("long").grows) == 1
    assert len(report.job("long").shrinks) == 1
    assert "grows=1" in report.format()
