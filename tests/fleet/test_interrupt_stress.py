"""Node kills at arbitrary times never crash the shared engine (hypothesis).

The chaos sweep kills nodes at hand-picked points.  Here up to three kills
land at drawn times on a small two-job fleet under both placements: at the
time of a drawn event of the clean run (mostly mid-collective, where the
messages are) or anywhere in it.  Every run must drain without an
unhandled engine failure, finish every job, leak no placement, and leave
every node's CPU and GPU idle with no waiters.
"""

from __future__ import annotations

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetScheduler, SharedCluster
from repro.fleet.chaos import _WIDE, _jobs


@functools.cache
def clean_event_times(placement):
    cluster = SharedCluster(**_WIDE)
    engine = cluster.engine
    times = []

    def step():
        type(engine).step(engine)
        times.append(engine.now)

    engine.step = step
    FleetScheduler(cluster, _jobs(2), placement=placement, seed=0).run()
    return times


def run_with_kills(placement, kills):
    cluster = SharedCluster(**_WIDE)
    scheduler = FleetScheduler(cluster, _jobs(2), placement=placement, seed=0)

    def killer(when, node):
        yield cluster.engine.timeout(when)
        if cluster.nodes[node].alive:
            scheduler.kill_node(node)

    for when, node in kills:
        scheduler.spawn(killer(when, node))
    return cluster, scheduler, scheduler.run()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["pack", "spread"]), st.data())
def test_kills_at_drawn_times_drain_cleanly(placement, data):
    times = clean_event_times(placement)
    when = st.one_of(st.sampled_from(times), st.floats(0.0, times[-1]))
    kills = data.draw(st.lists(
        st.tuples(when, st.integers(0, 7)), min_size=1, max_size=3
    ))
    cluster, scheduler, report = run_with_kills(placement, kills)
    assert all(j.status == "finished" for j in report.jobs), report
    assert report.leaked == []
    for res in cluster.world.cpus + cluster.world.gpus:
        assert res.in_use == 0 and res.queue_length == 0, res.name
