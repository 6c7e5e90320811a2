"""Unit tests for the max-min fair flow fabric."""

import math

import pytest

from repro.net import Fabric, LinkParams, NetworkParams, fat_tree, star
from repro.sim import Engine

FAST = NetworkParams(
    host_link=LinkParams(bandwidth=100.0, latency=0.0),
    fabric_link=LinkParams(bandwidth=100.0, latency=0.0),
    software_overhead=0.0,
)


def make_fabric(n_hosts=4, topo_fn=star, **kw):
    eng = Engine()
    topo = topo_fn(n_hosts, FAST)
    fab = Fabric(eng, topo, **kw)
    return eng, fab


def test_single_transfer_time():
    eng, fab = make_fabric()
    ev = fab.transfer(0, 1, 200.0)
    eng.run(ev)
    # 200 bytes at 100 B/s over an uncontended path
    assert eng.now == pytest.approx(2.0)


def test_latency_and_overhead_added():
    eng = Engine()
    params = NetworkParams(
        host_link=LinkParams(bandwidth=100.0, latency=0.5),
        fabric_link=LinkParams(bandwidth=100.0, latency=0.5),
    )
    topo = star(2, params)
    fab = Fabric(eng, topo, software_overhead=0.25)
    ev = fab.transfer(0, 1, 100.0)
    eng.run(ev)
    # 0.25 overhead + 2 * 0.5 latency + 1.0 serialization
    assert eng.now == pytest.approx(2.25)


def test_zero_byte_transfer_pays_only_latency():
    eng = Engine()
    params = NetworkParams(
        host_link=LinkParams(bandwidth=100.0, latency=0.5),
        fabric_link=LinkParams(bandwidth=100.0, latency=0.5),
    )
    fab = Fabric(eng, star(2, params), software_overhead=0.1)
    ev = fab.transfer(0, 1, 0.0)
    eng.run(ev)
    assert eng.now == pytest.approx(1.1)


def test_loopback_uses_memcpy_rate():
    eng, fab = make_fabric(loopback_bandwidth=50.0)
    ev = fab.transfer(2, 2, 100.0)
    eng.run(ev)
    assert eng.now == pytest.approx(2.0)


def test_negative_bytes_rejected():
    _eng, fab = make_fabric()
    with pytest.raises(ValueError):
        fab.transfer(0, 1, -1.0)


def test_disjoint_flows_do_not_contend():
    eng, fab = make_fabric(4)
    e1 = fab.transfer(0, 1, 100.0)
    e2 = fab.transfer(2, 3, 100.0)
    done = eng.all_of([e1, e2])
    eng.run(done)
    assert eng.now == pytest.approx(1.0)


def test_shared_link_halves_rate():
    eng, fab = make_fabric(4)
    # Both flows converge on link switch->h2.
    e1 = fab.transfer(0, 2, 100.0)
    e2 = fab.transfer(1, 2, 100.0)
    eng.run(eng.all_of([e1, e2]))
    assert eng.now == pytest.approx(2.0)


def test_three_flows_share_bottleneck_equally():
    eng, fab = make_fabric(4)
    evs = [fab.transfer(src, 3, 100.0) for src in (0, 1, 2)]
    eng.run(eng.all_of(evs))
    assert eng.now == pytest.approx(3.0)


def test_rates_rebalance_after_completion():
    eng, fab = make_fabric(4)
    times = {}

    def watch(name, ev):
        yield ev
        times[name] = eng.now

    ea = fab.transfer(0, 2, 100.0)
    eb = fab.transfer(1, 2, 300.0)
    pa = eng.process(watch("a", ea))
    pb = eng.process(watch("b", eb))
    eng.run(eng.all_of([pa, pb]))
    # Shared 100 B/s bottleneck: both run at 50 B/s until a completes at t=2
    # with b having 200 bytes left, then b runs at 100 B/s: t = 2 + 2 = 4.
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(4.0)


def test_staggered_start_shares_fairly():
    eng, fab = make_fabric(4)
    times = {}

    def second_flow():
        yield eng.timeout(1.0)
        ev = fab.transfer(1, 2, 100.0)
        yield ev
        times["b"] = eng.now

    def first_flow():
        ev = fab.transfer(0, 2, 200.0)
        yield ev
        times["a"] = eng.now

    eng.process(first_flow())
    eng.process(second_flow())
    eng.run()
    # a: 100 bytes alone in [0,1), then 50 B/s shared until it finishes.
    # At t=1, a has 100 left, b has 100; both at 50 B/s -> both done at t=3.
    assert times["a"] == pytest.approx(3.0)
    assert times["b"] == pytest.approx(3.0)


def test_maxmin_not_just_equal_split():
    # Flow A crosses two links; B contends on the first, C on the second.
    # Max-min: A=B=C=50 on a 100 B/s topology is the equal outcome here,
    # but removing B must give A 100 on link1 only if link2 allows it.
    eng, fab = make_fabric(6)
    times = {}

    def run_flow(name, src, dst, nbytes):
        ev = fab.transfer(src, dst, nbytes)
        yield ev
        times[name] = eng.now

    eng.process(run_flow("a", 0, 1, 100.0))
    eng.process(run_flow("b", 0, 2, 100.0))  # shares h0->switch with a
    eng.process(run_flow("c", 3, 1, 100.0))  # shares switch->h1 with a
    eng.run()
    # All three see a 2-way shared bottleneck -> 50 B/s each initially.
    # a finishes at 2.0; b and c then speed up to 100 B/s... but they only
    # have 0 left? No: all are 100 bytes at 50 B/s -> all finish at 2.0.
    assert times == {"a": pytest.approx(2.0), "b": pytest.approx(2.0), "c": pytest.approx(2.0)}


def test_fat_tree_cross_leaf_contention():
    eng = Engine()
    topo = fat_tree(8, FAST, hosts_per_leaf=4)
    fab = Fabric(eng, topo)
    # 4 hosts on leaf0 all send to distinct hosts on leaf1: the leaf uplink
    # fans out across spines; with non-blocking sizing, aggregate capacity
    # suffices, though individual spine links may collide via ECMP.
    evs = [fab.transfer(i, 4 + i, 100.0) for i in range(4)]
    eng.run(eng.all_of(evs))
    # Completion no faster than uncontended, no slower than full serialization.
    assert 1.0 - 1e-9 <= eng.now <= 4.0 + 1e-9


def test_stats_track_bytes():
    eng, fab = make_fabric()
    ev = fab.transfer(0, 1, 123.0)
    eng.run(ev)
    assert fab.stats.transfers_started == 1
    assert fab.stats.transfers_completed == 1
    assert fab.stats.bytes_completed == pytest.approx(123.0)
    assert sum(fab.stats.link_bytes.values()) == pytest.approx(2 * 123.0)


def test_many_concurrent_flows_complete():
    eng, fab = make_fabric(8)
    evs = [
        fab.transfer(a, b, 10.0 * (1 + a))
        for a in range(8)
        for b in range(8)
        if a != b
    ]
    eng.run(eng.all_of(evs))
    assert fab.stats.transfers_completed == len(evs)


@pytest.mark.parametrize("nbytes", [math.nan, math.inf])
def test_non_finite_bytes_rejected(nbytes):
    _eng, fab = make_fabric()
    with pytest.raises(ValueError):
        fab.transfer(0, 1, nbytes)
    assert fab.stats.transfers_started == 0


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_non_finite_scale_factor_rejected(factor):
    _eng, fab = make_fabric()
    with pytest.raises(ValueError):
        fab.scale_links([0], factor)
    with pytest.raises(ValueError):
        fab.scale_host_links(0, factor)
    assert fab.link_bandwidth(0) == 100.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loopback_bandwidth": math.inf},
        {"loopback_bandwidth": math.nan},
        {"per_flow_cap": math.nan},
        {"software_overhead": math.nan},
    ],
)
def test_non_finite_fabric_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        make_fabric(**kwargs)


def test_infinite_per_flow_cap_is_the_default_and_legal():
    eng, fab = make_fabric(per_flow_cap=math.inf)
    ev = fab.transfer(0, 1, 200.0)
    eng.run(ev)
    assert eng.now == pytest.approx(2.0)


def test_degrade_and_restore_recovers_nominal_bandwidth_exactly():
    _eng, fab = make_fabric()
    fab.scale_links([0, 1], 0.3)
    assert fab.link_bandwidth(0) == 100.0 * 0.3
    fab.scale_links([0], 1.0)
    assert fab.link_bandwidth(0) == 100.0
    assert fab.link_bandwidth(1) == 100.0 * 0.3


def test_scale_links_rejects_before_changing_anything():
    _eng, fab = make_fabric()
    with pytest.raises(ValueError, match="out of range"):
        fab.scale_links([0, 999], 0.5)
    assert fab.link_bandwidth(0) == 100.0
    with pytest.raises(ValueError, match="out of range"):
        fab.scale_links(iter([1, -1]), 0.5)
    assert fab.link_bandwidth(1) == 100.0


@pytest.mark.parametrize("src, dst", [(77, 77), (-1, -1), (0, 77), (77, 0)])
def test_transfer_rejects_unknown_hosts_even_as_loopback(src, dst):
    _eng, fab = make_fabric(4)
    with pytest.raises(ValueError, match="out of range"):
        fab.transfer(src, dst, 10.0)
    assert fab.stats.transfers_started == 0
