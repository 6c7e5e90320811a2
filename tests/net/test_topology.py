"""Unit tests for topologies and routing."""

import math

import pytest

from repro.net import LinkParams, NetworkParams, fat_tree, full_mesh, ring, star
from repro.net.topology import Topology

SIMPLE = NetworkParams(
    host_link=LinkParams(bandwidth=100.0, latency=1e-3),
    fabric_link=LinkParams(bandwidth=100.0, latency=1e-3),
    software_overhead=0.0,
)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(bandwidth=0.0, latency=0.0)
    with pytest.raises(ValueError):
        LinkParams(bandwidth=1.0, latency=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LinkParams(bandwidth=bad, latency=0.0)
        with pytest.raises(ValueError):
            LinkParams(bandwidth=1.0, latency=bad)


def test_network_params_reject_nan_per_flow_cap():
    link = LinkParams(bandwidth=1.0, latency=0.0)
    with pytest.raises(ValueError):
        NetworkParams(host_link=link, fabric_link=link, per_flow_cap=math.nan)
    assert NetworkParams(host_link=link, fabric_link=link).per_flow_cap == math.inf


def test_serialization_time():
    lp = LinkParams(bandwidth=200.0, latency=0.0)
    assert lp.serialization_time(100.0) == pytest.approx(0.5)


def test_star_routes_two_hops():
    topo = star(4, SIMPLE)
    path = topo.route(0, 3)
    assert len(path) == 2
    assert topo.links[path[0]].src == "h0"
    assert topo.links[path[-1]].dst == "h3"


def test_route_loopback_empty():
    topo = star(4, SIMPLE)
    assert topo.route(2, 2) == ()
    assert topo.path_bottleneck(()) == float("inf")


def test_route_is_cached_and_deterministic():
    topo = fat_tree(16, SIMPLE, hosts_per_leaf=4)
    p1 = topo.route(0, 9)
    p2 = topo.route(0, 9)
    assert p1 == p2
    # fresh topology gives identical routing
    topo2 = fat_tree(16, SIMPLE, hosts_per_leaf=4)
    assert topo2.route(0, 9) == p1


def test_fat_tree_hop_counts():
    topo = fat_tree(16, SIMPLE, hosts_per_leaf=4)
    # same leaf: host->leaf->host
    assert len(topo.route(0, 1)) == 2
    # cross leaf: host->leaf->spine->leaf->host
    assert len(topo.route(0, 15)) == 4


def test_fat_tree_single_leaf_degenerates_to_star():
    topo = fat_tree(3, SIMPLE, hosts_per_leaf=4)
    assert len(topo.route(0, 2)) == 2


def test_fat_tree_oversubscription_shrinks_uplinks():
    non_blocking = fat_tree(8, SIMPLE, hosts_per_leaf=4, oversubscription=1.0)
    oversub = fat_tree(8, SIMPLE, hosts_per_leaf=4, oversubscription=2.0)

    def uplink_bw(topo):
        return sum(
            l.params.bandwidth
            for l in topo.links
            if l.src == "s:leaf0" and l.dst.startswith("s:spine")
        )

    assert uplink_bw(oversub) == pytest.approx(uplink_bw(non_blocking) / 2)


def test_fat_tree_validation():
    with pytest.raises(ValueError):
        fat_tree(0, SIMPLE)
    with pytest.raises(ValueError):
        fat_tree(8, SIMPLE, hosts_per_leaf=0)
    with pytest.raises(ValueError):
        fat_tree(8, SIMPLE, oversubscription=0.5)


@pytest.mark.parametrize(
    "kwargs, parameter",
    [
        ({"hosts_per_leaf": 2.5}, "hosts_per_leaf"),
        ({"hosts_per_leaf": 4.0}, "hosts_per_leaf"),
        ({"hosts_per_leaf": True}, "hosts_per_leaf"),
        ({"oversubscription": math.nan}, "oversubscription"),
        ({"oversubscription": math.inf}, "oversubscription"),
    ],
)
def test_fat_tree_rejects_bad_parameters(kwargs, parameter):
    with pytest.raises(ValueError, match=parameter):
        fat_tree(8, SIMPLE, **kwargs)


@pytest.mark.parametrize("src, dst", [(9, 9), (-1, -1), (0, 8), (8, 0), (-1, 0)])
def test_route_validates_both_ranks_before_loopback(src, dst):
    with pytest.raises(ValueError, match="out of range"):
        star(8, SIMPLE).route(src, dst)


def test_ring_neighbors_one_hop():
    topo = ring(6, SIMPLE)
    assert len(topo.route(2, 3)) == 1
    assert len(topo.route(5, 0)) == 1  # wraps around
    # opposite side of ring: 3 hops either way
    assert len(topo.route(0, 3)) == 3


def test_ring_validation():
    with pytest.raises(ValueError):
        ring(1, SIMPLE)


def test_full_mesh_single_hop_everywhere():
    topo = full_mesh(5, SIMPLE)
    for a in range(5):
        for b in range(5):
            if a != b:
                assert len(topo.route(a, b)) == 1


def test_path_latency_sums_links():
    topo = star(2, SIMPLE)
    path = topo.route(0, 1)
    assert topo.path_latency(path) == pytest.approx(2e-3)


def test_host_rank_bounds():
    topo = star(2, SIMPLE)
    with pytest.raises(ValueError):
        topo.host(2)
    with pytest.raises(ValueError):
        topo.host(-1)


def test_no_route_raises():
    topo = Topology(name="broken", n_hosts=2)
    topo.add_cable("h0", "s:a", SIMPLE.host_link)
    # h1 never wired up
    with pytest.raises(ValueError, match="no route"):
        topo.route(0, 1)


def test_equality_and_repr_ignore_derived_state():
    a, b = fat_tree(8, SIMPLE), fat_tree(8, SIMPLE)
    assert a == b
    a.route(0, 7)
    assert a == b
    text = repr(a)
    assert "_route_cache" not in text and "_adjacency" not in text
    assert repr(b) == text


def test_topology_built_from_links_routes():
    links = list(star(2, SIMPLE).links)
    copy = Topology(name="copy", n_hosts=2, links=links)
    assert copy.route(0, 1) == star(2, SIMPLE).route(0, 1)
    copy.add_cable("h0", "h1", SIMPLE.host_link)
    assert len(links) == 4  # the caller's list is not shared
    assert copy.route(0, 1) == (4,)


def test_topology_rejects_misindexed_links():
    link = star(2, SIMPLE).links[1]
    with pytest.raises(ValueError, match="index 1 but sits at position 0"):
        Topology(name="bad", n_hosts=2, links=[link])

