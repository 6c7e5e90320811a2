"""Differential tests: the next-hop tables route every pair as per-pair BFS does.

``Topology.route`` walks per-destination tables built lazily by one reverse
BFS each (DESIGN.md §4n, "Routing").  ``route_reference.reference_route``
is the per-pair BFS it replaced.  The paths must be equal, not merely of
equal length: ECMP picks among the same candidates, in the same order,
with the same hash.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import LinkParams, NetworkParams, fat_tree, full_mesh, ring, star
from tests.net.route_reference import reference_route

PARAMS = NetworkParams(
    host_link=LinkParams(bandwidth=100.0, latency=1e-6),
    fabric_link=LinkParams(bandwidth=400.0, latency=2e-6),
)
CABLE = LinkParams(bandwidth=50.0, latency=1e-6)


@st.composite
def topologies(draw, max_hosts: int = 64):
    kind = draw(st.sampled_from(["fat_tree", "fat_tree", "star", "ring", "mesh"]))
    if kind == "fat_tree":
        topo = fat_tree(
            draw(st.integers(1, max_hosts)),
            PARAMS,
            hosts_per_leaf=draw(st.integers(1, 8)),
            oversubscription=draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])),
        )
    elif kind == "star":
        topo = star(draw(st.integers(1, 16)), PARAMS)
    elif kind == "ring":
        topo = ring(draw(st.integers(2, 16)), PARAMS)
    else:
        topo = full_mesh(draw(st.integers(2, 8)), PARAMS)
    if draw(st.booleans()):
        vertex = draw(st.sampled_from(sorted(topo.vertices)))
        topo = topo.with_scaled_links(vertex, draw(st.sampled_from([0.5, 2.0])))
    return topo


def assert_every_pair_matches(topo, order):
    pairs = [(a, b) for a in range(topo.n_hosts) for b in range(topo.n_hosts)]
    order.shuffle(pairs)
    for a, b in pairs:
        assert topo.route(a, b) == reference_route(topo, a, b), (topo.name, a, b)


@settings(max_examples=40, deadline=None)
@given(topo=topologies(), order=st.randoms(use_true_random=False))
def test_every_pair_routes_as_the_per_pair_bfs(topo, order):
    assert_every_pair_matches(topo, order)


@settings(max_examples=30, deadline=None)
@given(
    topo=topologies(max_hosts=16),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
        min_size=1,
        max_size=12,
    ),
    order=st.randoms(use_true_random=False),
)
def test_add_cable_invalidates_the_tables(topo, steps, order):
    """Cables added between queries (to existing vertices or a new switch)
    change later routes exactly as they change the per-pair BFS."""
    n = topo.n_hosts
    for add, a, b in steps:
        if add:
            vertices = sorted(topo.vertices) + ["s:extra"]
            u, v = vertices[a % len(vertices)], vertices[b % len(vertices)]
            if u != v:
                topo.add_cable(u, v, CABLE)
        else:
            src, dst = a % n, b % n
            assert topo.route(src, dst) == reference_route(topo, src, dst)
    assert_every_pair_matches(topo, order)
