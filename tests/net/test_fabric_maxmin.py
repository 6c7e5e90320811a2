"""The fabric's component-local max-min solve against the full reference.

After every reallocation, every active flow's rate must equal (``==``, not
approximately) the rate a full progressive filling over all active
flows gives it (``maxmin_reference.maxmin_rates``) — including flows in
components that were not re-solved — and the rates must carry a max-min
certificate.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import simulate_allreduce
from repro.net import Fabric, LinkParams, NetworkParams, Topology, fat_tree, ring, star
from repro.sim import Engine
from repro.utils.units import MB

from tests.net.maxmin_reference import maxmin_certificate_violations, maxmin_rates

TOPOLOGIES = {
    "fat_tree": lambda n, p: fat_tree(n, p, hosts_per_leaf=4),
    "ring": ring,
    "star": star,
}


def check_rates(fab: Fabric) -> None:
    """Assert the live rates are the reference rates and max-min fair."""
    flows = fab.active_flows  # activation order
    paths = [f.path for f in flows]
    rates = [f.rate for f in flows]
    bandwidth = [fab.link_bandwidth(i) for i in range(len(fab.topology.links))]
    assert rates == maxmin_rates(paths, bandwidth, fab.per_flow_cap)
    assert maxmin_certificate_violations(paths, rates, bandwidth, fab.per_flow_cap) == []


def audit(fab: Fabric, every: int = 1) -> list[int]:
    """Check the rates after every ``every``-th reallocation of ``fab``;
    returns a one-element list counting the checks made."""
    solve = fab._reallocate
    calls = [0]
    checked = [0]

    def reallocate_and_check(arg: None = None) -> None:
        solve(arg)
        calls[0] += 1
        if calls[0] % every == 0:
            check_rates(fab)
            checked[0] += 1

    fab._reallocate = reallocate_and_check
    return checked


transfers = st.lists(
    st.tuples(
        st.integers(0, 11),  # src
        st.integers(0, 11),  # dst
        st.floats(1.0, 800.0),  # bytes
        st.floats(0.0, 4.0),  # start offset
    ),
    min_size=1,
    max_size=24,
)
rescales = st.lists(
    st.tuples(
        st.floats(0.0, 6.0),  # when
        st.booleans(),  # True: one host's links; False: a set of links
        st.integers(0, 10_000),  # host, or seed of the link subset
        st.sampled_from([1.0, 0.5, 0.25, 0.3, 1.7, 3.0]),  # 1.0 restores
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    n_hosts=st.integers(3, 12),
    host_bw=st.sampled_from([100.0, 90.0, 37.5]),
    cap=st.one_of(st.just(math.inf), st.floats(5.0, 120.0)),
    transfers=transfers,
    rescales=rescales,
)
def test_component_solve_matches_full_reference(
    topology, n_hosts, host_bw, cap, transfers, rescales
):
    params = NetworkParams(
        host_link=LinkParams(bandwidth=host_bw, latency=0.01),
        fabric_link=LinkParams(bandwidth=100.0, latency=0.02),
        software_overhead=0.0,
    )
    eng = Engine()
    fab = Fabric(eng, TOPOLOGIES[topology](n_hosts, params), per_flow_cap=cap)
    checked = audit(fab)
    n_links = len(fab.topology.links)

    def launch(src, dst, nbytes, offset):
        yield eng.timeout(offset)
        yield fab.transfer(src % n_hosts, dst % n_hosts, nbytes)

    def rescale(when, whole_host, pick, factor):
        yield eng.timeout(when)
        if whole_host:
            fab.scale_host_links(pick % n_hosts, factor)
        else:
            fab.scale_links([li for li in range(n_links) if (pick >> (li % 13)) & 1], factor)

    for t in transfers:
        eng.process(launch(*t))
    for r in rescales:
        eng.process(rescale(*r))
    eng.run()
    assert fab.stats.transfers_completed == len(transfers)
    assert not fab.active_flows
    if any(src % n_hosts != dst % n_hosts for src, dst, _, _ in transfers):
        assert checked[0] > 0


def test_partial_component_is_solved_in_activation_order():
    """Flow 0 is created first but, behind host 2's slow uplink, activates
    last.  Its arrival ties host 0's uplink and host 1's downlink at 100/3;
    the first of them in activation order must win the tie, and the rounding
    differs if the component is visited in creation (fid) order instead."""
    topo = Topology(name="skewed-star", n_hosts=6)
    fast = LinkParams(bandwidth=100.0, latency=0.0)
    for h in range(6):
        slow = h == 2
        topo.add_link(topo.host(h), "s:x", LinkParams(100.0, 1.0) if slow else fast)
        topo.add_link("s:x", topo.host(h), fast)
    eng = Engine()
    fab = Fabric(eng, topo)
    audit(fab)
    pairs = [(2, 1), (0, 1), (0, 2), (0, 3), (3, 1), (4, 5)]  # (4, 5) is uncoupled
    events = [fab.transfer(a, b, 1000.0) for a, b in pairs]
    eng.run(until=1.5)
    flows = fab.active_flows
    assert [f.fid for f in flows] == [1, 2, 3, 4, 5, 0]
    bandwidth = [fab.link_bandwidth(i) for i in range(len(topo.links))]
    by_fid = sorted(flows, key=lambda f: f.fid)
    assert maxmin_rates([f.path for f in by_fid], bandwidth) != [
        f.rate for f in by_fid
    ]
    eng.run(eng.all_of(events))


def fig5_run(algorithm: str, every: int, monkeypatch) -> int:
    """One 16-rank Fig. 5 allreduce (16 MB) with its fabric audited."""
    counts: list[list[int]] = []
    original = Fabric.__init__

    def init_and_audit(self, *args, **kwargs):
        original(self, *args, **kwargs)
        counts.append(audit(self, every))

    monkeypatch.setattr(Fabric, "__init__", init_and_audit)
    nbytes = int(16 * MB)
    simulate_allreduce(
        16, nbytes, algorithm=algorithm, segment_bytes=max(64 * 1024, nbytes // 64)
    )
    return sum(c[0] for c in counts)


@pytest.mark.parametrize("algorithm", ["multicolor", "ring"])
def test_fig5_sampled_reallocations_are_maxmin(algorithm, monkeypatch):
    assert fig5_run(algorithm, every=97, monkeypatch=monkeypatch) >= 5


def test_certificate_rejects_unfair_and_infeasible_rates():
    # Two flows share link 0 (capacity 10); flow 1 also crosses link 1.
    paths = [(0,), (0, 1)]
    bandwidth = [10.0, 100.0]
    assert maxmin_rates(paths, bandwidth) == [5.0, 5.0]
    assert maxmin_certificate_violations(paths, [5.0, 5.0], bandwidth) == []
    # Feasible but not fair: flow 0 could grow.
    assert maxmin_certificate_violations(paths, [4.0, 5.0], bandwidth)
    # Over capacity on link 0.
    assert maxmin_certificate_violations(paths, [6.0, 5.0], bandwidth)
    # At the cap counts as fair; above the cap does not.
    assert maxmin_certificate_violations(paths, [3.0, 3.0], bandwidth, cap=3.0) == []
    assert maxmin_certificate_violations(paths, [5.0, 5.0], bandwidth, cap=3.0)
