"""The compiled max-min kernel against its pure-Python reference, and the
kernel's argument checks, build, cache and lifetime.

Every kernel call goes through :class:`Tee`, which makes the same call on
``component_reference.ComponentReference`` and asserts that the rates,
remaining bytes, completion horizon and finished-flow order agree bit for
bit (``float.hex``), after every call.
"""

import gc
import math
import re
import shutil
import subprocess
import sysconfig
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric, LinkParams, NetworkParams, Topology, fat_tree, ring, star
from repro.net import _maxmin
from repro.sim import Engine

from tests.net.component_reference import ComponentReference


def bits(x: float) -> str:
    return float(x).hex()


class Tee:
    """A ``Kernel``'s methods, checked against the reference."""

    def __init__(self, kernel, ref: ComponentReference):
        self.kernel = kernel
        self.ref = ref
        self.handle: dict[int, int] = {}  # kernel slot -> reference handle
        self.guards = 0
        self.finished: tuple[int, ...] = ()  # the last finish's slots

    def check(self) -> None:
        got = [(self.handle[s], bits(r), bits(x)) for s, r, x in self.kernel.active()]
        assert got == [(h, bits(r), bits(x)) for h, r, x in self.ref.snapshot()]

    def add_path(self, links):
        path_id = self.kernel.add_path(links)
        assert self.ref.add_path(links) == path_id
        return path_id

    def set_bandwidth(self, link, bandwidth):
        self.kernel.set_bandwidth(link, bandwidth)
        self.ref.set_bandwidth(link, bandwidth)

    def progress(self, now):
        self.kernel.progress(now)
        self.ref.progress(now)
        self.check()

    def activate(self, now, path_id, nbytes):
        slot = self.kernel.activate(now, path_id, nbytes)
        self.handle[slot] = self.ref.activate(now, path_id, nbytes)
        self.check()
        return slot

    def reallocate(self):
        horizon = self.kernel.reallocate()
        assert bits(horizon) == bits(self.ref.reallocate())
        self.check()
        return horizon

    def finish(self, now):
        self.finished = slots = self.kernel.finish(now)
        assert [self.handle.pop(s) for s in slots] == self.ref.finish(now)
        self.check()
        self.guards += self.ref.guarded
        return slots

    def active(self):
        return self.kernel.active()


def teed(fab: Fabric) -> Tee:
    """Route ``fab``'s kernel calls through a :class:`Tee` (before it has
    carried any transfer)."""
    bandwidth = [fab.link_bandwidth(i) for i in range(len(fab.topology.links))]
    tee = fab._kernel = Tee(fab._kernel, ComponentReference(bandwidth, fab.per_flow_cap))
    return tee


TOPOLOGIES = {
    "fat_tree": lambda n, p: fat_tree(n, p, hosts_per_leaf=4),
    "ring": ring,
    "star": star,
}


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    n_hosts=st.integers(3, 12),
    host_bw=st.sampled_from([100.0, 90.0, 37.5]),
    cap=st.one_of(st.just(math.inf), st.floats(5.0, 120.0)),
    transfers=st.lists(
        st.tuples(
            st.integers(0, 11),  # src
            st.integers(0, 11),  # dst
            st.sampled_from([100.0, 300.0, 1e-7, 64.5]) | st.floats(1.0, 800.0),
            st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 4.0),  # start
        ),
        min_size=1,
        max_size=24,
    ),
    rescales=st.lists(
        st.tuples(
            st.floats(0.0, 6.0),  # when
            st.integers(0, 10_000),  # seed of the link subset
            st.sampled_from([1.0, 0.5, 0.25, 0.3, 1.7, 3.0]),
        ),
        max_size=6,
    ),
)
def test_fabric_runs_match_the_reference_bit_for_bit(
    topology, n_hosts, host_bw, cap, transfers, rescales
):
    params = NetworkParams(
        host_link=LinkParams(bandwidth=host_bw, latency=0.01),
        fabric_link=LinkParams(bandwidth=100.0, latency=0.02),
        software_overhead=0.0,
    )
    eng = Engine()
    fab = Fabric(eng, TOPOLOGIES[topology](n_hosts, params), per_flow_cap=cap)
    tee = teed(fab)
    n_links = len(fab.topology.links)

    def launch(src, dst, nbytes, offset):
        yield eng.timeout(offset)
        yield fab.transfer(src % n_hosts, dst % n_hosts, nbytes)

    def rescale(when, pick, factor):
        yield eng.timeout(when)
        fab.scale_links([li for li in range(n_links) if (pick >> (li % 13)) & 1], factor)

    for t in transfers:
        eng.process(launch(*t))
    for r in rescales:
        eng.process(rescale(*r))
    eng.run()
    assert fab.stats.transfers_completed == len(transfers)
    assert not fab.active_flows and not tee.handle


N_LINKS = 6
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("activate"),
            st.lists(st.integers(0, N_LINKS - 1), min_size=1, max_size=3, unique=True),
            st.sampled_from([50.0, 100.0, 1e-7]) | st.floats(1.0, 500.0),
        ),
        st.tuples(st.just("scale"), st.integers(0, N_LINKS - 1), st.sampled_from([0.5, 2.0, 1.0])),
        st.tuples(st.just("wait"), st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 3.0)),
        st.tuples(st.just("progress")),
        st.tuples(st.just("reallocate")),
        st.tuples(st.just("finish")),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    bandwidth=st.lists(st.sampled_from([100.0, 50.0, 30.0]) | st.floats(1.0, 200.0),
                       min_size=N_LINKS, max_size=N_LINKS),
    cap=st.one_of(st.just(math.inf), st.floats(5.0, 120.0)),
    ops=operations,
)
def test_any_call_sequence_matches_the_reference(bandwidth, cap, ops):
    """Calls in any order and at any time, timers early or late included
    (an early finish takes the closest flow)."""
    tee = Tee(_maxmin.load().Kernel(bandwidth, cap), ComponentReference(bandwidth, cap))
    paths: dict[tuple[int, ...], int] = {}
    now = 0.0
    for op, *args in ops:
        if op == "activate":
            path = tuple(args[0])
            if path not in paths:
                paths[path] = tee.add_path(path)
            tee.activate(now, paths[path], args[1])
        elif op == "scale":
            tee.set_bandwidth(args[0], bandwidth[args[0]] * args[1])
        elif op == "wait":
            now += args[0]
        elif op == "progress":
            tee.progress(now)
        elif op == "reallocate":
            tee.reallocate()
        elif tee.handle:  # finish needs a flow on the wire
            tee.reallocate()  # as the fabric does before any timer
            tee.finish(now)


def test_early_timer_takes_the_first_closest_flow():
    """With no flow done, a timer finishes the flow with the fewest bytes
    left, the first in activation order on a tie."""
    bandwidth = [100.0, 100.0]
    tee = Tee(_maxmin.load().Kernel(bandwidth, math.inf), ComponentReference(bandwidth, math.inf))
    p0 = tee.add_path((0,))
    p1 = tee.add_path((1,))
    for path in (p0, p1, p0):
        tee.activate(0.0, path, 300.0)
    tee.reallocate()  # 50, 100 and 50 B/s
    assert len(tee.finish(1.0)) == 1  # 250, 200 and 250 bytes left
    assert tee.ref.guarded and tee.ref.finished == [1]
    tee.reallocate()
    assert len(tee.finish(1.0)) == 1  # a tie at 250: the first wins
    assert tee.ref.guarded and tee.ref.finished == [0]


def test_out_of_range_arguments_raise_and_leave_the_kernel_as_it_was():
    """Every path id and link index is checked before the state is touched:
    a rejected call leaves the same flows, rates and next solve as a kernel
    that never saw it."""
    bandwidth = [100.0, 50.0, 30.0]

    def loaded():
        kernel = _maxmin.load().Kernel(bandwidth, math.inf)
        p, q = kernel.add_path((0, 1)), kernel.add_path((2,))
        kernel.activate(0.0, p, 400.0)
        kernel.activate(0.0, q, 90.0)
        kernel.reallocate()
        kernel.activate(0.5, q, 10.0)  # leaves links dirty for the next solve
        return kernel

    def state(kernel):
        return [(slot, bits(rate), bits(left)) for slot, rate, left in kernel.active()]

    kernel, untouched = loaded(), loaded()
    rejected = [
        ("add_path", ((0, 3),), IndexError),
        ("add_path", ((-1,),), IndexError),
        ("add_path", ((0, 1.0),), TypeError),
        ("add_path", (7,), TypeError),
        ("activate", (1.0, 2, 10.0), IndexError),
        ("activate", (1.0, -1, 10.0), IndexError),
        ("activate", (1.0, 0.0, 10.0), TypeError),
        ("activate", (1.0, 0), TypeError),
        ("set_bandwidth", (3, 10.0), IndexError),
        ("set_bandwidth", (-1, 10.0), IndexError),
        ("set_bandwidth", (0, "fast"), TypeError),
        ("progress", ("now",), TypeError),
        ("finish", (None,), TypeError),
    ]
    for name, args, error in rejected:
        with pytest.raises(error):
            getattr(kernel, name)(*args)
    assert state(kernel) == state(untouched)
    assert bits(kernel.reallocate()) == bits(untouched.reallocate())
    assert state(kernel) == state(untouched)
    assert kernel.add_path((1,)) == untouched.add_path((1,)) == 2
    assert kernel.finish(10.0) == untouched.finish(10.0)


def test_reused_slot_keeps_activation_order():
    """A kernel slot freed by a finished flow goes to the next activation,
    so slot order is not activation order.  Here the late flow (2 -> 1)
    reuses slot 0, and its arrival ties host 0's uplink and host 1's
    downlink: solving the component in slot order rounds differently."""
    topo = Topology(name="skewed-star", n_hosts=6)
    fast = LinkParams(bandwidth=100.0, latency=0.0)
    for h in range(6):
        topo.add_link(topo.host(h), "s:x", LinkParams(100.0, 1.0) if h == 2 else fast)
        topo.add_link("s:x", topo.host(h), fast)
    eng = Engine()
    fab = Fabric(eng, topo)
    tee = teed(fab)
    short = fab.transfer(5, 4, 10.0)  # slot 0, done at t = 0.1
    late = fab.transfer(2, 1, 1000.0)  # on the wire at t = 1
    events = [fab.transfer(a, b, 1000.0) for a, b in [(0, 1), (0, 2), (0, 3), (3, 1), (4, 5)]]
    eng.run(short)
    eng.run(until=1.5)
    assert [f.fid for f in fab.active_flows] == [2, 3, 4, 5, 6, 1]
    assert tee.finished == (0,) and tee.handle[0] == 6
    eng.run(eng.all_of([late, *events]))


# -- build, cache and lifetime ---------------------------------------------


def count_compiles(monkeypatch) -> list[list[str]]:
    runs: list[list[str]] = []
    real = subprocess.run

    def run(command, **kwargs):
        runs.append(command)
        return real(command, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    return runs


def test_warm_cache_does_not_recompile(tmp_path, monkeypatch):
    runs = count_compiles(monkeypatch)
    first = _maxmin.build(_maxmin.SOURCE, tmp_path)
    assert _maxmin.build(_maxmin.SOURCE, tmp_path) == first
    assert len(runs) == 1 and first.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]  # no temp file left
    assert {"-O2", "-ffp-contract=off"} <= set(runs[0]) and "-ffast-math" not in runs[0]
    assert f"-I{sysconfig.get_path('include')}" in runs[0]


def test_changed_source_rebuilds(tmp_path, monkeypatch):
    runs = count_compiles(monkeypatch)
    source = tmp_path / "_maxmin.c"
    shutil.copy(_maxmin.SOURCE, source)
    first = _maxmin.build(source, tmp_path)
    source.write_text(source.read_text() + "\n/* edited */\n")
    second = _maxmin.build(source, tmp_path)
    assert first != second and first.exists() and second.exists()
    assert len(runs) == 2


def test_other_extension_suffix_builds_its_own_module(tmp_path, monkeypatch):
    """One tree serves several Pythons: each extension suffix gets its own
    cached module, and the hash covers the suffix too."""
    runs = count_compiles(monkeypatch)
    first = _maxmin.build(_maxmin.SOURCE, tmp_path)
    monkeypatch.setattr(_maxmin.machinery, "EXTENSION_SUFFIXES", [".cpython-399-other.so"])
    second = _maxmin.build(_maxmin.SOURCE, tmp_path)
    assert first.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    assert second.name.endswith(".cpython-399-other.so")
    assert first.name.split(".")[1] != second.name.split(".")[1]
    assert len(runs) == 2 and first.exists() and second.exists()


def test_missing_python_headers_are_a_clear_error(tmp_path, monkeypatch):
    runs = count_compiles(monkeypatch)
    include, cache = tmp_path / "include", tmp_path / "cache"
    include.mkdir()
    cache.mkdir()
    monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kwargs: str(include))
    with pytest.raises(RuntimeError, match=f"Python.h in {re.escape(str(include))}"):
        _maxmin.build(_maxmin.SOURCE, cache)
    assert not runs and not list(cache.iterdir())


def test_unwritable_package_dir_uses_the_user_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(_maxmin.os, "access", lambda path, mode: False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _maxmin.cache_dir() == tmp_path / "repro"
    assert (tmp_path / "repro").is_dir()


def test_missing_compiler_is_a_clear_error(tmp_path, monkeypatch):
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "gcc-none")
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(RuntimeError, match="C compiler.*'gcc-none'.*'cc'"):
        _maxmin.build(_maxmin.SOURCE, tmp_path)
    assert not list(tmp_path.iterdir())


def test_link_added_after_construction_is_rejected():
    params = NetworkParams(
        host_link=LinkParams(bandwidth=100.0, latency=0.0),
        fabric_link=LinkParams(bandwidth=100.0, latency=0.0),
    )
    topo = star(4, params)
    fab = Fabric(Engine(), topo)
    topo.add_link(topo.host(0), topo.host(1), params.host_link)  # a shortcut route
    with pytest.raises(ValueError, match="added after the fabric was built"):
        fab.transfer(0, 1, 100.0)
    assert fab.stats.transfers_started == 0
    fab.transfer(2, 3, 100.0)  # routes over the original links still work


def test_dropped_fabric_frees_its_kernel_state():
    fab = Fabric(Engine(), Topology(name="pair", n_hosts=2))
    kernel = weakref.ref(fab._kernel)
    assert kernel() is not None
    del fab
    gc.collect()
    assert kernel() is None
