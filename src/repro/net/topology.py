"""Network topologies: vertices, links and deterministic routing.

Vertices are hosts (``"h<i>"``) or switches (``"s:<name>"``); hosts are
addressed by integer rank in the public API.  Each cable contributes two
directed links so that opposite directions never contend (full duplex, as on
InfiniBand).

Routing is shortest-path with deterministic ECMP: among equal-cost next
hops, the choice is keyed by a hash of ``(src, dst)`` — the standard
switch behaviour the paper's multi-color trees are designed around.  The
equal-cost next hops towards a destination come from one reverse BFS,
run the first time any pair routes to it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any

from repro.net.params import LinkParams, NetworkParams
from repro.utils.rng import derive_seed

__all__ = ["Topology", "fat_tree", "star", "ring", "full_mesh"]


@dataclass(frozen=True)
class Link:
    """A directed link ``src -> dst``."""

    index: int
    src: str
    dst: str
    params: LinkParams


def _derived() -> Any:
    """A field built from ``links``: no ``__init__`` argument, left out of
    ``==`` and ``repr``."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class Topology:
    """A directed graph of hosts and switches with capacitated links.

    ``links[i].index`` must be ``i``.  The adjacency, the routing tables and
    the route cache are derived from ``links`` by ``__init__`` and
    :meth:`add_link`.
    """

    name: str
    n_hosts: int
    links: list[Link] = field(default_factory=list)
    # Derived from ``links``.  Out-link indices per vertex, in index order
    # (``out_links``); in-links per vertex, the graph the routing BFS walks;
    # per destination rank, every vertex that reaches it -> its out-links
    # one hop closer, in ``out_links`` order; routes per host pair.
    _adjacency: dict[str, list[int]] = _derived()
    _reverse: dict[str, list[Link]] = _derived()
    _next_hops: dict[int, dict[str, tuple[Link, ...]]] = _derived()
    _route_cache: dict[tuple[int, int], tuple[int, ...]] = _derived()

    def __post_init__(self) -> None:
        self.links = list(self.links)
        for position, link in enumerate(self.links):
            if link.index != position:
                raise ValueError(
                    f"link {link.src} -> {link.dst} has index {link.index} "
                    f"but sits at position {position} of links"
                )
            self._wire(link)

    def host(self, rank: int) -> str:
        """Vertex name of host ``rank``."""
        if not 0 <= rank < self.n_hosts:
            raise ValueError(f"host rank {rank} out of range [0, {self.n_hosts})")
        return f"h{rank}"

    def add_link(self, src: str, dst: str, params: LinkParams) -> int:
        """Add one directed link; returns its index."""
        link = Link(len(self.links), src, dst, params)
        self.links.append(link)
        self._wire(link)
        self._next_hops.clear()
        self._route_cache.clear()
        return link.index

    def _wire(self, link: Link) -> None:
        self._adjacency.setdefault(link.src, []).append(link.index)
        self._reverse.setdefault(link.dst, []).append(link)

    def add_cable(self, a: str, b: str, params: LinkParams) -> tuple[int, int]:
        """Add a full-duplex cable (two directed links)."""
        return self.add_link(a, b, params), self.add_link(b, a, params)

    @property
    def vertices(self) -> set[str]:
        verts = set(self._adjacency)
        for link in self.links:
            verts.add(link.dst)
        return verts

    def out_links(self, vertex: str) -> list[Link]:
        return [self.links[i] for i in self._adjacency.get(vertex, [])]

    # -- routing ------------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Link indices along the path from host ``src`` to host ``dst``.

        Both ranks are checked first, so an unknown rank raises
        ``ValueError`` even as a loopback.  The empty tuple denotes a
        loopback (``src == dst``).  Paths are shortest by hop count; among
        the equal-cost next hops of a vertex, in ``out_links`` order, the
        ECMP hash of ``(src, dst)``, the vertex and the hop number picks
        one.  Paths are cached.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        vertex, target = self.host(src), self.host(dst)
        if src == dst:
            return ()
        table = self._next_hops.get(dst)
        if table is None:
            table = self._next_hops[dst] = self._next_hops_to(target)
        if vertex not in table:
            raise ValueError(
                f"no route from {vertex} to {target} in topology {self.name!r}"
            )
        path: list[int] = []
        hop = 0
        while vertex != target:
            candidates = table[vertex]
            if len(candidates) == 1:
                chosen = candidates[0]
            else:
                chosen = candidates[derive_seed(0, key, vertex, hop) % len(candidates)]
            path.append(chosen.index)
            vertex = chosen.dst
            hop += 1
        route = self._route_cache[key] = tuple(path)
        return route

    def _next_hops_to(self, target: str) -> dict[str, tuple[Link, ...]]:
        """One reverse BFS from ``target``: for every other vertex that
        reaches it, the out-links that lead one hop closer."""
        dist = {target: 0}
        queue = deque([target])
        while queue:
            vertex = queue.popleft()
            hops = dist[vertex] + 1
            for link in self._reverse.get(vertex, ()):
                if link.src not in dist:
                    dist[link.src] = hops
                    queue.append(link.src)
        links = self.links
        return {
            vertex: tuple(
                links[i] for i in self._adjacency[vertex]
                if dist.get(links[i].dst) == hops - 1
            )
            for vertex, hops in dist.items()
            if hops
        }

    def with_scaled_links(self, vertex: str, factor: float) -> "Topology":
        """A copy with every link touching ``vertex`` scaled by ``factor``.

        Used for fault injection: ``factor < 1`` models a degraded NIC or
        flapping cable on one host/switch.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        clone = Topology(name=f"{self.name}[{vertex}x{factor}]", n_hosts=self.n_hosts)
        for link in self.links:
            params = link.params
            if link.src == vertex or link.dst == vertex:
                params = LinkParams(
                    bandwidth=params.bandwidth * factor, latency=params.latency
                )
            clone.add_link(link.src, link.dst, params)
        return clone

    def path_latency(self, path: tuple[int, ...]) -> float:
        """Sum of link propagation latencies along ``path``."""
        return sum(self.links[i].params.latency for i in path)

    def path_bottleneck(self, path: tuple[int, ...]) -> float:
        """Minimum link bandwidth along ``path`` (B/s); inf for loopback."""
        if not path:
            return float("inf")
        return min(self.links[i].params.bandwidth for i in path)


def star(n_hosts: int, params: NetworkParams, name: str = "star") -> Topology:
    """All hosts attached to one non-blocking crossbar switch."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    topo = Topology(name=name, n_hosts=n_hosts)
    for h in range(n_hosts):
        topo.add_cable(topo.host(h), "s:x", params.host_link)
    return topo


def fat_tree(
    n_hosts: int,
    params: NetworkParams,
    hosts_per_leaf: int = 4,
    oversubscription: float = 1.0,
    name: str = "fat-tree",
) -> Topology:
    """A two-level leaf/spine fat tree.

    ``oversubscription`` > 1 shrinks aggregate uplink capacity relative to
    downlink capacity (1.0 = non-blocking, as on the paper's cluster).  The
    number of spines equals the uplinks per leaf, which is ``hosts_per_leaf /
    oversubscription`` rounded up (minimum 1).
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    if isinstance(hosts_per_leaf, bool) or not isinstance(hosts_per_leaf, Integral):
        raise ValueError(f"hosts_per_leaf must be an integer, got {hosts_per_leaf!r}")
    if hosts_per_leaf < 1:
        raise ValueError(f"hosts_per_leaf must be >= 1, got {hosts_per_leaf}")
    if not 1.0 <= oversubscription < math.inf:
        raise ValueError(
            f"oversubscription must be finite and >= 1.0, got {oversubscription}"
        )
    topo = Topology(name=name, n_hosts=n_hosts)
    n_leaves = (n_hosts + hosts_per_leaf - 1) // hosts_per_leaf
    n_spines = max(1, round(hosts_per_leaf / oversubscription))
    if n_leaves == 1:
        # Degenerate: a single leaf is just a star.
        for h in range(n_hosts):
            topo.add_cable(topo.host(h), "s:leaf0", params.host_link)
        return topo
    for h in range(n_hosts):
        leaf = f"s:leaf{h // hosts_per_leaf}"
        topo.add_cable(topo.host(h), leaf, params.host_link)
    # Size each leaf-spine cable so a leaf's aggregate uplink bandwidth is
    # hosts_per_leaf * host_bw / oversubscription, split across spines.
    uplink_bw = (
        hosts_per_leaf * params.host_link.bandwidth / (oversubscription * n_spines)
    )
    uplink = LinkParams(bandwidth=uplink_bw, latency=params.fabric_link.latency)
    for leaf_idx in range(n_leaves):
        for spine_idx in range(n_spines):
            topo.add_cable(f"s:leaf{leaf_idx}", f"s:spine{spine_idx}", uplink)
    return topo


def ring(n_hosts: int, params: NetworkParams, name: str = "ring") -> Topology:
    """Hosts connected directly in a bidirectional ring (no switches)."""
    if n_hosts < 2:
        raise ValueError("a ring needs at least two hosts")
    topo = Topology(name=name, n_hosts=n_hosts)
    for h in range(n_hosts):
        topo.add_cable(topo.host(h), topo.host((h + 1) % n_hosts), params.host_link)
    return topo


def full_mesh(n_hosts: int, params: NetworkParams, name: str = "mesh") -> Topology:
    """Every pair of hosts connected directly (idealized network)."""
    if n_hosts < 2:
        raise ValueError("a mesh needs at least two hosts")
    topo = Topology(name=name, n_hosts=n_hosts)
    for a in range(n_hosts):
        for b in range(a + 1, n_hosts):
            topo.add_cable(topo.host(a), topo.host(b), params.host_link)
    return topo
