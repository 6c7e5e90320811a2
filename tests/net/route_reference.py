"""Per-pair routing: the differential reference for the next-hop tables.

:meth:`repro.net.topology.Topology.route` walks a per-destination table of
equal-cost next hops, built by one reverse BFS the first time any pair
routes to that destination.  Routing used to rebuild the reverse graph and
run a fresh BFS for every host pair instead.  :func:`reference_route` keeps
that code, reading nothing but ``topology.links``, so a test can route
every pair both ways and compare the paths.
"""

from __future__ import annotations

from collections import deque

from repro.net.topology import Link, Topology
from repro.utils.rng import derive_seed


def reference_route(topology: Topology, src: int, dst: int) -> tuple[int, ...]:
    """Link indices from host ``src`` to host ``dst``, computed from scratch."""
    if src == dst:
        return ()
    return _bfs_route(topology, topology.host(src), topology.host(dst), (src, dst))


def _bfs_route(
    topology: Topology, src: str, dst: str, ecmp_key: tuple[int, int]
) -> tuple[int, ...]:
    # BFS computing hop distance from dst (reverse graph), then walk
    # forward choosing among minimal-distance next hops by ECMP hash.
    rev: dict[str, list[Link]] = {}
    for link in topology.links:
        rev.setdefault(link.dst, []).append(link)
    dist: dict[str, int] = {dst: 0}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for link in rev.get(v, ()):
            if link.src not in dist:
                dist[link.src] = dist[v] + 1
                queue.append(link.src)
    if src not in dist:
        raise ValueError(f"no route from {src} to {dst} in topology {topology.name!r}")
    path: list[int] = []
    vertex = src
    hop = 0
    while vertex != dst:
        candidates = [
            link
            for link in topology.links
            if link.src == vertex and dist.get(link.dst, 1 << 30) == dist[vertex] - 1
        ]
        if not candidates:
            raise ValueError(f"routing dead-end at {vertex} (topology bug)")
        pick = derive_seed(0, ecmp_key, vertex, hop) % len(candidates)
        chosen = candidates[pick]
        path.append(chosen.index)
        vertex = chosen.dst
        hop += 1
    return tuple(path)
