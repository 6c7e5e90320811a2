"""Reference fluid state of the fabric: the pure-Python code the compiled
kernel (``repro/net/_maxmin.c``) replaced.

:class:`ComponentReference` keeps the same state as the kernel — active
flows in activation order, per-link flow lists, a dirty-link set — and
offers the operations of the kernel's ``Kernel`` type under its method
names: intern a path, activate a flow, rescale a link, account progress,
reallocate (walk the coupled flows, progressive filling, completion
horizon) and finish (the finished flows in activation order, or the
closest one).  The kernel must match it bit for bit;
``test_fabric_kernel.py`` drives both through the same calls.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

BYTES_EPS = 1e-6  # flows with fewer remaining bytes are done


@dataclass(eq=False)
class RefFlow:
    handle: int
    path: tuple[int, ...]
    nbytes: float
    remaining: float
    activation: int
    rate: float = 0.0


_by_activation = attrgetter("activation")


class ComponentReference:
    """The fabric's fluid state and component-local max-min solve."""

    def __init__(self, bandwidth: Sequence[float], cap: float) -> None:
        self.bandwidth = list(bandwidth)
        self.cap = cap
        self.paths: list[tuple[int, ...]] = []
        self.active: dict[int, RefFlow] = {}  # activation order
        self.link_flows: list[list[RefFlow]] = [[] for _ in self.bandwidth]
        self.dirty: set[int] = set()
        self.last_update = 0.0
        self.activations = 0
        self.finished: list[int] = []
        self.guarded = False  # the last finish took the closest flow

    def add_path(self, links: Sequence[int]) -> int:
        self.paths.append(tuple(links))
        return len(self.paths) - 1

    def set_bandwidth(self, link: int, bandwidth: float) -> None:
        self.bandwidth[link] = bandwidth
        self.dirty.add(link)

    def progress(self, now: float) -> None:
        dt = now - self.last_update
        if dt > 0:
            for flow in self.active.values():
                flow.remaining -= flow.rate * dt
        self.last_update = now

    def activate(self, now: float, path_id: int, nbytes: float) -> int:
        """Returns a handle (activation number), not a kernel slot."""
        self.progress(now)
        flow = RefFlow(self.activations, self.paths[path_id], nbytes, nbytes, self.activations)
        self.activations += 1
        self.active[flow.handle] = flow
        for li in flow.path:
            self.link_flows[li].append(flow)
        self.dirty.update(flow.path)
        return flow.handle

    def reallocate(self) -> float:
        """Time to the next completion (NaN with no active flow)."""
        if self.dirty:
            self.solve(self.coupled_flows())
        if not self.active:
            return math.nan
        return min([f.remaining / f.rate for f in self.active.values() if f.rate > 0])

    def finish(self, now: float) -> list[int]:
        """Take the finished flows off the wire; returns their handles, in
        activation order (also left in :attr:`finished`)."""
        self.progress(now)
        finished = [
            f for f in self.active.values() if f.remaining <= BYTES_EPS * f.nbytes
        ]
        self.guarded = not finished
        if not finished:
            # Numerical guard: force the closest flow to completion.
            finished = [min(self.active.values(), key=lambda f: f.remaining)]
        for flow in finished:
            del self.active[flow.handle]
            for li in flow.path:
                self.link_flows[li].remove(flow)
            self.dirty.update(flow.path)
        self.finished = [f.handle for f in finished]
        return self.finished

    def snapshot(self) -> list[tuple[int, float, float]]:
        """(handle, rate, remaining) of the active flows, activation order."""
        return [(f.handle, f.rate, f.remaining) for f in self.active.values()]

    def coupled_flows(self) -> list[RefFlow]:
        """Active flows reachable from the dirty links through shared links,
        in activation order; clears the dirty set."""
        seen = self.dirty
        self.dirty = set()
        stack = list(seen)
        flows: set[RefFlow] = set()
        while stack:
            for flow in self.link_flows[stack.pop()]:
                if flow not in flows:
                    flows.add(flow)
                    for li in flow.path:
                        if li not in seen:
                            seen.add(li)
                            stack.append(li)
        if len(flows) == len(self.active):
            return list(self.active.values())
        return sorted(flows, key=_by_activation)

    def solve(self, flows: list[RefFlow]) -> None:
        """Progressive-filling max-min rates for ``flows``, a union of whole
        coupled components listed in activation order.

        ``shares[i]`` is the fair share of link ``links[i]`` among its unfixed
        flows (``inf`` once all are fixed), with links in first-appearance
        order along ``flows``' paths.  ``min`` plus ``index`` find the first
        smallest share, as a strict ``<`` scan in that order would, and each
        fixed flow's rate is subtracted from its links one at a time.
        """
        residual: dict[int, float] = {}
        count: dict[int, int] = {}
        slot: dict[int, int] = {}
        links: list[int] = []
        shares: list[float] = []
        for flow in flows:
            for li in flow.path:
                if li not in slot:
                    slot[li] = len(shares)
                    links.append(li)
                    r = residual[li] = self.bandwidth[li]
                    n = count[li] = len(self.link_flows[li])
                    shares.append(r / n)
        unfixed = set(flows)
        while unfixed:
            rate = min(shares)
            if rate >= self.cap:
                # Every remaining flow is rail-limited, not link-limited.
                for flow in unfixed:
                    flow.rate = self.cap
                break
            for flow in self.link_flows[links[shares.index(rate)]]:
                if flow not in unfixed:
                    continue
                unfixed.remove(flow)
                flow.rate = rate
                for li in flow.path:
                    r = residual[li] - rate
                    if not r > 0.0:  # max(0.0, r)
                        r = 0.0
                    residual[li] = r
                    n = count[li] - 1
                    count[li] = n
                    shares[slot[li]] = r / n if n else math.inf
