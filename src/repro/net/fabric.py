"""Flow-level network simulator with max-min fair bandwidth sharing.

Every in-flight transfer is a fluid *flow* along a routed path.  Whenever the
set of active flows or a link's capacity changes, bandwidth is re-allocated
max-min fairly (progressive filling): the most-contended link is saturated
first, its flows are fixed at the fair share, and the procedure recurses on
the residual capacities.  This is the standard fluid approximation for
congestion-controlled fabrics such as InfiniBand with credit-based flow
control, and it is exactly the regime that distinguishes the paper's
collective algorithms — the multi-color trees win because their flows
*avoid* sharing links, which a fixed-latency model could not show.

Flows that share no link, directly or through other flows, do not affect
each other's max-min rates.  The fabric therefore keeps per-link flow lists
up to date and re-solves only the flows coupled to a link that changed (a
flow arrived, a flow left, or the link was rescaled); every other flow
keeps the rate a full solve would give it again.  The component-local solve
replays the full solve's floating-point operations in the same order, so
the rates are bit-identical to re-solving everything (DESIGN.md, repro.net).

The fabric is driven by the discrete-event :class:`~repro.sim.Engine`: flow
completions are events, and rate changes reschedule the next completion.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import attrgetter

from repro.net.topology import Topology
from repro.sim.engine import Engine, Event

__all__ = ["Fabric", "Flow", "FabricStats"]

_BYTES_EPS = 1e-6  # flows with fewer remaining bytes are considered done


@dataclass(eq=False, slots=True)
class Flow:
    """One in-flight transfer.  Flows compare by identity."""

    fid: int
    src: int
    dst: int
    path: tuple[int, ...]
    nbytes: float
    remaining: float
    event: Event
    rate: float = 0.0
    #: Position in the fabric's activation order (-1 until the flow is on
    #: the wire); the max-min solve visits coupled flows in this order.
    activation: int = -1


_by_activation = attrgetter("activation")


@dataclass
class FabricStats:
    """Aggregate fabric counters (useful for tests and reports)."""

    transfers_started: int = 0
    transfers_completed: int = 0
    bytes_completed: float = 0.0
    link_bytes: dict[int, float] = field(default_factory=dict)


class Fabric:
    """Simulates concurrent transfers over a :class:`Topology`, whose links
    must not change once the fabric is built."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        *,
        software_overhead: float = 0.0,
        loopback_bandwidth: float = 60e9,
        per_flow_cap: float = math.inf,
    ):
        """
        Parameters
        ----------
        software_overhead:
            Fixed per-message cost (seconds) added before a flow starts —
            models MPI/verbs software stack ("alpha" in alpha-beta models).
        loopback_bandwidth:
            Rate for ``src == dst`` transfers (a host-local memcpy).
        per_flow_cap:
            Upper bound on any single flow's rate (one NIC rail / QP); see
            :class:`~repro.net.params.NetworkParams.per_flow_cap`.
            ``inf`` disables the cap.
        """
        if not 0 <= software_overhead < math.inf:
            raise ValueError(
                f"software_overhead must be finite and >= 0, got {software_overhead}"
            )
        if not 0 < loopback_bandwidth < math.inf:
            raise ValueError(
                f"loopback_bandwidth must be finite and positive, got {loopback_bandwidth}"
            )
        if not per_flow_cap > 0:
            raise ValueError(f"per_flow_cap must be positive, got {per_flow_cap}")
        self.engine = engine
        self.topology = topology
        self.software_overhead = software_overhead
        self.loopback_bandwidth = loopback_bandwidth
        self.per_flow_cap = per_flow_cap
        self.stats = FabricStats()
        self._active: dict[int, Flow] = {}
        self._next_fid = 0
        self._activations = 0
        self._last_update = 0.0
        self._timer: Event | None = None
        self._realloc_pending = False
        # Effective capacities: nominal times any live scale_links factor.
        self._bandwidth = [link.params.bandwidth for link in topology.links]
        # Active flows on each link, in activation order.
        self._link_flows: list[list[Flow]] = [[] for _ in topology.links]
        # Links whose flows or capacity changed since the last solve.
        self._dirty_links: set[int] = set()
        # Solver work lists, indexed by link and reused across solves (list
        # indexing is measurably cheaper than per-solve dicts): residual
        # capacity, unfixed-flow count, and position in the current solve's
        # share list (-1 outside a solve).
        n_links = len(topology.links)
        self._residual = [0.0] * n_links
        self._count = [0] * n_links
        self._slot = [-1] * n_links

    # -- public API --------------------------------------------------------
    @property
    def active_flows(self) -> tuple[Flow, ...]:
        return tuple(self._active.values())

    def transfer(self, src: int, dst: int, nbytes: float) -> Event:
        """Start moving ``nbytes`` from host ``src`` to host ``dst``.

        Returns an event that triggers (value = the :class:`Flow`) when the
        last byte arrives.  Zero-byte transfers still pay latency/overhead.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        ev = self.engine.event()
        self.stats.transfers_started += 1
        fid = self._next_fid
        self._next_fid += 1
        if src == dst:
            duration = self.software_overhead + nbytes / self.loopback_bandwidth
            flow = Flow(fid, src, dst, (), float(nbytes), 0.0, ev)
            self.engine.process(self._delayed_complete(flow, duration))
            return ev
        path = self.topology.route(src, dst)
        delay = self.software_overhead + self.topology.path_latency(path)
        flow = Flow(fid, src, dst, path, float(nbytes), float(nbytes), ev)
        if nbytes <= _BYTES_EPS:
            self.engine.process(self._delayed_complete(flow, delay))
            return ev
        self.engine.process(self._delayed_activate(flow, delay))
        return ev

    def link_bandwidth(self, link_index: int) -> float:
        """Effective bandwidth of a link: nominal capacity times any live
        degradation factor installed by :meth:`scale_links`."""
        return self._bandwidth[link_index]

    def scale_links(self, link_indices: Iterable[int], factor: float) -> None:
        """Degrade (or restore) links *mid-flight*.

        Unlike :meth:`Topology.with_scaled_links`, which builds a new static
        topology, this changes the capacity seen by flows already on the
        wire: progress at the old rates is accounted first, then the max-min
        shares are recomputed.  ``factor == 1.0`` removes the degradation.
        """
        if not 0 < factor < math.inf:
            raise ValueError(
                f"link scale factor must be finite and positive, got {factor}"
            )
        links = self.topology.links
        for li in link_indices:
            if not 0 <= li < len(links):
                raise ValueError(f"link index {li} out of range [0, {len(links)})")
            self._bandwidth[li] = links[li].params.bandwidth * factor
            self._dirty_links.add(li)
        self._update_progress()
        self._request_reallocate()

    def scale_host_links(self, host_rank: int, factor: float) -> None:
        """Scale every link touching ``host_rank`` (a flapping NIC, live)."""
        vertex = self.topology.host(host_rank)
        indices = [
            link.index
            for link in self.topology.links
            if vertex in (link.src, link.dst)
        ]
        self.scale_links(indices, factor)

    # -- internals -----------------------------------------------------------
    def _delayed_complete(self, flow: Flow, delay: float):
        yield self.engine.timeout(delay)
        self._finish(flow)

    def _delayed_activate(self, flow: Flow, delay: float):
        yield self.engine.timeout(delay)
        self._update_progress()
        flow.activation = self._activations
        self._activations += 1
        self._active[flow.fid] = flow
        for li in flow.path:
            self._link_flows[li].append(flow)
        self._dirty_links.update(flow.path)
        self._request_reallocate()

    def _request_reallocate(self) -> None:
        """Coalesce rate recomputation: many flow arrivals/completions at
        one simulation timestamp trigger a single max-min pass."""
        if self._realloc_pending:
            return
        self._realloc_pending = True
        ev = Event(self.engine)
        ev.callbacks.append(self._run_reallocate)
        ev.succeed()

    def _run_reallocate(self, _ev: Event) -> None:
        self._realloc_pending = False
        self._reallocate()

    def _finish(self, flow: Flow) -> None:
        self.stats.transfers_completed += 1
        self.stats.bytes_completed += flow.nbytes
        for link in flow.path:
            self.stats.link_bytes[link] = (
                self.stats.link_bytes.get(link, 0.0) + flow.nbytes
            )
        flow.event.succeed(flow)

    def _update_progress(self) -> None:
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._active.values():
                flow.remaining -= flow.rate * dt
        self._last_update = now

    def _reallocate(self) -> None:
        """Re-solve the flows coupled to changed links, then reschedule the
        next completion (one timer event; older ones become no-ops)."""
        if self._dirty_links:
            self._solve(self._coupled_flows())
        self._timer = None
        if not self._active:
            return
        horizon = min([f.remaining / f.rate for f in self._active.values() if f.rate > 0])
        timer = self._timer = Event(self.engine)
        timer.callbacks.append(self._on_timer)
        timer.succeed(delay=max(horizon, 0.0))

    def _on_timer(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # superseded by a later reallocation
        self._update_progress()
        finished = [
            f for f in self._active.values() if f.remaining <= _BYTES_EPS * f.nbytes
        ]
        if not finished:
            # Numerical guard: force the closest flow to completion.
            finished = [min(self._active.values(), key=lambda f: f.remaining)]
        link_flows = self._link_flows
        for flow in finished:
            del self._active[flow.fid]
            for li in flow.path:
                link_flows[li].remove(flow)
            self._dirty_links.update(flow.path)
            self._finish(flow)
        self._request_reallocate()

    def _coupled_flows(self) -> list[Flow]:
        """Active flows reachable from the dirty links through shared links,
        in activation order; clears the dirty set."""
        link_flows = self._link_flows
        seen = self._dirty_links
        self._dirty_links = set()
        stack = list(seen)
        flows: set[Flow] = set()
        while stack:
            for flow in link_flows[stack.pop()]:
                if flow not in flows:
                    flows.add(flow)
                    for li in flow.path:
                        if li not in seen:
                            seen.add(li)
                            stack.append(li)
        if len(flows) == len(self._active):
            return list(self._active.values())
        return sorted(flows, key=_by_activation)

    def _solve(self, flows: list[Flow]) -> None:
        """Progressive-filling max-min rates for ``flows``, a union of whole
        coupled components listed in activation order.

        ``shares[i]`` is the fair share of link ``links[i]`` among its unfixed
        flows (``inf`` once all are fixed), with links in first-appearance
        order along ``flows``' paths.  ``min`` plus ``index`` find the first
        smallest share, as a strict ``<`` scan in that order would, and each
        fixed flow's rate is subtracted from its links one at a time, so the
        rates are exactly those of a progressive filling over all active
        flows.  Each round costs two C-level list scans plus the paths of
        the flows it fixes.
        """
        bandwidth = self._bandwidth
        link_flows = self._link_flows
        residual = self._residual
        count = self._count
        slot = self._slot
        links: list[int] = []
        shares: list[float] = []
        for flow in flows:
            for li in flow.path:
                if slot[li] < 0:
                    slot[li] = len(shares)
                    links.append(li)
                    r = residual[li] = bandwidth[li]
                    n = count[li] = len(link_flows[li])
                    shares.append(r / n)
        unfixed = set(flows)
        cap = self.per_flow_cap
        inf = math.inf
        while unfixed:
            rate = min(shares)
            if rate >= cap:
                # Every remaining flow is rail-limited, not link-limited.
                for flow in unfixed:
                    flow.rate = cap
                break
            for flow in link_flows[links[shares.index(rate)]]:
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
                    shares[slot[li]] = r / n if n else inf
        for li in links:
            slot[li] = -1
