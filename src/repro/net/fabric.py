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
keeps the rate a full solve would give it again.  That fluid state and the
solve live in a small compiled kernel: the ``Kernel`` type of the C
extension ``_maxmin.c``, built on first use, which takes and returns only
ints and floats and replays the full solve's floating-point operations in
the same order, so the rates are bit-identical to re-solving everything in
pure Python (DESIGN.md, repro.net).  The fabric keeps the ``Flow`` objects,
events, timers and statistics.

The fabric is driven by the discrete-event :class:`~repro.sim.Engine`: flow
starts, reallocations and the next completion are engine calls
(:meth:`~repro.sim.Engine.call`), rate changes reschedule the next
completion, and when a transfer's last byte arrives its event fires or its
waiter is called (:meth:`Fabric.transfer`).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.net import _maxmin
from repro.net.topology import Topology
from repro.sim.engine import Engine, Event

__all__ = ["Fabric", "Flow", "FabricStats"]

_BYTES_EPS = 1e-6  # flows with fewer bytes are done (BYTES_EPS in _maxmin.c)


@dataclass(eq=False, slots=True)
class Flow:
    """One in-flight transfer.  Flows compare by identity.

    The kernel owns an active flow's ``rate`` and ``remaining`` bytes;
    :attr:`Fabric.active_flows` copies them into the flows it returns.
    """

    fid: int
    src: int
    dst: int
    path: tuple[int, ...]
    nbytes: float
    remaining: float
    #: The transfer's event, or the waiter :meth:`Fabric.transfer` was
    #: given.
    waiter: Event | Callable[[Flow], Any]
    rate: float = 0.0


@dataclass
class FabricStats:
    """Aggregate fabric counters (useful for tests and reports)."""

    transfers_started: int = 0
    transfers_completed: int = 0
    bytes_completed: float = 0.0
    link_bytes: dict[int, float] = field(default_factory=dict)


class Fabric:
    """Simulates concurrent transfers over a :class:`Topology`; only the
    links it has when the fabric is built carry flows."""

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
        self._next_fid = 0
        # Bumped by every reallocation; a completion timer with an older
        # generation was superseded and does nothing.
        self._timer = 0
        self._realloc_pending = False
        # Effective capacities: nominal times any live scale_links factor.
        self._bandwidth = [link.params.bandwidth for link in topology.links]
        # The kernel's fluid state, freed with the fabric; active flows by
        # kernel slot; kernel ids of the paths seen so far, and each path's
        # propagation latency by id.
        self._kernel = _maxmin.load().Kernel(self._bandwidth, per_flow_cap)
        self._flows: dict[int, Flow] = {}
        self._path_ids: dict[tuple[int, ...], int] = {}
        self._path_latency: list[float] = []

    # -- public API --------------------------------------------------------
    @property
    def active_flows(self) -> tuple[Flow, ...]:
        """The flows on the wire, in activation order, with their current
        rates and remaining bytes."""
        flows = []
        for slot, rate, left in self._kernel.active():
            flow = self._flows[slot]
            flow.rate, flow.remaining = rate, left
            flows.append(flow)
        return tuple(flows)

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: float,
        waiter: Event | Callable[[Flow], Any] | None = None,
    ) -> Event | None:
        """Start moving ``nbytes`` from host ``src`` to host ``dst``.

        Returns an event that triggers (value = the :class:`Flow`) when the
        last byte arrives.  Zero-byte transfers still pay latency/overhead.

        Call-style, like :meth:`MPIWorld.recv_call`: given a ``waiter``,
        ``waiter(flow)`` runs as an engine call where the event would fire
        (an :class:`Event` waiter is succeeded instead), and nothing is
        returned.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        path = self.topology.route(src, dst)  # validates both ranks
        if path:
            path_id = self._path_ids.get(path)
            if path_id is None:
                path_id = self._add_path(path)
        event = None
        if waiter is None:
            waiter = event = self.engine.event()
        self.stats.transfers_started += 1
        fid = self._next_fid
        self._next_fid += 1
        if not path:
            duration = self.software_overhead + nbytes / self.loopback_bandwidth
            flow = Flow(fid, src, dst, (), float(nbytes), 0.0, waiter)
            self.engine.call(self._hop, (duration, self._finish, flow))
            return event
        delay = self.software_overhead + self._path_latency[path_id]
        flow = Flow(fid, src, dst, path, float(nbytes), float(nbytes), waiter)
        if nbytes <= _BYTES_EPS:
            self.engine.call(self._hop, (delay, self._finish, flow))
            return event
        self.engine.call(self._hop, (delay, self._activate, (flow, path_id)))
        return event

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
        Nothing changes unless every index is valid.
        """
        if not 0 < factor < math.inf:
            raise ValueError(
                f"link scale factor must be finite and positive, got {factor}"
            )
        indices = [operator.index(li) for li in link_indices]
        n_links = len(self._bandwidth)
        for li in indices:
            if not 0 <= li < n_links:
                raise ValueError(f"link index {li} out of range [0, {n_links})")
        links = self.topology.links
        kernel = self._kernel
        for li in indices:
            bandwidth = self._bandwidth[li] = links[li].params.bandwidth * factor
            kernel.set_bandwidth(li, bandwidth)
        kernel.progress(self.engine.now)
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
    def _add_path(self, path: tuple[int, ...]) -> int:
        """Hand a new route to the kernel, once its links are checked."""
        n_links = len(self._bandwidth)
        if not all(0 <= li < n_links for li in path):
            raise ValueError(
                f"route {path} uses a link added after the fabric was built "
                f"(the fabric simulates links [0, {n_links}))"
            )
        path_id = self._kernel.add_path(path)
        self._path_ids[path] = path_id
        self._path_latency.append(self.topology.path_latency(path))
        return path_id

    def _hop(self, call: tuple[float, Callable[[Any], None], Any]) -> None:
        """Schedule ``fn(arg)`` after the transfer's start-up ``delay``.

        :meth:`transfer` reaches this through one zero-delay engine
        call, so the delayed call is scheduled one step later, in the
        order a transfer's start-up wait has always been scheduled.
        """
        delay, fn, arg = call
        self.engine.call(fn, arg, delay)

    def _activate(self, start: tuple[Flow, int]) -> None:
        flow, path_id = start
        self._flows[self._kernel.activate(self.engine.now, path_id, flow.nbytes)] = flow
        self._request_reallocate()

    def _request_reallocate(self) -> None:
        """Coalesce rate recomputation: many flow arrivals/completions at
        one simulation timestamp trigger a single max-min pass."""
        if self._realloc_pending:
            return
        self._realloc_pending = True
        self.engine.call(self._reallocate)

    def _finish(self, flow: Flow) -> None:
        stats = self.stats
        nbytes = flow.nbytes
        stats.transfers_completed += 1
        stats.bytes_completed += nbytes
        link_bytes = stats.link_bytes
        for link in flow.path:
            link_bytes[link] = link_bytes.get(link, 0.0) + nbytes
        waiter = flow.waiter
        if isinstance(waiter, Event):
            waiter.succeed(flow)
        else:
            self.engine.call(waiter, flow)

    def _reallocate(self, _arg: None) -> None:
        """The engine call :meth:`_request_reallocate` schedules: re-solve the
        flows coupled to changed links, then reschedule the next completion
        (one timer call; older ones become no-ops)."""
        self._realloc_pending = False
        horizon = self._kernel.reallocate()
        self._timer += 1
        if horizon != horizon:  # NaN: no active flow
            return
        self.engine.call(self._on_timer, self._timer, max(horizon, 0.0))

    def _on_timer(self, timer: int) -> None:
        if timer != self._timer:
            return  # superseded by a later reallocation
        flows = self._flows
        for slot in self._kernel.finish(self.engine.now):
            self._finish(flows.pop(slot))
        self._request_reallocate()
