"""Network hardware parameter sets.

Values model the paper's testbed: each POWER8 Minsky node has two Mellanox
ConnectX-5 InfiniBand adapters, "each capable of a raw bi-directional
throughput of 100 Gbps" (§5).  We treat the pair as one bonded host uplink.
Software/RDMA overheads are the knobs that differentiate the paper's
custom Infiniband-verbs implementation from plain MPI messaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.units import Gbps

__all__ = ["LinkParams", "NetworkParams", "CONNECTX5_DUAL", "CONNECTX5_SINGLE"]


@dataclass(frozen=True)
class LinkParams:
    """A physical link: capacity in bytes/second, propagation latency in s."""

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be finite and positive, got {self.bandwidth}")
        if not 0 <= self.latency < math.inf:
            raise ValueError(f"latency must be finite and >= 0, got {self.latency}")

    def serialization_time(self, nbytes: float) -> float:
        """Time to push ``nbytes`` through this link, excluding latency."""
        return nbytes / self.bandwidth


@dataclass(frozen=True)
class NetworkParams:
    """End-to-end parameters used when building cluster topologies.

    Attributes
    ----------
    host_link:
        The host NIC uplink (host <-> leaf switch).
    fabric_link:
        Switch-to-switch links (leaf <-> spine).
    software_overhead:
        Per-message CPU/software cost ("alpha") added to every transfer.
        InfiniBand-verbs RDMA (the paper's implementation) pays far less of
        this than portable two-sided MPI messaging.
    switch_latency:
        Per-switch-hop forwarding latency.
    per_flow_cap:
        Maximum rate of a *single* flow (one QP / one rail), in bytes/s.
        A node with two ConnectX-5 adapters has 2x aggregate uplink, but one
        point-to-point stream cannot stripe across rails — this is exactly
        why the k concurrent color trees outrun a single pipelined ring on
        the paper's hardware.  ``inf`` disables the cap.
    """

    host_link: LinkParams
    fabric_link: LinkParams
    software_overhead: float = 1.5e-6
    switch_latency: float = 150e-9
    per_flow_cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.software_overhead < 0:
            raise ValueError("software_overhead must be >= 0")
        if self.switch_latency < 0:
            raise ValueError("switch_latency must be >= 0")
        if not self.per_flow_cap > 0:
            raise ValueError(f"per_flow_cap must be positive, got {self.per_flow_cap}")


def _ib_params(adapters: int, *, software_overhead: float) -> NetworkParams:
    # 100 Gbps raw ~ 12.5 GB/s; usable data rate after IB encoding/headers is
    # ~ 97%% of raw for EDR-class hardware.
    rail = Gbps(100.0) * 0.97
    usable = rail * adapters
    link = LinkParams(bandwidth=usable, latency=0.7e-6)
    # Core links sized for a non-blocking two-level fat tree.
    core = LinkParams(bandwidth=usable, latency=0.7e-6)
    return NetworkParams(
        host_link=link,
        fabric_link=core,
        software_overhead=software_overhead,
        per_flow_cap=rail,
    )


#: The paper's node uplink: 2x ConnectX-5, bonded.
CONNECTX5_DUAL = _ib_params(2, software_overhead=1.5e-6)

#: Single-adapter variant (for sensitivity studies).
CONNECTX5_SINGLE = _ib_params(1, software_overhead=1.5e-6)
