"""Collective profiling: where a collective's bytes and time go.

Profiles a compiled collective schedule: the
:class:`~repro.mpi.schedule.ScheduleExecutor`'s strands already count
per-rank sent bytes and messages at every send step they post, so this
module adds only the link-class traffic classification and the alpha-beta
lower bound — producing the numbers behind statements like "the multi-color trees
push 4x more bytes through the leaf-spine core than a contiguous ring".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.mpi.analytic import AlphaBetaModel
from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import SizeBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleExecutor
from repro.net.params import CONNECTX5_DUAL, NetworkParams
from repro.net.topology import Topology
from repro.net.visualize import core_traffic

__all__ = ["CollectiveProfile", "profile_allreduce"]


@dataclass(frozen=True)
class CollectiveProfile:
    """One profiled allreduce."""

    algorithm: str
    n_ranks: int
    payload_bytes: int
    elapsed: float
    total_wire_bytes: float      # payload bytes that crossed the fabric
    core_bytes: float            # hop-weighted bytes on leaf-spine links
    edge_bytes: float
    bandwidth_lower_bound: float
    per_rank_sent: dict[int, float] = field(default_factory=dict)
    step_counts: dict[str, int] = field(default_factory=dict)
    n_messages: int = 0
    #: Per-rank executed/total schedule steps (from the executor's progress
    #: tracking); a clean profile run completes every step on every rank.
    steps_completed: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """Lower-bound time / achieved time (1.0 = optimal)."""
        if self.elapsed <= 0:
            return 1.0
        return min(1.0, self.bandwidth_lower_bound / self.elapsed)

    @property
    def hop_weighted_bytes(self) -> float:
        """Bytes summed per link traversed (a 4-hop transfer counts 4x)."""
        return self.core_bytes + self.edge_bytes

    @property
    def wire_amplification(self) -> float:
        """Hop-weighted wire bytes / payload bytes."""
        return self.hop_weighted_bytes / self.payload_bytes if self.payload_bytes else 0.0

    @property
    def max_rank_imbalance(self) -> float:
        """max sent / mean sent across ranks (1.0 = perfectly balanced)."""
        if not self.per_rank_sent:
            return 1.0
        values = list(self.per_rank_sent.values())
        mean = sum(values) / len(values)
        return max(values) / mean if mean > 0 else 1.0


def profile_allreduce(
    n_ranks: int,
    nbytes: int,
    *,
    algorithm: str = "multicolor",
    topology: str | Topology = "fat_tree",
    network: NetworkParams = CONNECTX5_DUAL,
    segment_bytes: int = 1024 * 1024,
    **alg_kwargs,
) -> CollectiveProfile:
    """Run one size-only allreduce and collect its traffic profile.

    Per-rank send accounting comes from the executor's
    :class:`~repro.mpi.schedule.ExecutionStats`, counted by its strands at
    each posted send step — written once at the executor layer, not per
    algorithm.
    """
    if algorithm not in ALLREDUCE_COMPILERS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}"
        )
    engine, world, comm = build_world(
        n_ranks, topology=topology, network=network
    )
    bufs = [SizeBuffer(max(1, nbytes // 4), 4) for _ in range(n_ranks)]
    kwargs = dict(alg_kwargs)
    if algorithm in ("multicolor", "ring"):
        kwargs.setdefault("segment_bytes", segment_bytes)
    schedule = ALLREDUCE_COMPILERS[algorithm](
        n_ranks, bufs[0].count, bufs[0].itemsize, **kwargs
    )
    executor = ScheduleExecutor(comm, schedule, bufs)
    wire_before = world.fabric.stats.bytes_completed
    start = engine.now
    engine.run(executor.launch())
    elapsed = engine.now - start
    wire_bytes = world.fabric.stats.bytes_completed - wire_before
    sent = {r: executor.stats.per_rank_sent.get(r, 0.0) for r in range(n_ranks)}
    step_counts = Counter(type(step).__name__ for step in schedule.steps)
    classes = core_traffic(world.fabric)
    bound = AlphaBetaModel(
        rail_bandwidth=network.per_flow_cap
        if network.per_flow_cap != float("inf")
        else network.host_link.bandwidth,
        rails=max(
            1,
            round(
                network.host_link.bandwidth
                / min(network.per_flow_cap, network.host_link.bandwidth)
            ),
        ),
    ).allreduce_lower_bound(n_ranks, nbytes)
    return CollectiveProfile(
        algorithm=algorithm,
        n_ranks=n_ranks,
        payload_bytes=nbytes,
        elapsed=elapsed,
        total_wire_bytes=wire_bytes,
        core_bytes=classes["core"],
        edge_bytes=classes["edge"],
        bandwidth_lower_bound=bound,
        per_rank_sent=sent,
        step_counts=dict(step_counts),
        n_messages=executor.stats.n_messages,
        steps_completed={
            r: (executor.progress.steps_done[r], executor.progress.steps_total[r])
            for r in range(n_ranks)
        },
    )
