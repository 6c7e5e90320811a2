"""Standalone drivers: build a world, run a collective, report timing.

These are the entry points the Figure 5 benchmark and the unit tests use.
Training code instead runs compiled schedules inside its own simulation
(a :class:`~repro.mpi.schedule.ScheduleExecutor`, usually under the
guard in :mod:`repro.mpi.guard`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.mpi.collectives import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import ArrayBuffer, Buffer, SizeBuffer
from repro.mpi.schedule import ScheduleExecutor
from repro.mpi.world import Communicator, MPIWorld
from repro.net.fabric import Fabric
from repro.net.params import CONNECTX5_DUAL, NetworkParams
from repro.net.topology import Topology, fat_tree, full_mesh, ring, star
from repro.sim.engine import Engine

__all__ = [
    "CollectiveOutcome",
    "build_world",
    "run_rank_programs",
    "simulate_allreduce",
    "allreduce_throughput",
]

_TOPOLOGIES: dict[str, Callable[..., Topology]] = {
    "fat_tree": fat_tree,
    "star": star,
    "ring": ring,
    "full_mesh": full_mesh,
}


@dataclass
class CollectiveOutcome:
    """Result of one simulated collective."""

    elapsed: float          # seconds of simulated time
    results: list[Any]      # per-rank return values of the rank programs
    bytes_on_wire: float    # total bytes that crossed the fabric

    def throughput(self, payload_bytes: float) -> float:
        """Algorithmic throughput: payload bytes / elapsed seconds."""
        return payload_bytes / self.elapsed if self.elapsed > 0 else float("inf")


def build_world(
    n_ranks: int,
    *,
    topology: str | Topology = "fat_tree",
    network: NetworkParams = CONNECTX5_DUAL,
    hosts_per_leaf: int = 4,
    reduce_bandwidth: float = 15e9,
    copy_bandwidth: float = 40e9,
) -> tuple[Engine, MPIWorld, Communicator]:
    """Assemble engine + fabric + world; returns ``(engine, world, comm)``."""
    engine = Engine()
    if isinstance(topology, Topology):
        topo = topology
    else:
        try:
            builder = _TOPOLOGIES[topology]
        except KeyError:
            raise ValueError(
                f"unknown topology {topology!r}; choose from {sorted(_TOPOLOGIES)}"
            ) from None
        if topology == "fat_tree":
            topo = builder(n_ranks, network, hosts_per_leaf=hosts_per_leaf)
        else:
            topo = builder(n_ranks, network)
    fabric = Fabric(
        engine,
        topo,
        software_overhead=network.software_overhead,
        per_flow_cap=network.per_flow_cap,
    )
    world = MPIWorld(
        engine,
        fabric,
        n_ranks,
        reduce_bandwidth=reduce_bandwidth,
        copy_bandwidth=copy_bandwidth,
    )
    return engine, world, world.comm_world()


def run_rank_programs(
    comm: Communicator,
    program: Callable[..., Any],
    per_rank_args: list[tuple] | None = None,
    **kwargs: Any,
) -> CollectiveOutcome:
    """Run ``program(comm, rank, *args, **kwargs)`` on every rank to completion."""
    engine = comm.engine
    start = engine.now
    wire_before = comm.world.fabric.stats.bytes_completed
    procs = []
    for rank in range(comm.size):
        args = per_rank_args[rank] if per_rank_args is not None else ()
        procs.append(
            engine.process(program(comm, rank, *args, **kwargs), name=f"rank{rank}")
        )
    done = engine.all_of(procs)
    results = engine.run(done)
    return CollectiveOutcome(
        elapsed=engine.now - start,
        results=results,
        bytes_on_wire=comm.world.fabric.stats.bytes_completed - wire_before,
    )


def simulate_allreduce(
    n_ranks: int,
    nbytes: int,
    *,
    algorithm: str = "multicolor",
    payload: bool = False,
    dtype: str = "float32",
    topology: str | Topology = "fat_tree",
    network: NetworkParams = CONNECTX5_DUAL,
    hosts_per_leaf: int = 4,
    reduce_bandwidth: float = 15e9,
    seed: int = 0,
    **alg_kwargs: Any,
) -> CollectiveOutcome:
    """Simulate one allreduce of ``nbytes`` across ``n_ranks`` nodes.

    Compiles the named algorithm to a point-to-point
    :class:`~repro.mpi.schedule.Schedule` and runs it through the
    :class:`~repro.mpi.schedule.ScheduleExecutor`.  With ``payload=True``
    real arrays are reduced (slower, used by tests); otherwise only sizes
    travel, which produces identical timing.
    """
    try:
        compiler = ALLREDUCE_COMPILERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}"
        ) from None
    engine, world, comm = build_world(
        n_ranks,
        topology=topology,
        network=network,
        hosts_per_leaf=hosts_per_leaf,
        reduce_bandwidth=reduce_bandwidth,
    )
    itemsize = np.dtype(dtype).itemsize
    count = max(1, nbytes // itemsize)
    buffers: list[Buffer]
    if payload:
        rng = np.random.default_rng(seed)
        buffers = [
            ArrayBuffer(rng.standard_normal(count).astype(dtype))
            for _ in range(n_ranks)
        ]
    else:
        buffers = [SizeBuffer(count, itemsize) for _ in range(n_ranks)]
    tag = alg_kwargs.pop("tag", None)
    schedule = compiler(n_ranks, count, itemsize, **alg_kwargs)
    executor = ScheduleExecutor(comm, schedule, buffers, tag=tag)
    start = engine.now
    wire_before = world.fabric.stats.bytes_completed
    engine.run(executor.launch())
    return CollectiveOutcome(
        elapsed=engine.now - start,
        results=buffers,
        bytes_on_wire=world.fabric.stats.bytes_completed - wire_before,
    )


def allreduce_throughput(
    n_ranks: int,
    nbytes: int,
    *,
    algorithm: str = "multicolor",
    **kwargs: Any,
) -> float:
    """Convenience wrapper: bytes/second for one allreduce (Figure 5 metric)."""
    outcome = simulate_allreduce(n_ranks, nbytes, algorithm=algorithm, **kwargs)
    return outcome.throughput(nbytes)
