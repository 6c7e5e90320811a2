"""Collective algorithms for the simulated MPI.

Every fixed-size collective is a *compiler* that emits a
:class:`~repro.mpi.schedule.Schedule` (a point-to-point step DAG) executed
by the single :class:`~repro.mpi.schedule.ScheduleExecutor`.  One registry
exposes the allreduces: ``ALLREDUCE_COMPILERS`` maps a name to
``compile(n_ranks, count, itemsize, **kwargs) -> Schedule``; callers run
the schedule with ``ScheduleExecutor`` (standalone, guarded, bucketed or
inside a fleet job).

Registered allreduce algorithms:

* ``"multicolor"`` — the paper's k-color tree allreduce (§4.2).
* ``"ring"`` — the paper's pipelined reduce-to-root ring baseline (§5.1).
* ``"openmpi_default"`` — models OpenMPI's stock large-message allreduce
  (Rabenseifner halving/doubling): correct and bandwidth-reasonable, but
  unpipelined and rail-capped, giving the slowest curve in Figures 5–6.
* ``"rsag"`` — reduce-scatter+allgather ring (NCCL/Horovod reference).
* ``"recursive_doubling"`` / ``"rabenseifner"`` — classical algorithms
  under their own names for ablations.
* ``"hierarchical"`` — the 2-D group x cross-group ring.
* ``"binomial"`` — naive reduce-to-root + broadcast (latency baseline).

Two collectives stay generators because their message sizes depend on
other ranks' data: :func:`alltoallv` (the shuffle) and
:func:`ring_allgatherv`.
"""

from repro.mpi.collectives.alltoall import alltoallv, compile_alltoallv
from repro.mpi.collectives.basic import (
    compile_binomial_allreduce,
    compile_binomial_bcast,
    compile_binomial_reduce,
    compile_dissemination_barrier,
    ring_allgatherv,
)
from repro.mpi.collectives.hierarchical import compile_hierarchical
from repro.mpi.collectives.multicolor import (
    DEFAULT_SEGMENT_BYTES,
    compile_multicolor,
    segments_of,
)
from repro.mpi.collectives.recursive import (
    compile_rabenseifner,
    compile_recursive_doubling,
)
from repro.mpi.collectives.ring import compile_pipelined_ring
from repro.mpi.collectives.rsag import (
    compile_ring_allgather,
    compile_ring_reduce_scatter,
    compile_rsag,
)
from repro.mpi.collectives.trees import (
    Tree,
    binomial_tree,
    color_trees,
    internal_nodes,
    kary_bfs_tree,
)

#: name -> ``compile(n_ranks, count, itemsize, **kwargs) -> Schedule``.
ALLREDUCE_COMPILERS = {
    "multicolor": compile_multicolor,
    "ring": compile_pipelined_ring,
    "rsag": compile_rsag,
    "recursive_doubling": compile_recursive_doubling,
    "rabenseifner": compile_rabenseifner,
    "openmpi_default": compile_rabenseifner,
    "hierarchical": compile_hierarchical,
    "binomial": compile_binomial_allreduce,
}

#: Structural families of the registered allreduces; the chaos smoke sweep
#: (CI) covers one representative per family instead of all eight.  The
#: first name in each tuple is the representative.
ALLREDUCE_FAMILIES = {
    "tree": ("multicolor", "binomial"),
    "ring": ("ring", "rsag", "hierarchical"),
    "recursive": ("recursive_doubling", "rabenseifner", "openmpi_default"),
}

__all__ = [
    "ALLREDUCE_COMPILERS",
    "ALLREDUCE_FAMILIES",
    "DEFAULT_SEGMENT_BYTES",
    "Tree",
    "alltoallv",
    "binomial_tree",
    "color_trees",
    "compile_alltoallv",
    "compile_binomial_allreduce",
    "compile_binomial_bcast",
    "compile_binomial_reduce",
    "compile_dissemination_barrier",
    "compile_hierarchical",
    "compile_multicolor",
    "compile_pipelined_ring",
    "compile_rabenseifner",
    "compile_recursive_doubling",
    "compile_ring_allgather",
    "compile_ring_reduce_scatter",
    "compile_rsag",
    "internal_nodes",
    "kary_bfs_tree",
    "ring_allgatherv",
    "segments_of",
]
