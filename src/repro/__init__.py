"""Reproduction of "Efficient Training of Convolutional Neural Nets on
Large Distributed Systems" (Kumar et al., CLUSTER 2018).

The paper's three optimizations — DIMD in-memory data distribution, the
multi-color MPI allreduce, and the re-designed Torch DataParallelTable —
are rebuilt on a from-scratch simulation of the POWER8/P100/InfiniBand
testbed.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Quick start::

    from repro import ExperimentConfig, ClusterExperiment

    cfg = ExperimentConfig(model="resnet50", n_nodes=8)
    print(ClusterExperiment(cfg.fully_optimized()).epoch_time())
"""

from repro.core import ClusterExperiment, ExperimentConfig, TrainingRun
from repro.data import IMAGENET_1K, IMAGENET_22K, simulate_shuffle
from repro.mpi import ALLREDUCE_COMPILERS, simulate_allreduce
from repro.train import DistributedSGDTrainer, WarmupStepSchedule

__version__ = "1.0.0"

__all__ = [
    "ALLREDUCE_COMPILERS",
    "ClusterExperiment",
    "DistributedSGDTrainer",
    "ExperimentConfig",
    "IMAGENET_1K",
    "IMAGENET_22K",
    "TrainingRun",
    "WarmupStepSchedule",
    "simulate_allreduce",
    "simulate_shuffle",
    "__version__",
]
