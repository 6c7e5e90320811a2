"""Validation passes: functional distributed evaluation + timing model.

§5.4 evaluates Top-1 validation accuracy each epoch.  Functionally, the
validation set is partitioned across learners and GPUs, each replica
counts its correct predictions, and the counts are summed — implemented
here over the same simulated-MPI reduction used for gradients, with an
exactness test against single-process evaluation.  The timing side models
the forward-only sweep of the 50 000 ImageNet validation images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.gpu import GPUComputeModel
from repro.data.synthetic import DatasetSpec
from repro.models.descriptors import ModelDescriptor
from repro.mpi.collectives.basic import compile_binomial_reduce
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleExecutor

__all__ = ["ValidationTimeModel", "distributed_accuracy"]


@dataclass(frozen=True)
class ValidationTimeModel:
    """Forward-only sweep time for the validation set."""

    model: ModelDescriptor
    compute: GPUComputeModel
    dataset: DatasetSpec
    n_nodes: int
    gpus_per_node: int = 4
    batch_per_gpu: int = 64

    def __post_init__(self) -> None:
        if min(self.n_nodes, self.gpus_per_node, self.batch_per_gpu) < 1:
            raise ValueError("cluster dimensions must be >= 1")

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    def pass_time(self) -> float:
        """Seconds for one full validation sweep (forward only)."""
        per_gpu_images = math.ceil(
            self.dataset.val_images / self.total_gpus
        )
        batches = math.ceil(per_gpu_images / self.batch_per_gpu)
        t_batch = self.compute.forward_time(
            self.model.forward_flops, self.batch_per_gpu, self.model.n_layers
        )
        return batches * t_batch


def distributed_accuracy(
    networks: list,
    images: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Evaluate top-1 accuracy with the set partitioned across replicas.

    ``networks`` must hold identical weights (as after a training step);
    each replica scores a contiguous shard and per-replica (correct, total)
    counts are summed through a simulated-MPI binomial reduction.  The
    result is exactly the single-process accuracy, shard boundaries
    notwithstanding.
    """
    if not networks:
        raise ValueError("need at least one network replica")
    if images.shape[0] != labels.shape[0]:
        raise ValueError("images/labels length mismatch")
    n = len(networks)
    shards = np.array_split(np.arange(images.shape[0]), n)
    counts = []
    for net, shard in zip(networks, shards):
        if len(shard) == 0:
            counts.append(np.array([0.0, 0.0]))
            continue
        preds = net.predict(images[shard])
        counts.append(
            np.array([float(np.sum(preds == labels[shard])), float(len(shard))])
        )

    _engine, _world, comm = build_world(n, topology="star")
    buffers = [ArrayBuffer(c.copy()) for c in counts]
    schedule = compile_binomial_reduce(n, 2, buffers[0].itemsize)
    ScheduleExecutor(comm, schedule, buffers, tag="val").run()
    correct, total = buffers[0].array
    if total == 0:
        raise ValueError("empty validation set")
    return float(correct / total)
