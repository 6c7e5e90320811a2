"""Experiment configuration: which knobs the paper turns, in one place."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.calibration import DATASETS
from repro.mpi.collectives import ALLREDUCE_COMPILERS

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One training configuration on the Minsky cluster.

    The three paper optimizations map to three fields:

    * ``allreduce`` — ``"multicolor"`` (optimized) vs ``"openmpi_default"``
      (stock), with ``"ring"`` etc. available;
    * ``dimd`` — in-memory data distribution on/off;
    * ``dpt_variant`` — ``"optimized"`` vs ``"baseline"`` DataParallelTable.

    ``open_source_kernels`` applies the stock-code compute factor (see
    ``repro.core.calibration``).
    """

    model: str = "resnet50"
    dataset: str = "imagenet-1k"
    n_nodes: int = 8
    gpus_per_node: int = 4
    batch_per_gpu: int = 64
    allreduce: str = "multicolor"
    dimd: bool = True
    dpt_variant: str = "optimized"
    open_source_kernels: bool = False
    use_paper_payload: bool = True
    shuffles_per_epoch: int = 1
    n_groups: int = 1
    include_validation: bool = False  # add the per-epoch top-1 pass (§5.4)

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.gpus_per_node < 1 or self.batch_per_gpu < 1:
            raise ValueError("cluster dimensions must be >= 1")
        if self.allreduce not in ALLREDUCE_COMPILERS:
            raise ValueError(
                f"unknown allreduce {self.allreduce!r}; "
                f"choose from {sorted(ALLREDUCE_COMPILERS)}"
            )
        if self.dataset not in DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; choose from {sorted(DATASETS)}"
            )
        if self.dpt_variant not in ("baseline", "optimized"):
            raise ValueError(f"unknown dpt_variant {self.dpt_variant!r}")
        if self.shuffles_per_epoch < 0:
            raise ValueError("shuffles_per_epoch must be >= 0")
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")

    @property
    def n_workers(self) -> int:
        """Total GPUs — 'n' in the paper's LR formula."""
        return self.n_nodes * self.gpus_per_node

    @property
    def global_batch(self) -> int:
        return self.n_workers * self.batch_per_gpu

    # -- presets --------------------------------------------------------------
    def fully_optimized(self) -> "ExperimentConfig":
        """All three paper optimizations on."""
        return replace(
            self,
            allreduce="multicolor",
            dimd=True,
            dpt_variant="optimized",
            open_source_kernels=False,
        )

    def open_source_baseline(self) -> "ExperimentConfig":
        """Table 1's base: stock Torch + publicly available OpenMPI."""
        return replace(
            self,
            allreduce="openmpi_default",
            dimd=False,
            dpt_variant="baseline",
            open_source_kernels=True,
        )

    def with_nodes(self, n_nodes: int) -> "ExperimentConfig":
        return replace(self, n_nodes=n_nodes)
