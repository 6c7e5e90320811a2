"""Hardware models: machine specs, GPU compute, storage and NVLink.

The paper's testbed — a POWER8 "Minsky" cluster (4x NVIDIA Pascal P100 and
256 GB RAM per node, dual ConnectX-5 InfiniBand) — is unavailable here, so
these parametric models stand in for it.  Rates are calibrated against the
paper's own Table 1 baselines (see ``repro.core.calibration``).
"""

from repro.cluster.specs import (
    GPUSpec,
    KNL_NODE,
    MINSKY_NODE,
    NodeSpec,
    P100,
    V100,
    StorageSpec,
    ClusterSpec,
    NFS_STORAGE,
    FLASH_STORAGE,
    LOCAL_MEMORY,
)
from repro.cluster.gpu import GPUComputeModel
from repro.cluster.interconnect import IntraNodeFabric

__all__ = [
    "ClusterSpec",
    "FLASH_STORAGE",
    "GPUComputeModel",
    "GPUSpec",
    "IntraNodeFabric",
    "KNL_NODE",
    "LOCAL_MEMORY",
    "MINSKY_NODE",
    "NFS_STORAGE",
    "NodeSpec",
    "P100",
    "V100",
    "StorageSpec",
]
