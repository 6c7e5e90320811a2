"""Torch DataParallelTable reproduction (§4.3).

Torch parallelizes multi-GPU work with a thread pool: jobs are submitted
with a job function plus an *ending callback* that runs fully serialized on
the main thread.  The stock DataParallelTable (Figure 3) moves the whole
input batch to GPU1 first, re-scatters it, evaluates the criterion (loss)
on one GPU only, and crosses many serialized callback points per step.  The
paper's re-design (Figure 4) partitions the input host-side, transfers each
slice directly, evaluates the criterion on every GPU, and cuts the number
of serialization steps.

Both designs exist here twice:

* **functionally** (:mod:`repro.dpt.table`) — real NumPy replicas whose
  jobs run in submission order, with serialized ending callbacks; both
  designs provably compute identical losses and gradients;
* **as timing models** (:mod:`repro.dpt.timing`) — per-step overhead
  decomposition on the Minsky node model, which is what the epoch-time
  experiments (Figure 12) consume.
"""

from repro.dpt.threads import TorchThreads
from repro.dpt.table import BaselineDataParallelTable, OptimizedDataParallelTable
from repro.dpt.timing import DPTTimingModel, DPT_VARIANTS

from repro.dpt import timing as _timing  # noqa: F401  (registry import)

__all__ = [
    "BaselineDataParallelTable",
    "DPTTimingModel",
    "DPT_VARIANTS",
    "OptimizedDataParallelTable",
    "TorchThreads",
]
