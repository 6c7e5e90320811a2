"""Functional DataParallelTable implementations (baseline vs optimized).

Each "GPU" is a NumPy :class:`~repro.models.nn.Network` replica driven by
jobs that run in submission order (:class:`~repro.dpt.threads.TorchThreads`).
The two designs follow Figures 3 and 4 of the paper:

* :class:`BaselineDataParallelTable` — the whole input batch is staged on
  GPU1, scattered from there; worker jobs compute *forward only*, the
  outputs are gathered back to GPU1 where the criterion runs once over the
  full batch; gradients of the loss are scattered again for the backward
  jobs; every stage ends in serialized callbacks.

* :class:`OptimizedDataParallelTable` — the batch is partitioned host-side
  and each replica runs forward + criterion + backward in a single job
  (criterion parallelized, one synchronization per step).

Both produce bit-identical losses and gradients for equal slice sizes —
the optimization is purely about scheduling; the tests assert this.
"""

from __future__ import annotations

import numpy as np

from repro.dpt.threads import TorchThreads
from repro.models.nn.losses import softmax_cross_entropy
from repro.models.nn.network import Network

__all__ = ["BaselineDataParallelTable", "OptimizedDataParallelTable"]


class _DataParallelTableBase:
    """Shared replica plumbing."""

    def __init__(self, replicas: list[Network]):
        if not replicas:
            raise ValueError("need at least one replica")
        n = replicas[0].n_params
        if any(r.n_params != n for r in replicas):
            raise ValueError("replicas must have identical architectures")
        self.replicas = replicas
        self.threads = TorchThreads(len(replicas))
        self.sync_points_per_step = 0  # set by subclasses
        # Start from identical weights, like the paper's identical random init.
        master = replicas[0].get_flat_params()
        for r in replicas[1:]:
            r.set_flat_params(master)

    @property
    def n_gpus(self) -> int:
        return len(self.replicas)

    def broadcast_params(self, flat: np.ndarray) -> None:
        """Set every replica's weights (post-update broadcast)."""
        for r in self.replicas:
            r.set_flat_params(flat)

    def _slices(self, n: int) -> list[slice]:
        m = self.n_gpus
        if n % m != 0:
            raise ValueError(f"batch of {n} not divisible across {m} GPUs")
        per = n // m
        return [slice(g * per, (g + 1) * per) for g in range(m)]

    def forward_only(self, images: np.ndarray) -> np.ndarray:
        """Inference: parallel forward passes, outputs gathered in order.

        The paper notes the stock design's "same forward() implementation
        can be used for training as well as inferencing"; both designs
        keep that property here (the optimized table simply skips its
        training-only criterion/backward stages).
        """
        slices = self._slices(images.shape[0])
        gpu_inputs = [np.array(images[s], copy=True) for s in slices]
        outputs: list[np.ndarray | None] = [None] * self.n_gpus
        for g in range(self.n_gpus):
            self.threads.add_job(
                lambda g=g: self.replicas[g].forward(gpu_inputs[g], train=False),
                lambda out, g=g: outputs.__setitem__(g, out),
            )
        self.threads.synchronize()
        return np.concatenate(outputs, axis=0)  # type: ignore[arg-type]

    def close(self) -> None:
        self.threads.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class BaselineDataParallelTable(_DataParallelTableBase):
    """Figure 3: staging via GPU1, serial criterion, per-stage callbacks."""

    def __init__(self, replicas: list[Network]):
        super().__init__(replicas)
        # forward sync + criterion (serial) + backward sync + gradient gather
        self.sync_points_per_step = 4

    def forward_backward(
        self, images: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        slices = self._slices(images.shape[0])
        # Stage the entire batch "on GPU1" first (an extra copy), then cut
        # scatter slices out of the staged tensor.
        staged = np.array(images, copy=True)
        gpu_inputs = [np.array(staged[s], copy=True) for s in slices]

        # Stage 1: forward jobs; outputs gathered to GPU1 via callbacks.
        outputs: list[np.ndarray | None] = [None] * self.n_gpus

        def forward_job(g):
            return self.replicas[g].forward(gpu_inputs[g], train=True)

        for g in range(self.n_gpus):
            self.threads.add_job(
                lambda g=g: forward_job(g),
                lambda out, g=g: outputs.__setitem__(g, out),
            )
        self.threads.synchronize()

        # Stage 2: criterion on GPU1 over the *full* gathered batch.
        logits = np.concatenate(outputs, axis=0)  # type: ignore[arg-type]
        loss, dlogits = softmax_cross_entropy(logits, labels)

        # Stage 3: backward jobs with scattered loss gradients.
        def backward_job(g):
            self.replicas[g].zero_grads()
            self.replicas[g].backward(dlogits[slices[g]])
            return self.replicas[g].get_flat_grads()

        grads: list[np.ndarray | None] = [None] * self.n_gpus
        for g in range(self.n_gpus):
            self.threads.add_job(
                lambda g=g: backward_job(g),
                lambda gr, g=g: grads.__setitem__(g, gr),
            )
        self.threads.synchronize()

        # Stage 4: gradient accumulation on the main thread.  dlogits was
        # already scaled by the full batch, so the plain sum is the mean
        # gradient of the whole batch.
        total = np.sum(grads, axis=0)
        return loss, total


class OptimizedDataParallelTable(_DataParallelTableBase):
    """Figure 4: direct partitioning, parallel criterion, one sync point."""

    def __init__(self, replicas: list[Network]):
        super().__init__(replicas)
        self.sync_points_per_step = 1

    def forward_backward(
        self, images: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        slices = self._slices(images.shape[0])
        # Input partitioned at the start; each slice transfers directly.
        gpu_inputs = [np.array(images[s], copy=True) for s in slices]
        gpu_labels = [labels[s] for s in slices]

        def full_step(g):
            net = self.replicas[g]
            net.zero_grads()
            logits = net.forward(gpu_inputs[g], train=True)
            loss, dlogits = softmax_cross_entropy(logits, gpu_labels[g])
            net.backward(dlogits)
            return loss, net.get_flat_grads()

        results: list[tuple[float, np.ndarray] | None] = [None] * self.n_gpus
        for g in range(self.n_gpus):
            self.threads.add_job(
                lambda g=g: full_step(g),
                lambda r, g=g: results.__setitem__(g, r),
            )
        self.threads.synchronize()

        losses = [r[0] for r in results]  # type: ignore[index]
        grads = [r[1] for r in results]  # type: ignore[index]
        # Per-GPU criteria divide by the slice size; the mean over equal
        # slices equals the full-batch loss/gradient.
        return float(np.mean(losses)), np.mean(grads, axis=0)
