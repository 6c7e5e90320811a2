"""The tiny deterministic training job behind the fault demos and sweeps.

A 16→10→classes MLP over synthetic 1x4x4 DIMD images, whose label is
written into one bright row so the job really learns.  ``repro faults``,
the SDC chaos sweep and every fleet job build their trainers here.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import Any

import numpy as np

from repro.data.codec import encode_image
from repro.data.dimd import DIMDStore
from repro.models.nn import Dense, Flatten, Network, ReLU
from repro.train.distributed import DistributedSGDTrainer
from repro.train.schedule import WarmupStepSchedule

__all__ = ["build_tiny_trainer", "tiny_net_factory"]


def tiny_net_factory(n_classes: int) -> Callable[[np.random.Generator], Network]:
    """The network factory of a tiny job (also what a restore needs)."""

    def net_factory(rng: np.random.Generator) -> Network:
        return Network(
            [Flatten(), Dense(16, 10, rng), ReLU(), Dense(10, n_classes, rng)]
        )

    return net_factory


@lru_cache(maxsize=128)
def _tiny_dataset(
    n_learners: int, data_seed: int, n_classes: int, records_per_learner: int
) -> tuple[tuple[tuple[bytes, ...], np.ndarray], ...]:
    """Each learner's ``(records, labels)``, drawn and encoded once per
    arguments, as DIMD builds its records once and serves every batch
    from memory.  Immutable (a tuple of blobs, a read-only label array):
    every :class:`DIMDStore` copies its own, so no trainer can write
    through to another's data."""
    rng = np.random.default_rng(data_seed)
    shards = []
    for _ in range(n_learners):
        labels = rng.integers(0, n_classes, size=records_per_learner)
        records = []
        for lab in labels:
            img = rng.integers(0, 60, size=(1, 4, 4), dtype=np.uint8)
            img[0, int(lab) % 4, :] = 255
            records.append(encode_image(img))
        labels.flags.writeable = False
        shards.append((tuple(records), labels))
    return tuple(shards)


def build_tiny_trainer(
    n_learners: int,
    data_seed: int,
    *,
    n_classes: int = 3,
    records_per_learner: int = 24,
    batch_per_gpu: int = 4,
    **trainer_kwargs: Any,
) -> DistributedSGDTrainer:
    """A tiny job's trainer with its data drawn from ``data_seed``.

    One GPU per node, the multicolor reducer, a warmup-free linear-LR
    schedule and initial weights from ``data_seed`` too, unless
    ``trainer_kwargs`` override them (e.g. ``seed=``).
    """
    stores = [
        DIMDStore(records, labels, learner=learner)
        for learner, (records, labels) in enumerate(
            _tiny_dataset(n_learners, data_seed, n_classes, records_per_learner)
        )
    ]
    schedule = WarmupStepSchedule(
        batch_per_gpu=batch_per_gpu, n_workers=n_learners, base_lr=0.08,
        reference_batch=batch_per_gpu * n_learners, warmup_epochs=0.0,
    )
    kwargs: dict[str, Any] = dict(
        gpus_per_node=1, batch_per_gpu=batch_per_gpu, schedule=schedule,
        reducer="multicolor", seed=data_seed,
    )
    kwargs.update(trainer_kwargs)
    return DistributedSGDTrainer(tiny_net_factory(n_classes), stores, **kwargs)
