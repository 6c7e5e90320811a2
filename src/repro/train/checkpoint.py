"""Checkpoint/restore for :class:`~repro.train.distributed.DistributedSGDTrainer`.

A checkpoint captures everything the trainer's state math depends on:

* model weights and the optimizer's momentum (velocity) vector,
* the iteration counter and shuffle round — the trainer derives every RNG
  stream counter-style from ``(seed, purpose, learner_id, iteration)``
  (:func:`repro.utils.rng.rng_for`), so restoring the counters restores
  the streams exactly, with no generator state to serialize,
* the DIMD partition map: each live learner's identity plus its current
  records and labels (partitions drift across shuffles and elastic
  shrinks, so the map must travel with the weights),
* the hyperparameter configuration, including the (possibly rescaled)
  LR schedule, and the recovery policy (``lr_rescale``,
  ``reshuffle_on_shrink``) and fabric ``topology``.

Restore is **bit-exact**: a run interrupted at iteration *k* and resumed
from its checkpoint produces weights identical to an uninterrupted run —
the equivalence test in ``tests/train/test_elastic.py`` asserts
``np.array_equal``, not approximate closeness.

Serialization uses :mod:`pickle` (stdlib): the payload is NumPy arrays,
``bytes`` blobs and primitive config — no custom classes beyond the
checkpoint itself and the frozen schedule dataclass.  On disk the pickle
payload travels behind a small header (magic + CRC32), so a truncated or
bit-flipped checkpoint fails loudly with :class:`CheckpointCorrupt`
instead of resuming training from silently damaged state.  Headerless
files written before the format change still load (best-effort, no
verification).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.dimd import DIMDStore
from repro.train.schedule import WarmupStepSchedule

__all__ = ["CheckpointCorrupt", "TrainerCheckpoint", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1

#: File header: magic, then the CRC32 of the pickle payload (little-endian).
CHECKPOINT_MAGIC = b"RPCK"
_HEADER = struct.Struct("<4sI")


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file failed its integrity check and must not be trusted."""

    def __init__(self, path, detail: str):
        super().__init__(f"checkpoint {path} is corrupt: {detail}")
        self.path = str(path)
        self.detail = detail


@dataclass
class TrainerCheckpoint:
    """Complete, bit-exact snapshot of a distributed training run."""

    version: int
    seed: int
    iteration: int
    shuffle_round: int
    learner_ids: list[int]
    params: np.ndarray
    velocity: np.ndarray
    records: list[list[bytes]]
    labels: list[np.ndarray]
    gpus_per_node: int
    batch_per_gpu: int
    momentum: float
    weight_decay: float
    reducer: str
    dpt_variant: str
    shuffle_every: int | None
    schedule: WarmupStepSchedule
    # Recovery policy and fabric.  The defaults equal the trainer's, so
    # checkpoints pickled before these fields existed still load.
    lr_rescale: str = "linear"
    reshuffle_on_shrink: bool = True
    topology: str = "star"

    # -- capture ------------------------------------------------------------
    @classmethod
    def capture(cls, trainer) -> "TrainerCheckpoint":
        return cls(
            version=CHECKPOINT_VERSION,
            seed=trainer.seed,
            iteration=trainer.iteration,
            shuffle_round=trainer._shuffle_round,
            learner_ids=list(trainer.learner_ids),
            params=trainer.params().copy(),
            velocity=trainer._velocity.copy(),
            records=[list(s.records) for s in trainer.stores],
            labels=[s.labels.copy() for s in trainer.stores],
            gpus_per_node=trainer.gpus_per_node,
            batch_per_gpu=trainer.batch_per_gpu,
            momentum=trainer.momentum,
            weight_decay=trainer.weight_decay,
            reducer=trainer.reducer,
            dpt_variant=trainer.dpt_variant,
            shuffle_every=trainer.shuffle_every,
            schedule=trainer.schedule,
            lr_rescale=trainer.lr_rescale,
            reshuffle_on_shrink=trainer.reshuffle_on_shrink,
            topology=trainer.topology,
        )

    # -- restore ------------------------------------------------------------
    def restore(self, trainer_cls, network_factory, **overrides):
        """Rebuild a live trainer from this snapshot.

        ``overrides`` lets the caller change operational knobs (fault plan,
        timeouts, reducer) without touching the training state.
        """
        if self.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {self.version} != {CHECKPOINT_VERSION}"
            )
        stores = [
            DIMDStore(recs, labs, learner=lid)
            for recs, labs, lid in zip(self.records, self.labels, self.learner_ids)
        ]
        kwargs = dict(
            gpus_per_node=self.gpus_per_node,
            batch_per_gpu=self.batch_per_gpu,
            schedule=self.schedule,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            reducer=self.reducer,
            dpt_variant=self.dpt_variant,
            seed=self.seed,
            shuffle_every=self.shuffle_every,
            lr_rescale=self.lr_rescale,
            reshuffle_on_shrink=self.reshuffle_on_shrink,
            topology=self.topology,
        )
        kwargs.update(overrides)
        trainer = trainer_cls(network_factory, stores, **kwargs)
        trainer.learner_ids = list(self.learner_ids)
        trainer.iteration = self.iteration
        trainer._shuffle_round = self.shuffle_round
        trainer._velocity = self.velocity.copy()
        for table in trainer.tables:
            table.broadcast_params(self.params)
        return trainer

    # -- (de)serialization --------------------------------------------------
    def save(self, path) -> None:
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(CHECKPOINT_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF)
        Path(path).write_bytes(header + payload)

    @classmethod
    def load(cls, path) -> "TrainerCheckpoint":
        raw = Path(path).read_bytes()
        if not raw:
            raise CheckpointCorrupt(path, "empty file (torn write?)")
        if raw[:4] == CHECKPOINT_MAGIC:
            if len(raw) < _HEADER.size:
                raise CheckpointCorrupt(path, "truncated header")
            _, expected = _HEADER.unpack(raw[: _HEADER.size])
            payload = raw[_HEADER.size:]
            actual = zlib.crc32(payload) & 0xFFFFFFFF
            if actual != expected:
                raise CheckpointCorrupt(
                    path,
                    f"payload CRC32 {actual:#010x} != header {expected:#010x} "
                    "(bit-flipped or truncated)",
                )
            try:
                ckpt = pickle.loads(payload)
            except Exception as exc:
                raise CheckpointCorrupt(
                    path, f"payload verified but failed to unpickle: {exc}"
                ) from exc
        else:
            # Legacy headerless pickle: load best-effort, no CRC — but a
            # torn write must still surface as corruption, not a pickle
            # stack trace.
            try:
                ckpt = pickle.loads(raw)
            except Exception as exc:
                raise CheckpointCorrupt(
                    path,
                    f"headerless payload failed to unpickle "
                    f"(truncated or not a checkpoint): {exc}",
                ) from exc
        if not isinstance(ckpt, cls):
            raise CheckpointCorrupt(
                path, f"payload is {type(ckpt).__name__}, not a TrainerCheckpoint"
            )
        return ckpt
