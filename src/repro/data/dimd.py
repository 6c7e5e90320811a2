"""The Distributed In-Memory Data store (§4.1).

Implements the three DIMD APIs:

i)   **Partitioned load** (:func:`partitioned_load`) — each learner loads a
     contiguous slice of the record file into memory.  Learners are divided
     into *groups* that each collectively own the full dataset
     (:class:`GroupLayout`); one group of all learners is maximal
     partitioning, ``n_groups == n_learners`` replicates the full set on
     every node.

ii)  **Random in-memory batch load** (:meth:`DIMDStore.random_batch`) —
     sample a batch of (decoded image, label) pairs straight from memory,
     each learner with its own seeded RNG as in Algorithm 1.

iii) **Shuffle across learners** — in :mod:`repro.data.shuffle`.

The store also carries the machinery the crash-safe shuffle needs:

* a per-record CRC32 column (:attr:`DIMDStore.checksums`) so at-rest
  corruption is detectable at any time (:meth:`DIMDStore.verify_integrity`
  quarantines mismatches instead of serving them);
* an epoch-versioned **shuffle transaction**: :meth:`begin_shuffle`
  snapshots the partition, :meth:`commit_shuffle` swaps in the staged
  post-exchange contents, and :meth:`rollback_shuffle` restores the
  snapshot — whether or not this rank had already committed — so a failed
  distributed shuffle is a no-op rather than data loss.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.codec import decode_image
from repro.data.integrity import record_crc
from repro.data.records import RecordReader
from repro.mpi.datatypes import chunk_ranges

__all__ = [
    "GroupLayout",
    "DIMDStore",
    "QuarantinedRecord",
    "collect_regrow_share",
    "deal_records",
    "partitioned_load",
]


@dataclass(frozen=True)
class GroupLayout:
    """How learners are grouped for partitioning and shuffling."""

    n_learners: int
    n_groups: int = 1

    def __post_init__(self) -> None:
        if self.n_learners < 1:
            raise ValueError("n_learners must be >= 1")
        if not 1 <= self.n_groups <= self.n_learners:
            raise ValueError(
                f"n_groups must be in [1, {self.n_learners}], got {self.n_groups}"
            )
        if self.n_learners % self.n_groups != 0:
            raise ValueError(
                f"{self.n_learners} learners not divisible into "
                f"{self.n_groups} groups"
            )

    @property
    def learners_per_group(self) -> int:
        return self.n_learners // self.n_groups

    def group_of(self, learner: int) -> int:
        if not 0 <= learner < self.n_learners:
            raise ValueError(f"learner {learner} out of range")
        return learner // self.learners_per_group

    def position_in_group(self, learner: int) -> int:
        return learner % self.learners_per_group

    def group_members(self, group: int) -> list[int]:
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range")
        base = group * self.learners_per_group
        return list(range(base, base + self.learners_per_group))


@dataclass(frozen=True)
class QuarantinedRecord:
    """A record pulled out of circulation after failing its checksum."""

    blob: bytes
    label: int
    expected_crc: int
    actual_crc: int
    reason: str


@dataclass
class _ShuffleTxn:
    """Pre-shuffle snapshot kept until the round finalizes or rolls back."""

    round_id: int
    records: list[bytes]
    labels: np.ndarray
    checksums: np.ndarray
    n_quarantined_before: int
    committed: bool = False


class DIMDStore:
    """One learner's in-memory partition of the dataset."""

    def __init__(
        self,
        records: Sequence[bytes],
        labels: np.ndarray,
        *,
        learner: int = 0,
        checksums: np.ndarray | None = None,
    ):
        if len(records) != len(labels):
            raise ValueError(
                f"{len(records)} records vs {len(labels)} labels"
            )
        self.records = list(records)
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        self.learner = learner
        self.checksums = self._as_checksums(self.records, checksums)
        #: Records removed from circulation after a checksum mismatch.
        self.quarantined: list[QuarantinedRecord] = []
        self._txn: _ShuffleTxn | None = None

    @staticmethod
    def _as_checksums(
        records: list[bytes], checksums: np.ndarray | None
    ) -> np.ndarray:
        if checksums is None:
            return np.array([record_crc(r) for r in records], dtype=np.int64)
        checksums = np.asarray(checksums, dtype=np.int64).copy()
        if len(checksums) != len(records):
            raise ValueError(
                f"{len(records)} records vs {len(checksums)} checksums"
            )
        return checksums

    def __len__(self) -> int:
        return len(self.records)

    @property
    def nbytes(self) -> int:
        """Memory held by the compressed records (index overhead excluded)."""
        return sum(len(r) for r in self.records)

    def random_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode a random batch: (images float64 [0,1] NCHW, labels)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not self.records:
            raise ValueError("store is empty")
        ids = rng.integers(0, len(self.records), size=batch_size)
        images = np.stack([decode_image(self.records[i]) for i in ids])
        return images.astype(np.float64) / 255.0, self.labels[ids]

    def random_batch_ids(
        self, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Just the record indices (for callers that decode lazily)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return rng.integers(0, len(self.records), size=batch_size)

    def take(self, ids: np.ndarray) -> tuple[list[bytes], np.ndarray]:
        """Extract (blobs, labels) for the given indices (no removal)."""
        blobs = [self.records[int(i)] for i in ids]
        return blobs, self.labels[np.asarray(ids, dtype=int)]

    def extend(
        self,
        records: list[bytes],
        labels: np.ndarray,
        checksums: np.ndarray | None = None,
    ) -> None:
        """Absorb extra records (elastic recovery: a dead learner's share)."""
        labels = np.asarray(labels, dtype=np.int64)
        if len(records) != len(labels):
            raise ValueError(
                f"{len(records)} records vs {len(labels)} labels"
            )
        self.records.extend(records)
        self.labels = np.concatenate([self.labels, labels])
        self.checksums = np.concatenate(
            [self.checksums, self._as_checksums(list(records), checksums)]
        )

    def replace_contents(
        self,
        records: list[bytes],
        labels: np.ndarray,
        checksums: np.ndarray | None = None,
    ) -> None:
        """Swap in a new partition (after a shuffle)."""
        if len(records) != len(labels):
            raise ValueError("records/labels length mismatch")
        self.records = list(records)
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        self.checksums = self._as_checksums(self.records, checksums)

    def local_permute(self, rng: np.random.Generator) -> None:
        """In-node random permutation (the tail of Algorithm 2)."""
        perm = rng.permutation(len(self.records))
        self.records = [self.records[i] for i in perm]
        self.labels = self.labels[perm]
        self.checksums = self.checksums[perm]

    def content_multiset(self) -> list[tuple[bytes, int]]:
        """Sorted (blob, label) pairs — for conservation checks in tests."""
        return sorted(zip(self.records, (int(l) for l in self.labels)))

    # -- integrity ------------------------------------------------------------
    def verify_integrity(self) -> list[QuarantinedRecord]:
        """Re-checksum every record; quarantine and return any mismatches.

        Corrupt records are removed from the active set (they will not be
        served by :meth:`random_batch` or shuffled onward) and appended to
        :attr:`quarantined` for reporting.
        """
        bad: list[int] = []
        for i, blob in enumerate(self.records):
            if record_crc(blob) != int(self.checksums[i]):
                bad.append(i)
        if not bad:
            return []
        newly = [
            QuarantinedRecord(
                blob=self.records[i],
                label=int(self.labels[i]),
                expected_crc=int(self.checksums[i]),
                actual_crc=record_crc(self.records[i]),
                reason="at-rest checksum mismatch",
            )
            for i in bad
        ]
        keep = [i for i in range(len(self.records)) if i not in set(bad)]
        self.records = [self.records[i] for i in keep]
        self.labels = self.labels[keep]
        self.checksums = self.checksums[keep]
        self.quarantined.extend(newly)
        return newly

    # -- shuffle transaction --------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and not self._txn.committed

    def begin_shuffle(self, round_id: int) -> None:
        """Open (or join) the transaction for ``round_id``.

        Idempotent within a round: re-entering an *open* transaction keeps
        the original snapshot, so the guard and the rank program can both
        call this without clobbering the pre-shuffle state.  A committed
        or stale transaction is replaced by a fresh snapshot.
        """
        txn = self._txn
        if txn is not None and txn.round_id == round_id and not txn.committed:
            return
        self._txn = _ShuffleTxn(
            round_id=round_id,
            records=list(self.records),
            labels=self.labels.copy(),
            checksums=self.checksums.copy(),
            n_quarantined_before=len(self.quarantined),
        )

    def commit_shuffle(
        self,
        round_id: int,
        records: list[bytes],
        labels: np.ndarray,
        checksums: np.ndarray | None = None,
        quarantined: list[QuarantinedRecord] | None = None,
    ) -> None:
        """Swap in the staged post-exchange partition.

        The snapshot is *retained* (marked committed) so a guard can still
        roll this rank back if another rank fails after our commit; it is
        dropped by :meth:`finalize_shuffle` once the whole group succeeds.
        """
        txn = self._txn
        if txn is None or txn.round_id != round_id:
            raise ValueError(
                f"no open shuffle transaction for round {round_id}"
            )
        self.replace_contents(records, labels, checksums)
        self.quarantined.extend(quarantined or [])
        txn.committed = True

    def rollback_shuffle(self, round_id: int) -> bool:
        """Restore the pre-shuffle snapshot and close the transaction.

        Safe to call whether or not this rank committed (a failed shuffle
        must be a no-op on *every* rank); returns ``True`` when a committed
        swap was actually undone.  No open transaction for ``round_id`` is
        a no-op returning ``False``.
        """
        txn = self._txn
        if txn is None or txn.round_id != round_id:
            return False
        restored = txn.committed
        if restored:
            self.records = list(txn.records)
            self.labels = txn.labels.copy()
            self.checksums = txn.checksums.copy()
            del self.quarantined[txn.n_quarantined_before:]
        self._txn = None
        return restored

    def finalize_shuffle(self, round_id: int) -> None:
        """Drop the snapshot: the round succeeded group-wide."""
        txn = self._txn
        if txn is not None and txn.round_id == round_id:
            self._txn = None


def deal_records(dead: DIMDStore, survivors: list[DIMDStore]) -> None:
    """Deal a dead learner's records contiguously to the survivors.

    The single repartitioning policy shared by the trainer's elastic
    shrink and the guarded shuffle's surgical repair — both must deal
    identically for repaired runs to stay bit-identical to fault-free
    survivor-group runs.
    """
    if not survivors:
        raise ValueError("no survivors to absorb the dead learner's records")
    for slot, (lo, hi) in enumerate(chunk_ranges(len(dead), len(survivors))):
        if hi > lo:
            survivors[slot].extend(
                dead.records[lo:hi],
                dead.labels[lo:hi],
                dead.checksums[lo:hi],
            )


def collect_regrow_share(
    survivors: list[DIMDStore], learner: int
) -> DIMDStore:
    """Fund a (re)joining learner's partition from the survivors.

    The inverse of :func:`deal_records`, and like it the *single* regrow
    policy shared by every elastic-grow path: each survivor surrenders the
    tail ``len(survivor) // (n + 1)`` of its partition (``n`` survivors),
    so the newcomer ends up with roughly a ``1/(n + 1)`` share and every
    record is conserved.  Deterministic — no RNG — which is what lets a
    scripted reference run replay a grow bit-exactly.
    """
    if not survivors:
        raise ValueError("no survivors to fund the new learner's partition")
    n = len(survivors)
    records: list[bytes] = []
    label_parts: list[np.ndarray] = []
    crc_parts: list[np.ndarray] = []
    for store in survivors:
        give = len(store) // (n + 1)
        if give == 0:
            continue
        records.extend(store.records[-give:])
        label_parts.append(store.labels[-give:])
        crc_parts.append(store.checksums[-give:])
        del store.records[-give:]
        store.labels = store.labels[:-give].copy()
        store.checksums = store.checksums[:-give].copy()
    if not records:
        raise ValueError(
            "survivor partitions too small to fund a new learner "
            f"({[len(s) for s in survivors]} records across {n} stores)"
        )
    labels = np.concatenate(label_parts)
    checksums = np.concatenate(crc_parts)
    return DIMDStore(records, labels, learner=learner, checksums=checksums)


def partitioned_load(
    reader: RecordReader,
    learner: int,
    layout: GroupLayout,
) -> DIMDStore:
    """DIMD API (i): load this learner's slice of the record file.

    Within each group the dataset is split contiguously by group position;
    every group holds a complete copy.  Reads are CRC-verified by the
    reader; the stored checksums travel into the store so corruption
    stays detectable for the partition's whole in-memory lifetime.
    """
    n = len(reader)
    per_group = layout.learners_per_group
    pos = layout.position_in_group(learner)
    lo, hi = chunk_ranges(n, per_group)[pos]
    ids = np.arange(lo, hi)
    blobs, labels = reader.read_many(ids)
    checksums = reader.checksums
    if checksums is not None:
        checksums = checksums[lo:hi]
    return DIMDStore(blobs, labels, learner=learner, checksums=checksums)
