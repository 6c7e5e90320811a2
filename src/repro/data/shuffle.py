"""Algorithm 2: the distributed in-memory shuffle over MPI_AlltoAllv.

The functional path (:func:`distributed_shuffle`) really moves compressed
image bytes between learners through the simulated MPI:

1. learners agree on the number of sub-tensor passes ``m`` (the paper
   splits the exchange "to overcome the deficiency of MPI to handle more
   than 32 bit offsets");
2. each pass assigns every record of the local sub-tensor a uniformly
   random destination learner, exchanges (lengths, labels, checksums)
   metadata and then the concatenated record bytes with ``AlltoAllv``;
3. after the exchange a *conservation barrier* (a verified ring allgather
   of per-rank record counts and multiset digests) proves no record was
   lost or duplicated, and only then does each rank commit the staged
   contents into its store;
4. finally each learner randomly permutes its received records locally.

The shuffle is **transactional**: incoming records are staged off to the
side while the store keeps its pre-shuffle snapshot
(:meth:`~repro.data.dimd.DIMDStore.begin_shuffle`), and any fault —
a CRC mismatch in flight, a conservation failure, a crash or a watchdog
timeout at the guard layer (:mod:`repro.data.guard`) — rolls every rank
back to that snapshot, so a failed shuffle is a no-op instead of data
loss.  Every wire message is checksummed: metadata and control blocks
carry a CRC trailer validated hop by hop (naming the corrupting sender),
and each record payload is verified against the checksum it has carried
since :class:`~repro.data.records.RecordWriter` stamped it.

The timing path (:func:`simulate_shuffle`) runs the same communication
pattern with size-only payloads at full ImageNet-1k/22k scale, including
the CPU cost of packing/unpacking records into send buffers (record-
granular scatter/gather, the practical bottleneck of an in-memory shuffle).
It carries none of the transaction/checksum machinery — the integrity
layer is pure-Python bookkeeping on the functional path and adds no
simulation events there either.  Group-based shuffles (§5.2, Figure 9)
restrict the exchange to sub-communicators, all groups shuffling
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.dimd import DIMDStore, QuarantinedRecord
from repro.data.integrity import (
    ShuffleIntegrityError,
    crc_of_ints,
    multiset_digest,
    record_crc,
    record_fingerprint,
)
from repro.data.synthetic import DatasetSpec
from repro.mpi.collectives.alltoall import alltoallv
from repro.mpi.datatypes import ArrayBuffer, SizeBuffer, chunk_ranges
from repro.mpi.runner import build_world
from repro.mpi.world import Communicator
from repro.net.params import CONNECTX5_DUAL, NetworkParams
from repro.utils.rng import rng_for

__all__ = [
    "ShuffleProgress",
    "ShuffleReport",
    "distributed_shuffle",
    "simulate_shuffle",
]

#: The paper's MPI 32-bit offset ceiling that forces multi-pass exchanges.
MPI_OFFSET_LIMIT = 2**31

#: Effective CPU rate for gathering records into / out of send buffers.
#: Record-granular strided copies run far below streaming memcpy; this
#: value calibrates the 32-learner ImageNet-22k full shuffle to the
#: paper's measured 4.2 s (§5.2).
DEFAULT_PACK_BANDWIDTH = 3.2e9

_DIGEST_MOD = 2**63


@dataclass
class ShuffleReport:
    """Outcome of one shuffle."""

    elapsed: float              # simulated seconds
    bytes_exchanged: float      # payload bytes that crossed the network
    memory_per_node: float      # partition bytes held per learner
    n_passes: int               # sub-tensor passes (32-bit workaround)
    n_groups: int = 1
    quarantined: int = 0        # at-rest corrupt records pulled this round


class ShuffleProgress:
    """The record of one shuffle attempt: its sends and receives, timed.

    Pure-Python accounting updated synchronously from inside the rank
    programs — it adds **no simulation events**, so a tracked shuffle is
    time-identical to an untracked one.  It is the message-granular
    counterpart of :class:`~repro.mpi.schedule.ExecutionProgress`:
    ``sends`` maps every posted message key to its (sender, post time),
    ``recv_times`` holds each rank's receive completion times and
    ``waiting`` each blocked rank's (sender, message key, since), so the
    diagnoser (:func:`repro.data.guard.diagnose_shuffle`) can tell a lost
    message from a sender that never posted.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.finished = [False] * n_ranks
        #: rank -> (src, message key, since) for the receive it is blocked on.
        self.waiting: dict[int, tuple[int, object, float]] = {}
        #: message key -> (sender, post time); eager sends complete locally.
        self.sends: dict[object, tuple[int, float]] = {}
        #: rank -> completion time of each of its receives, in order.
        self.recv_times: list[list[float]] = [[] for _ in range(n_ranks)]

    @property
    def steps_done(self) -> list[int]:
        """Receives each rank has completed."""
        return [len(times) for times in self.recv_times]

    def sent(self, rank: int, key: object, now: float) -> None:
        self.sends[key] = (rank, now)

    def begin_recv(self, rank: int, src: int, key: object, now: float) -> None:
        self.waiting[rank] = (src, key, now)

    def end_recv(self, rank: int, now: float) -> None:
        self.waiting.pop(rank, None)
        self.recv_times[rank].append(now)

    def finish(self, rank: int) -> None:
        self.waiting.pop(rank, None)
        self.finished[rank] = True


def _verified_ring_exchange(
    comm: Communicator,
    rank: int,
    values,
    *,
    tag: object = None,
    progress: ShuffleProgress | None = None,
):
    """Allgather one int64 block per rank, CRC-checked at every hop.

    Ring forwarding: in step ``t`` each rank forwards the block it received
    in step ``t-1``.  Each block travels with a CRC32 trailer that every
    hop validates *before* forwarding, so a corrupted control block is
    detected by the first rank past the corrupting link and the immediate
    sender is named as the suspect.  Returns the blocks (without trailers)
    indexed by owner rank.
    """
    n = comm.size
    own = np.asarray(values, dtype=np.int64)
    blocks: list[np.ndarray] = [own] * n  # placeholder; overwritten below
    blocks[rank] = own
    if n == 1:
        return blocks
    succ = (rank + 1) % n
    pred = (rank - 1) % n
    carry = np.concatenate([own, [crc_of_ints(own)]])
    for t in range(n - 1):
        comm.isend(rank, succ, ("shg", tag, t), ArrayBuffer(carry))
        if progress is not None:
            progress.sent(rank, ("shg", tag, t, rank, succ), comm.engine.now)
            progress.begin_recv(
                rank, pred, ("shg", tag, t, pred, rank), comm.engine.now
            )
        msg = yield comm.recv(rank, pred, ("shg", tag, t))
        if progress is not None:
            progress.end_recv(rank, comm.engine.now)
        incoming = np.asarray(msg.payload, dtype=np.int64)
        owner = (rank - t - 1) % n
        if len(incoming) < 2 or int(incoming[-1]) != crc_of_ints(incoming[:-1]):
            raise ShuffleIntegrityError(
                f"control block from rank {owner} failed its CRC at rank "
                f"{rank} (hop {t}): corrupted on link {pred}->{rank}",
                detected_by=rank,
                suspect=pred,
            )
        blocks[owner] = incoming[:-1].copy()
        carry = incoming
    return blocks


def distributed_shuffle(
    comm: Communicator,
    rank: int,
    store: DIMDStore,
    *,
    seed: int = 0,
    round_id: int = 0,
    max_chunk_bytes: int = MPI_OFFSET_LIMIT,
    tag: object = None,
    progress: ShuffleProgress | None = None,
):
    """Rank program: shuffle ``store``'s records across ``comm`` in place.

    Randomness is derived from ``(seed, round_id, rank)`` so repeated
    shuffles (every few training steps, as the paper recommends) draw fresh
    permutations deterministically.

    The exchange is transactional (see the module docstring): the store is
    snapshotted up front, incoming records are staged, and the swap only
    happens after the conservation barrier proves the global multiset
    survived intact.  At-rest corrupt records (stored checksum mismatch at
    pack time) are quarantined and reported in the returned
    :class:`ShuffleReport` rather than propagated; in-flight corruption
    raises :class:`~repro.data.integrity.ShuffleIntegrityError` naming the
    sender, which aborts (and rolls back) the whole round.
    """
    S = comm.size
    engine = comm.engine
    if max_chunk_bytes < 1:
        raise ValueError("max_chunk_bytes must be >= 1")
    if S == 1:
        store.local_permute(rng_for(seed, "perm", round_id, rank))
        return ShuffleReport(0.0, 0.0, store.nbytes, 1)

    start = engine.now
    store.begin_shuffle(round_id)

    # Agree on the pass count: every learner must loop the same m times.
    my_m = max(1, math.ceil(store.nbytes / max_chunk_bytes))
    counts = yield from _verified_ring_exchange(
        comm, rank, [my_m], tag=("shm", tag), progress=progress
    )
    m = max(int(c[0]) for c in counts)

    pre_count = len(store)
    pre_digest = multiset_digest(
        store.checksums, store.labels, (len(r) for r in store.records)
    )

    rng = rng_for(seed, "shuffle", round_id, rank)
    staged_records: list[bytes] = []
    staged_labels: list[int] = []
    staged_crcs: list[int] = []
    quarantined: list[QuarantinedRecord] = []
    quar_digest = 0
    bytes_sent = 0.0
    for t, (lo, hi) in enumerate(chunk_ranges(len(store), m)):
        ids = np.arange(lo, hi)
        dests = rng.integers(0, S, size=len(ids))
        # At-rest integrity scan: a record whose bytes no longer match the
        # checksum it has carried since it was written is quarantined here
        # instead of being shuffled onward.  The destination RNG stream is
        # consumed for *all* ids so healthy records keep the destinations
        # they would get in a corruption-free run.
        ok = np.ones(len(ids), dtype=bool)
        for k, i in enumerate(ids):
            blob = store.records[int(i)]
            expected = int(store.checksums[int(i)])
            actual = record_crc(blob)
            if actual != expected:
                ok[k] = False
                quarantined.append(QuarantinedRecord(
                    blob=blob,
                    label=int(store.labels[int(i)]),
                    expected_crc=expected,
                    actual_crc=actual,
                    reason="at-rest checksum mismatch at shuffle pack",
                ))
                quar_digest += record_fingerprint(
                    expected, int(store.labels[int(i)]), len(blob)
                )
        send_meta: list[ArrayBuffer] = []
        send_data: list[ArrayBuffer] = []
        pack_bytes = 0
        for d in range(S):
            sel = ids[(dests == d) & ok]
            blobs, labels = store.take(sel)
            crcs = store.checksums[sel]
            lengths = np.array([len(b) for b in blobs], dtype=np.int64)
            body = np.concatenate([
                np.array([len(blobs)], dtype=np.int64), lengths, labels, crcs,
            ])
            meta = np.concatenate([body, [crc_of_ints(body)]])
            data = np.frombuffer(b"".join(blobs), dtype=np.uint8).copy()
            send_meta.append(ArrayBuffer(meta))
            send_data.append(ArrayBuffer(data))
            pack_bytes += data.nbytes
            if d != rank:
                bytes_sent += data.nbytes
        yield from comm.copy_cpu(rank, pack_bytes)  # gather into send buffers
        metas = yield from alltoallv(
            comm, rank, send_meta, tag=("shM", tag, t), progress=progress
        )
        datas = yield from alltoallv(
            comm, rank, send_data, tag=("shD", tag, t), progress=progress
        )
        recv_bytes = 0
        for src in range(S):
            meta = np.asarray(metas[src], dtype=np.int64)
            if len(meta) < 2 or int(meta[-1]) != crc_of_ints(meta[:-1]):
                raise ShuffleIntegrityError(
                    f"metadata from rank {src} failed its CRC at rank {rank} "
                    f"(pass {t}): corrupted in flight",
                    detected_by=rank,
                    suspect=src,
                )
            body = meta[:-1]
            n = int(body[0])
            if len(body) != 1 + 3 * n:
                raise ShuffleIntegrityError(
                    f"metadata from rank {src} is malformed at rank {rank} "
                    f"(pass {t}): {len(body)} fields for {n} records",
                    detected_by=rank,
                    suspect=src,
                )
            lengths = body[1 : 1 + n]
            labels = body[1 + n : 1 + 2 * n]
            crcs = body[1 + 2 * n : 1 + 3 * n]
            raw = datas[src].tobytes()
            if len(raw) != int(lengths.sum()):
                raise ShuffleIntegrityError(
                    f"payload from rank {src} is {len(raw)}B but metadata "
                    f"promises {int(lengths.sum())}B at rank {rank} (pass {t})",
                    detected_by=rank,
                    suspect=src,
                )
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            for j in range(n):
                blob = raw[offsets[j] : offsets[j + 1]]
                if record_crc(blob) != int(crcs[j]):
                    raise ShuffleIntegrityError(
                        f"record {j} from rank {src} failed its CRC at rank "
                        f"{rank} (pass {t}): corrupted in flight",
                        detected_by=rank,
                        suspect=src,
                    )
                staged_records.append(blob)
                staged_labels.append(int(labels[j]))
                staged_crcs.append(int(crcs[j]))
            recv_bytes += len(raw)
        yield from comm.copy_cpu(rank, recv_bytes)  # scatter out of recv buffers

    # Conservation barrier: commit only once the group-wide record multiset
    # provably survived the exchange (counts and permutation-invariant
    # digests, quarantined records accounted on the pre side).
    post_digest = multiset_digest(
        staged_crcs, staged_labels, (len(b) for b in staged_records)
    )
    block = [
        pre_count, pre_digest,
        len(staged_records), post_digest,
        len(quarantined), quar_digest % _DIGEST_MOD,
    ]
    blocks = yield from _verified_ring_exchange(
        comm, rank, block, tag=("shb", tag), progress=progress
    )
    pre_n = sum(int(b[0]) for b in blocks)
    pre_d = sum(int(b[1]) for b in blocks) % _DIGEST_MOD
    post_n = sum(int(b[2]) for b in blocks)
    post_d = sum(int(b[3]) for b in blocks) % _DIGEST_MOD
    quar_n = sum(int(b[4]) for b in blocks)
    quar_d = sum(int(b[5]) for b in blocks) % _DIGEST_MOD
    if post_n + quar_n != pre_n or (post_d + quar_d) % _DIGEST_MOD != pre_d:
        raise ShuffleIntegrityError(
            f"conservation barrier failed at rank {rank}: "
            f"{pre_n} records in, {post_n} staged + {quar_n} quarantined out "
            f"(digest {pre_d:#x} -> {(post_d + quar_d) % _DIGEST_MOD:#x})",
            detected_by=rank,
        )

    store.commit_shuffle(
        round_id,
        staged_records,
        np.asarray(staged_labels, dtype=np.int64),
        np.asarray(staged_crcs, dtype=np.int64),
        quarantined,
    )
    store.local_permute(rng_for(seed, "perm", round_id, rank))
    if progress is not None:
        progress.finish(rank)
    return ShuffleReport(
        elapsed=engine.now - start,
        bytes_exchanged=bytes_sent,
        memory_per_node=store.nbytes,
        n_passes=m,
        quarantined=len(quarantined),
    )


def _timing_program(
    comm: Communicator,
    rank: int,
    partition_bytes: float,
    n_passes: int,
    tag: object = None,
):
    """Size-only shuffle with the same pack/exchange/unpack structure."""
    S = comm.size
    per_pass = partition_bytes / n_passes
    for t in range(n_passes):
        send = [SizeBuffer(int(per_pass / S), 1) for _ in range(S)]
        yield from comm.copy_cpu(rank, per_pass)
        yield from alltoallv(comm, rank, send, tag=("sht", tag, t))
        yield from comm.copy_cpu(rank, per_pass)


def simulate_shuffle(
    n_learners: int,
    dataset: DatasetSpec,
    *,
    n_groups: int = 1,
    replicate_per_group: bool = False,
    network: NetworkParams = CONNECTX5_DUAL,
    pack_bandwidth: float = DEFAULT_PACK_BANDWIDTH,
    hosts_per_leaf: int = 4,
    max_chunk_bytes: int = MPI_OFFSET_LIMIT,
) -> ShuffleReport:
    """Full-scale shuffle timing (Figures 7-9).

    With ``replicate_per_group=False`` (the Figure 9 setup) the dataset is
    partitioned across *all* learners and ``n_groups`` only restricts the
    exchange to sub-communicators — on a symmetric fabric this changes
    little, which is exactly the paper's finding.  With
    ``replicate_per_group=True`` every group holds a full copy of the
    dataset (the paper's memory-rich layout), so per-node bytes — and
    shuffle time — grow with the group count.
    """
    if not pack_bandwidth > 0:  # the negated form also rejects NaN
        raise ValueError(f"pack_bandwidth must be positive, got {pack_bandwidth}")
    if max_chunk_bytes < 1:
        raise ValueError(f"max_chunk_bytes must be >= 1, got {max_chunk_bytes}")
    if replicate_per_group:
        partition = dataset.partition_bytes(n_learners, n_groups)
    else:
        partition = dataset.partition_bytes(n_learners, 1)
        if not 1 <= n_groups <= n_learners or n_learners % n_groups != 0:
            raise ValueError(
                f"{n_learners} learners not divisible into {n_groups} groups"
            )
    n_passes = max(1, math.ceil(partition / max_chunk_bytes))
    engine, world, comm = build_world(
        n_learners,
        topology="fat_tree",
        network=network,
        hosts_per_leaf=hosts_per_leaf,
        copy_bandwidth=pack_bandwidth,
    )
    groups = comm.split(n_groups)
    start = engine.now
    procs = []
    for group in groups:
        for grank in range(group.size):
            procs.append(
                engine.process(
                    _timing_program(group, grank, partition, n_passes),
                    name=f"shuffle-g{grank}",
                )
            )
    engine.run(engine.all_of(procs))
    return ShuffleReport(
        elapsed=engine.now - start,
        bytes_exchanged=world.fabric.stats.bytes_completed,
        memory_per_node=partition,
        n_passes=n_passes,
        n_groups=n_groups,
    )
