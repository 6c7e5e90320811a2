"""The DIMD data substrate (§4.1).

The paper resizes images, compresses them, concatenates them into one large
data file with an index file (offset + length + label per image), loads
partitions of it into node memory, serves random batches from memory, and
periodically reshuffles partitions across nodes with ``MPI_AlltoAllv``.

Every piece is implemented for real here — the record files are actual
bytes on disk (or in memory), the shuffle really moves image payloads
through the simulated MPI — on synthetic datasets scaled to test size.
Full-scale ImageNet-1k/22k *byte counts* (for the timing studies) come from
:data:`IMAGENET_1K` / :data:`IMAGENET_22K`.
"""

from repro.data.codec import decode_image, encode_image
from repro.data.integrity import (
    RecordCorrupt,
    ShuffleIntegrityError,
    multiset_digest,
    record_crc,
)
from repro.data.records import RecordReader, RecordWriter, write_record_file
from repro.data.synthetic import (
    IMAGENET_1K,
    IMAGENET_22K,
    DatasetSpec,
    SyntheticImageDataset,
    build_synthetic_record_file,
)
from repro.data.dimd import (
    DIMDStore,
    GroupLayout,
    QuarantinedRecord,
    deal_records,
    partitioned_load,
)
from repro.data.shuffle import (
    ShuffleProgress,
    ShuffleReport,
    distributed_shuffle,
    simulate_shuffle,
)
from repro.data.guard import diagnose_shuffle, run_shuffle_guarded
from repro.data.memory import MemoryPlan, max_replication_groups, plan_memory
from repro.data.augment import augment_batch, normalize_batch

__all__ = [
    "DIMDStore",
    "DatasetSpec",
    "GroupLayout",
    "IMAGENET_1K",
    "IMAGENET_22K",
    "MemoryPlan",
    "QuarantinedRecord",
    "RecordCorrupt",
    "RecordReader",
    "RecordWriter",
    "ShuffleIntegrityError",
    "ShuffleProgress",
    "ShuffleReport",
    "SyntheticImageDataset",
    "augment_batch",
    "build_synthetic_record_file",
    "deal_records",
    "decode_image",
    "diagnose_shuffle",
    "distributed_shuffle",
    "encode_image",
    "max_replication_groups",
    "multiset_digest",
    "normalize_batch",
    "plan_memory",
    "partitioned_load",
    "record_crc",
    "run_shuffle_guarded",
    "simulate_shuffle",
    "write_record_file",
]
