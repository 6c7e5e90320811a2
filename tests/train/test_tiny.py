"""The tiny job's dataset memo: drawn once, never written through."""

import numpy as np
import pytest

from repro.train.tiny import _tiny_dataset, build_tiny_trainer

ARGS = (3, 11, 3, 24)  # n_learners, data_seed, n_classes, records_per_learner


def _contents(trainer):
    return [(list(s.records), s.labels.tolist()) for s in trainer.stores]


def test_memo_survives_mutated_stores():
    fresh = [
        (list(records), labels.tolist())
        for records, labels in _tiny_dataset.__wrapped__(*ARGS)
    ]
    with build_tiny_trainer(3, 11) as mutated, build_tiny_trainer(3, 11) as other:
        assert _contents(mutated) == _contents(other) == fresh
        store = mutated.stores[0]
        store.records[0] = store.records[0][:-1] + b"\x00"
        assert store.verify_integrity()  # quarantined
        store.labels[:] = 0
        store.local_permute(np.random.default_rng(1))
        mutated.absorb_failure(1, reshuffle=True)
        assert _contents(mutated) != fresh
        assert _contents(other) == fresh
    assert [
        (list(records), labels.tolist()) for records, labels in _tiny_dataset(*ARGS)
    ] == fresh


def test_memo_is_immutable():
    for records, labels in _tiny_dataset(*ARGS):
        assert isinstance(records, tuple)
        assert not labels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 1
