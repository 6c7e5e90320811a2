"""Elastic recovery and checkpoint/restore: the headline robustness tests.

* A transient fault (delayed/dropped messages, temporary link degradation)
  is retried with bounded backoff and — because the retry recomputes the
  identical deterministic collective — training matches a fault-free run
  **bit-exactly**.
* A permanent rank crash mid-training shrinks the trainer elastically:
  the run finishes on the survivors, replicas stay synchronized, data is
  conserved, and the final loss lands within tolerance of fault-free.
* Interrupt-at-iteration-k + restore-from-checkpoint reproduces the
  uninterrupted run's weights bit-identically.
"""

import numpy as np
import pytest

from repro.data import DIMDStore
from repro.data.codec import encode_image
from repro.models.nn import Dense, Flatten, Network, ReLU
from repro.mpi import RetryPolicy
from repro.train import (
    CollectiveTimeout,
    DistributedSGDTrainer,
    FaultPlan,
    TrainerCheckpoint,
    WarmupStepSchedule,
    corrupt_messages,
    crash,
    degrade_links,
    delay_messages,
    drop_messages,
)

IMG_SHAPE = (1, 4, 4)
N_CLASSES = 3


def net_factory(rng):
    return Network(
        [Flatten(), Dense(16, 10, rng), ReLU(), Dense(10, N_CLASSES, rng)]
    )


def make_stores(n_learners, per_learner=24, seed=0):
    rng = np.random.default_rng(seed)
    stores = []
    for l in range(n_learners):
        labels = rng.integers(0, N_CLASSES, size=per_learner)
        records = []
        for lab in labels:
            img = rng.integers(0, 60, size=IMG_SHAPE, dtype=np.uint8)
            img[0, int(lab) % 4, :] = 255
            records.append(encode_image(img))
        stores.append(DIMDStore(records, labels, learner=l))
    return stores


def flat_schedule(lr=0.05):
    return WarmupStepSchedule(
        batch_per_gpu=1, n_workers=1, base_lr=lr, reference_batch=1,
        warmup_epochs=0.0,
    )


def make_trainer(n=4, seed=7, plan=None, **overrides):
    kwargs = dict(
        gpus_per_node=1, batch_per_gpu=4, schedule=flat_schedule(0.08),
        momentum=0.9, reducer="multicolor", seed=seed,
    )
    kwargs.update(overrides)
    return DistributedSGDTrainer(
        net_factory, make_stores(n, seed=seed), fault_plan=plan, **kwargs
    )


def content_multiset(trainer):
    return sorted(p for s in trainer.stores for p in s.content_multiset())


# -- transient faults ---------------------------------------------------------

def test_transient_delay_is_retried_and_training_is_unperturbed():
    """A delayed message past the watchdog deadline triggers one retry;
    the retried collective recomputes the same sum, so the whole run is
    bit-identical to fault-free."""
    plan = FaultPlan([delay_messages(1, seconds=500.0, rank=0)])
    faulted = make_trainer(plan=plan, retry=RetryPolicy(60.0))
    clean = make_trainer(plan=None)
    results = [faulted.step() for _ in range(3)]
    for _ in range(3):
        clean.step()
    assert results[1].retries == 1
    assert results[1].backoff > 0
    assert any("delay" in f for f in results[1].faults)
    assert results[0].retries == results[2].retries == 0
    np.testing.assert_array_equal(faulted.params(), clean.params())
    faulted.check_synchronized()


def test_transient_drop_bounded_backoff_doubles():
    """Two consecutive lost-message attempts: backoff doubles, third
    attempt (fault exhausted) succeeds."""
    plan = FaultPlan([drop_messages(0, rank=1, count=1, max_firings=2)])
    trainer = make_trainer(plan=plan, retry=RetryPolicy(backoff=0.5))
    r = trainer.step()
    assert r.retries == 2
    assert r.backoff == pytest.approx(0.5 + 1.0)  # exponential, bounded
    assert sum("drop" in f for f in r.faults) == 2
    trainer.check_synchronized()


def test_transient_degrade_surfaces_in_metrics_without_retry():
    """A temporary link degradation slows the collective but completes —
    no retry, fault surfaced, arithmetic unchanged."""
    plan = FaultPlan([degrade_links(2, 1, factor=0.1, duration=0.001)])
    faulted = make_trainer(plan=plan)
    clean = make_trainer(plan=None)
    results = [faulted.step() for _ in range(3)]
    for _ in range(3):
        clean.step()
    assert results[1].retries == 0
    assert any("degrade" in f for f in results[1].faults)
    np.testing.assert_array_equal(faulted.params(), clean.params())


def test_retry_budget_exhaustion_raises_collective_timeout():
    plan = FaultPlan([drop_messages(0, rank=0, count=1, max_firings=10)])
    trainer = make_trainer(plan=plan, retry=RetryPolicy(max_retries=2))
    with pytest.raises(CollectiveTimeout, match="timed out"):
        trainer.step()


# -- permanent rank loss ------------------------------------------------------

def test_crash_mid_training_completes_on_survivors():
    """Acceptance: a permanent crash mid-training finishes the run on the
    surviving learners, synchronized, data conserved, and the final loss
    within tolerance of a fault-free run."""
    crash_at, total_steps = 5, 20
    faulted = make_trainer(n=4, plan=FaultPlan([crash(1, crash_at)]))
    before = content_multiset(faulted)
    results = [faulted.step() for _ in range(total_steps)]

    # The shrink happened exactly at the crash iteration, permanently.
    assert [r.n_learners for r in results] == [4] * crash_at + [3] * (
        total_steps - crash_at
    )
    assert faulted.n_learners == 3
    assert faulted.learner_ids == [0, 2, 3]
    assert any("crash" in f for f in results[crash_at].faults)

    # Survivors hold the dead learner's records: nothing was lost.
    assert content_multiset(faulted) == before
    faulted.check_synchronized()

    # Convergence within tolerance of fault-free at the same schedule.
    clean = make_trainer(n=4, plan=None)
    clean_losses = [clean.step().loss for _ in range(total_steps)]
    faulted_tail = np.mean([r.loss for r in results[-5:]])
    clean_tail = np.mean(clean_losses[-5:])
    assert faulted_tail < np.mean([r.loss for r in results[:5]]) * 0.25
    assert faulted_tail == pytest.approx(clean_tail, rel=1.0)


def test_surgical_repair_shrinks_in_attempt():
    """A mid-collective crash is repaired inside the guarded attempt (the
    survivor group is recompiled, no retry is charged) and the trainer
    then shrinks to the survivors, replicas in sync."""
    crash_at, steps = 3, 8
    trainer = make_trainer(n=4, plan=FaultPlan([crash(1, crash_at)]))
    results = [trainer.step() for _ in range(steps)]
    assert results[crash_at].retries == 0
    assert results[crash_at].n_learners == 3
    assert trainer.n_learners == 3
    assert trainer.learner_ids == [0, 2, 3]
    trainer.check_synchronized()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout": -1.0},
        {"timeout": 0.0},
        {"timeout": float("nan")},
        {"max_retries": -1},
        {"backoff": -0.5},
    ],
)
def test_invalid_retry_policy_rejected_at_construction(kwargs):
    """Bad retry settings fail when the policy is built — before any
    trainer or fleet job could carry them into a collective."""
    with pytest.raises(ValueError, match="must be"):
        make_trainer(retry=RetryPolicy(**kwargs))


def test_stall_diagnosis_surfaces_in_fault_log():
    """Each watchdog retry appends a 'stall' fault event naming the
    suspected victim rank and schedule step."""
    plan = FaultPlan([drop_messages(0, rank=1, count=1)])
    trainer = make_trainer(plan=plan, retry=RetryPolicy(backoff=0.5))
    r = trainer.step()
    assert r.retries == 1
    stalls = [f for f in r.faults if f.startswith("stall")]
    assert len(stalls) == 1
    assert "rank 1" in stalls[0]
    assert "Step #" in stalls[0]  # names the schedule step
    trainer.check_synchronized()


def test_crash_rescales_schedule_linearly():
    sched = WarmupStepSchedule(
        batch_per_gpu=4, n_workers=4, warmup_epochs=0.0
    )
    trainer = make_trainer(
        n=4, plan=FaultPlan([crash(0, 2)]), schedule=sched, lr_rescale="linear"
    )
    for _ in range(4):
        trainer.step()
    assert trainer.schedule.n_workers == 3  # 4 -> 3 survivors
    assert trainer.schedule.peak_lr == pytest.approx(0.1 * 4 * 3 / 256)


def test_crash_lr_rescale_none_keeps_schedule():
    sched = WarmupStepSchedule(batch_per_gpu=4, n_workers=4, warmup_epochs=0.0)
    trainer = make_trainer(
        n=4, plan=FaultPlan([crash(0, 2)]), schedule=sched, lr_rescale="none"
    )
    for _ in range(4):
        trainer.step()
    assert trainer.schedule.n_workers == 4


def test_two_crashes_shrink_twice():
    plan = FaultPlan([crash(3, 1), crash(0, 3)])
    trainer = make_trainer(n=4, plan=plan)
    before = content_multiset(trainer)
    for _ in range(6):
        trainer.step()
    assert trainer.n_learners == 2
    assert trainer.learner_ids == [1, 2]
    assert content_multiset(trainer) == before
    trainer.check_synchronized()


def test_crash_without_reshuffle_deals_records_contiguously():
    plan = FaultPlan([crash(2, 0)])
    trainer = make_trainer(n=3, plan=plan, reshuffle_on_shrink=False)
    before = content_multiset(trainer)
    trainer.step()
    assert trainer.n_learners == 2
    sizes = [len(s) for s in trainer.stores]
    assert sum(sizes) == 3 * 24
    assert max(sizes) - min(sizes) <= 1  # dead learner's share dealt evenly
    assert content_multiset(trainer) == before


def test_fault_plan_requires_simulated_reducer():
    with pytest.raises(ValueError, match="simulated reducer"):
        make_trainer(plan=FaultPlan([crash(0, 0)]), reducer="exact")


# -- checkpoint / restore -----------------------------------------------------

@pytest.mark.parametrize("reducer", ["exact", "ring"])
def test_checkpoint_resume_is_bit_exact(tmp_path, reducer):
    """Acceptance: interrupt-at-iteration-k + resume == uninterrupted."""
    kwargs = dict(
        gpus_per_node=2, batch_per_gpu=3, schedule=flat_schedule(),
        momentum=0.9, weight_decay=1e-3, reducer=reducer, seed=11,
        shuffle_every=2,
    )
    full = DistributedSGDTrainer(net_factory, make_stores(3, seed=11), **kwargs)
    for _ in range(6):
        full.step()

    half = DistributedSGDTrainer(net_factory, make_stores(3, seed=11), **kwargs)
    for _ in range(3):
        half.step()
    path = tmp_path / "it3.ckpt"
    half.save_checkpoint(path)
    half.close()

    resumed = DistributedSGDTrainer.from_checkpoint(path, net_factory)
    for _ in range(3):
        resumed.step()
    np.testing.assert_array_equal(full.params(), resumed.params())
    np.testing.assert_array_equal(full._velocity, resumed._velocity)
    assert resumed.iteration == 6
    resumed.check_synchronized()


def test_checkpoint_after_elastic_shrink_roundtrips(tmp_path):
    """Checkpointing a shrunken trainer preserves survivor identities and
    the repartitioned stores; the resumed run matches the original."""
    trainer = make_trainer(n=4, plan=FaultPlan([crash(1, 2)]))
    for _ in range(4):
        trainer.step()
    assert trainer.n_learners == 3
    path = tmp_path / "shrunk.ckpt"
    trainer.save_checkpoint(path)

    resumed = DistributedSGDTrainer.from_checkpoint(path, net_factory)
    assert resumed.n_learners == 3
    assert resumed.learner_ids == trainer.learner_ids
    assert content_multiset(resumed) == content_multiset(trainer)
    for _ in range(3):
        trainer.step()
        resumed.step()
    np.testing.assert_array_equal(trainer.params(), resumed.params())


def test_checkpoint_capture_fields_and_load_type_check(tmp_path):
    trainer = make_trainer(n=2)
    trainer.step()
    ckpt = trainer.checkpoint()
    assert isinstance(ckpt, TrainerCheckpoint)
    assert ckpt.iteration == 1
    assert ckpt.learner_ids == [0, 1]
    assert len(ckpt.records) == 2
    # Snapshot is decoupled from the live trainer.
    trainer.step()
    assert ckpt.iteration == 1

    bogus = tmp_path / "bogus.ckpt"
    import pickle

    from repro.train.checkpoint import CheckpointCorrupt

    bogus.write_bytes(pickle.dumps({"not": "a checkpoint"}))
    with pytest.raises(CheckpointCorrupt, match="TrainerCheckpoint"):
        TrainerCheckpoint.load(bogus)


def test_restore_overrides_operational_knobs(tmp_path):
    trainer = make_trainer(n=2)
    trainer.step()
    path = tmp_path / "c.ckpt"
    trainer.save_checkpoint(path)
    resumed = DistributedSGDTrainer.from_checkpoint(
        path, net_factory, reducer="ring", retry=RetryPolicy(max_retries=7)
    )
    assert resumed.reducer == "ring"
    assert resumed.retry.max_retries == 7
    # State untouched by the overrides.
    np.testing.assert_array_equal(resumed.params(), trainer.params())


def test_checkpoint_keeps_recovery_policy_and_topology(tmp_path):
    """lr_rescale, reshuffle_on_shrink and topology travel with the
    checkpoint: the restored trainer times its steps on the same fabric
    and shrinks exactly like the original."""
    policy = dict(lr_rescale="none", reshuffle_on_shrink=False, topology="ring")
    trainer = make_trainer(n=3, **policy)
    trainer.step()
    path = tmp_path / "policy.ckpt"
    trainer.save_checkpoint(path)
    resumed = DistributedSGDTrainer.from_checkpoint(path, net_factory)
    for key, value in policy.items():
        assert getattr(resumed, key) == value
    assert resumed.step().sim_time == trainer.step().sim_time
    for t in (trainer, resumed):
        t.absorb_failure(0)
    assert resumed.schedule == trainer.schedule
    assert content_multiset(resumed) == content_multiset(trainer)
    trainer.step()
    resumed.step()
    np.testing.assert_array_equal(trainer.params(), resumed.params())


def test_checkpoint_without_policy_fields_restores_defaults():
    """Checkpoints pickled before the policy fields existed still load,
    with the trainer's defaults."""
    import pickle

    ckpt = make_trainer(n=2).checkpoint()
    for key in ("lr_rescale", "reshuffle_on_shrink", "topology"):
        del ckpt.__dict__[key]
    old = pickle.loads(pickle.dumps(ckpt))
    resumed = old.restore(DistributedSGDTrainer, net_factory)
    assert (resumed.lr_rescale, resumed.reshuffle_on_shrink, resumed.topology) == (
        "linear", True, "star"
    )


def test_checkpoint_bit_flip_raises_corrupt(tmp_path):
    from repro.train.checkpoint import CheckpointCorrupt

    trainer = make_trainer(n=2)
    trainer.step()
    path = tmp_path / "c.ckpt"
    trainer.save_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40  # flip a payload bit
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorrupt, match="CRC32"):
        TrainerCheckpoint.load(path)


def test_checkpoint_truncation_raises_corrupt(tmp_path):
    from repro.train.checkpoint import CheckpointCorrupt

    trainer = make_trainer(n=2)
    trainer.step()
    path = tmp_path / "c.ckpt"
    trainer.save_checkpoint(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointCorrupt):
        TrainerCheckpoint.load(path)


def test_checkpoint_legacy_headerless_pickle_loads(tmp_path):
    import pickle

    trainer = make_trainer(n=2)
    trainer.step()
    ckpt = trainer.checkpoint()
    path = tmp_path / "legacy.ckpt"
    path.write_bytes(pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL))
    loaded = TrainerCheckpoint.load(path)
    assert loaded.iteration == ckpt.iteration
    np.testing.assert_array_equal(loaded.params, ckpt.params)


@pytest.mark.parametrize("keep", [0, 1, 3, 6, 40])
def test_checkpoint_torn_write_raises_corrupt_never_traceback(tmp_path, keep):
    """A torn write — the file cut at any prefix length, including inside
    the magic/header and inside the payload — must surface as
    CheckpointCorrupt, never as a raw pickle/struct stack trace."""
    from repro.train.checkpoint import CheckpointCorrupt

    trainer = make_trainer(n=2)
    trainer.step()
    path = tmp_path / "torn.ckpt"
    trainer.save_checkpoint(path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(CheckpointCorrupt):
        TrainerCheckpoint.load(path)


def test_checkpoint_torn_legacy_write_raises_corrupt(tmp_path):
    """Headerless (legacy) files get no CRC, but a truncated one must
    still fail loudly as corruption, not an unpickling traceback."""
    import pickle

    from repro.train.checkpoint import CheckpointCorrupt

    trainer = make_trainer(n=2)
    trainer.step()
    raw = pickle.dumps(trainer.checkpoint(), protocol=pickle.HIGHEST_PROTOCOL)
    path = tmp_path / "legacy-torn.ckpt"
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(CheckpointCorrupt, match="unpickle"):
        TrainerCheckpoint.load(path)


# -- data-plane faults (guarded shuffle) --------------------------------------


def test_crash_during_shuffle_shrinks_and_training_continues():
    """The crash lands inside the shuffle round (armed after the step's
    allreduce): the guard repairs surgically and training finishes on the
    survivors with every record accounted for."""
    trainer = make_trainer(
        n=3, plan=FaultPlan([crash(1, 1)]), shuffle_every=1
    )
    before = content_multiset(trainer)
    r1 = trainer.step()  # allreduce at it=0, shuffle armed at it=1 -> crash
    assert trainer.n_learners == 2
    assert trainer.learner_ids == [0, 2]
    assert any("crash" in f for f in r1.faults)
    assert content_multiset(trainer) == before
    for _ in range(2):
        trainer.step()
    trainer.check_synchronized()
    assert content_multiset(trainer) == before


def test_crash_of_last_rank_during_shuffle_conserves_records():
    """The highest rank dies inside the shuffle round: the guard deals its
    records to the survivors and the round completes on them."""
    trainer = make_trainer(n=3, plan=FaultPlan([crash(2, 1)]), shuffle_every=1)
    before = content_multiset(trainer)
    r1 = trainer.step()
    assert r1.retries == 0
    assert trainer.n_learners == 2
    assert trainer.learner_ids == [0, 1]
    assert content_multiset(trainer) == before
    trainer.step()
    trainer.check_synchronized()
    assert content_multiset(trainer) == before


def test_corrupt_during_shuffle_rolls_back_and_retries():
    """An in-flight bit flip is caught by the wire checksums: the round
    rolls back, retries clean, and the step reports the corruption."""
    trainer = make_trainer(
        n=3, plan=FaultPlan([corrupt_messages(1, rank=2)]), shuffle_every=1
    )
    before = content_multiset(trainer)
    r1 = trainer.step()
    assert r1.retries >= 1
    assert any("corrupt" in f for f in r1.faults)
    assert trainer.n_learners == 3
    assert content_multiset(trainer) == before
    trainer.step()
    trainer.check_synchronized()


def test_corrupt_shuffle_matches_fault_free_run_bit_exactly():
    """Retry-from-snapshot must reproduce the fault-free shuffle exactly:
    the corrupted attempt leaves no trace in the data or the weights."""
    faulted = make_trainer(
        n=3, plan=FaultPlan([corrupt_messages(1, rank=0)]), shuffle_every=1
    )
    clean = make_trainer(n=3, shuffle_every=1)
    for _ in range(3):
        faulted.step()
        clean.step()
    np.testing.assert_array_equal(faulted.params(), clean.params())
    for a, b in zip(faulted.stores, clean.stores):
        assert a.records == b.records
        np.testing.assert_array_equal(a.labels, b.labels)


def test_trainer_topology_knob_reaches_shuffle():
    trainer = make_trainer(n=3, shuffle_every=1, topology="ring")
    assert trainer.topology == "ring"
    before = content_multiset(trainer)
    for _ in range(2):
        trainer.step()
    trainer.check_synchronized()
    assert content_multiset(trainer) == before
