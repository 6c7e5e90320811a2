"""Silent-data-corruption defense: digests, guard invariants, the fault
registry, and the trainer's detect/attribute/quarantine/repair loop."""

import math

import numpy as np
import pytest

from repro.train import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    corrupt_messages,
    crash,
    sdc_flip,
)
from repro.train.sdc import (
    FLIP_BIT,
    BucketFingerprint,
    SDCGuard,
    SDCVerdict,
    flip_bit,
)
from repro.train.sdc_chaos import (
    _N_BUCKETS,
    _N_LEARNERS,
    _N_STEPS,
    _scripted_reference,
    sdc_trainer,
)
from repro.utils.digest import (
    array_fingerprint,
    crc_of_bytes,
    crc_of_ints,
    multiset_digest,
    record_fingerprint,
)


# -- shared digest helpers ----------------------------------------------------

def test_digest_extraction_is_backward_compatible():
    """The data plane's integrity primitives now come from utils.digest."""
    from repro.data import integrity

    blob = b"record payload"
    assert integrity.record_crc(blob) == crc_of_bytes(blob)
    assert integrity.multiset_digest is multiset_digest
    assert integrity.record_fingerprint is record_fingerprint
    assert integrity.crc_of_ints is crc_of_ints


def test_array_fingerprint_catches_below_tolerance_flips():
    """The CRC layer is exact: even a mantissa-LSB flip (numerically far
    below any float tolerance) changes the fingerprint."""
    a = np.linspace(0.0, 1.0, 50)
    before = array_fingerprint(a)
    b = a.copy()
    b.view(np.uint64)[25] ^= np.uint64(1)  # least significant mantissa bit
    assert array_fingerprint(b) != before
    assert abs(float(np.sum(b)) - float(np.sum(a))) < 1e-12


def test_fingerprint_label_distinguishes_buckets():
    a = np.arange(8, dtype=np.float64)
    assert array_fingerprint(a, label=0) != array_fingerprint(a, label=1)


# -- flip_bit -----------------------------------------------------------------

def test_flip_bit_roundtrip_and_magnitude():
    a = np.linspace(0.1, 1.0, 16)
    original = a.copy()
    flip_bit(a, 5)
    assert abs(a[5]) > 1e200  # bit 62 lands in the exponent's top range
    flip_bit(a, 5)
    np.testing.assert_array_equal(a, original)


def test_flip_bit_requires_float64():
    with pytest.raises(ValueError, match="float64"):
        flip_bit(np.zeros(4, dtype=np.float32), 0)


# -- SDCGuard invariants ------------------------------------------------------

N_RANKS = 3
COUNT = 20


def _grads(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=COUNT) for _ in range(N_RANKS)]


def _sum_results(grads):
    total = np.sum(grads, axis=0)
    return [total.copy() for _ in range(len(grads))]


def test_guard_clean_pass():
    guard = SDCGuard(COUNT, 4)
    grads = _grads()
    pre = [guard.fingerprint(g) for g in grads]
    verdict = guard.check(pre, grads, _sum_results(grads))
    assert verdict.ok and not verdict.suspects


def test_guard_linearity_names_the_corrupter():
    guard = SDCGuard(COUNT, 4)
    grads = _grads()
    pre = [guard.fingerprint(g) for g in grads]
    honest = grads[1].copy()
    flip_bit(grads[1], 7)  # bucket 1 of 4 (elements 5..9)
    verdict = guard.check(
        pre, grads, _sum_results(grads),
        recompute=lambda slot, lo, hi: honest[lo:hi],
    )
    assert not verdict.ok
    assert verdict.invariant == "linearity"
    assert verdict.suspects == (1,)
    assert verdict.recompute_confirmed is True
    assert "recompute confirms" in verdict.detail


def test_guard_recompute_exonerates_when_fed_data_is_honest():
    guard = SDCGuard(COUNT, 4)
    grads = _grads()
    pre = [guard.fingerprint(g) for g in grads]
    flip_bit(grads[1], 7)
    # A recompute that reproduces the *fed* (flipped) window says the
    # learner honestly computed what it sent: the claim was stale.
    verdict = guard.check(
        pre, grads, _sum_results(grads),
        recompute=lambda slot, lo, hi: grads[1][lo:hi],
    )
    assert not verdict.ok and verdict.suspects == (1,)
    assert verdict.recompute_confirmed is False
    assert "exonerates" in verdict.detail


def test_guard_replica_divergence_minority_vote():
    guard = SDCGuard(COUNT, 2)
    grads = _grads()
    pre = [guard.fingerprint(g) for g in grads]
    results = _sum_results(grads)
    flip_bit(results[2], 3)  # one replica's copy of the sum diverges
    verdict = guard.check(pre, grads, results)
    assert not verdict.ok
    assert verdict.invariant == "replica-divergence"
    assert verdict.suspects == (2,)


def test_guard_inflight_corruption_is_detected_but_unattributed():
    guard = SDCGuard(COUNT, 2)
    grads = _grads()
    pre = [guard.fingerprint(g) for g in grads]
    results = _sum_results(grads)
    for r in results:  # identical wrong sum everywhere: corrupted pre-sum
        flip_bit(r, 3)
    verdict = guard.check(pre, grads, results)
    assert not verdict.ok
    assert verdict.invariant == "linearity"
    assert verdict.suspects == ()
    assert "in-flight" in verdict.detail


def test_guard_nan_poison_is_detected():
    guard = SDCGuard(COUNT, 2)
    grads = _grads()
    pre = [guard.fingerprint(g) for g in grads]
    grads[0][2] = math.nan
    verdict = guard.check(pre, grads, _sum_results(grads))
    assert not verdict.ok and verdict.suspects == (0,)


def test_guard_tolerates_reduction_order_noise():
    """Summing in a different association order must not false-positive."""
    guard = SDCGuard(COUNT, 1)
    grads = _grads(3)
    pre = [guard.fingerprint(g) for g in grads]
    # Pairwise tree sum instead of sequential: same value up to fp error.
    tree = (grads[0] + grads[1]) + grads[2]
    seq = grads[0] + (grads[1] + grads[2])
    # tree and seq may or may not differ in the last ulp — either way the
    # guard must accept the reordered sum.
    verdict = guard.check(pre, grads, [tree.copy() for _ in grads])
    assert verdict.ok, verdict.detail


def test_guard_more_buckets_than_elements():
    guard = SDCGuard(3, 8)
    grads = [np.ones(3) * (r + 1) for r in range(N_RANKS)]
    pre = [guard.fingerprint(g) for g in grads]
    assert guard.n_buckets == 8
    verdict = guard.check(pre, grads, _sum_results(grads))
    assert verdict.ok


def test_guard_validation():
    with pytest.raises(ValueError):
        SDCGuard(0, 1)
    with pytest.raises(ValueError):
        SDCGuard(8, 0)
    with pytest.raises(ValueError):
        SDCGuard(8, 2, tolerance_factor=0.0)


def test_verdict_types_are_frozen():
    fp = BucketFingerprint(0, 0, 4, 1, 2.0, 3.0)
    verdict = SDCVerdict(ok=True)
    with pytest.raises(AttributeError):
        fp.crc = 9
    with pytest.raises(AttributeError):
        verdict.ok = False


# -- fault registry -----------------------------------------------------------

def test_registry_lists_every_kind_with_plane_and_doc():
    assert set(FAULT_KINDS) == {
        "crash", "degrade", "delay", "drop", "corrupt", "sdc"
    }
    assert FAULT_KINDS["sdc"].plane == "compute"
    assert FAULT_KINDS["crash"].plane == "process"
    for kind in FAULT_KINDS.values():
        assert kind.doc and kind.name


def test_registry_predicate_drives_count_validation():
    # Non-payload kinds ignore count entirely (no hardcoded kind tuple).
    spec = FaultSpec("crash", 0, rank=1, count=0)
    assert spec.kind == "crash"
    for kind in ("delay", "drop", "corrupt", "sdc"):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(kind, 0, rank=0, count=0, seconds=1.0)


def test_sdc_spec_validation():
    with pytest.raises(ValueError, match="needs a target rank"):
        FaultSpec("sdc", 0)
    with pytest.raises(ValueError, match="bucket"):
        sdc_flip(0, 1, bucket=-1)
    spec = sdc_flip(1, 2, bucket=3, count=2)
    assert (spec.rank, spec.bucket, spec.count) == (1, 3, 2)
    assert not spec.permanent


# -- trainer end to end -------------------------------------------------------

def test_trainer_detects_attributes_and_quarantines():
    plan = FaultPlan([sdc_flip(1, 1, bucket=0)])
    trainer = sdc_trainer(fault_plan=plan, sdc_buckets=_N_BUCKETS)
    with trainer:
        results = [trainer.step() for _ in range(_N_STEPS)]
        injected = [e for e in trainer.fault_log if e.kind == "sdc"]
        detected = [e for e in trainer.fault_log if e.kind == "sdc-detect"]
        assert len(injected) == 1 and injected[0].rank == 1
        assert len(detected) == 1 and detected[0].rank == 1
        assert "recompute confirms" in detected[0].detail
        assert results[1].quarantined == (1,)
        assert results[1].n_learners == 2  # survivors applied the step
        assert trainer.n_learners == 2
        trainer.check_synchronized()


def test_quarantine_rerun_is_bit_exact_vs_scripted_shrink():
    plan = FaultPlan([sdc_flip(1, 1, bucket=0)])
    trainer = sdc_trainer(fault_plan=plan, sdc_buckets=_N_BUCKETS)
    with trainer:
        for _ in range(_N_STEPS):
            trainer.step()
        ref = _scripted_reference(1, 1)
        np.testing.assert_array_equal(trainer.params(), ref)


def test_clean_run_equivalence_with_detection_on():
    """Fingerprinting is pure bookkeeping: params AND simulated time are
    bit-identical with the SDC audit on and off."""
    outcomes = []
    for buckets in (None, _N_BUCKETS):
        trainer = sdc_trainer(sdc_buckets=buckets)
        with trainer:
            results = [trainer.step() for _ in range(_N_STEPS)]
            outcomes.append((trainer.params(), [r.sim_time for r in results]))
    np.testing.assert_array_equal(outcomes[0][0], outcomes[1][0])
    assert outcomes[0][1] == outcomes[1][1], "sim times diverge"


def test_inflight_corruption_retries_unattributed(monkeypatch):
    """A strong in-flight flip corrupts the partial sum identically on
    every replica: detected by linearity, unattributable to any rank,
    retried — and the retry (fault exhausted) lands bit-exact on the
    clean trajectory with no learner quarantined."""
    from repro.train.injection import _ArmedFaults

    def strong_corrupt(self, payload):
        if (
            isinstance(payload, np.ndarray)
            and payload.dtype == np.float64
            and payload.size
        ):
            flipped = payload.copy()
            flat = flipped.reshape(-1).view(np.uint64)
            flat[0] ^= np.uint64(1) << np.uint64(FLIP_BIT)
            return flipped
        return payload

    monkeypatch.setattr(_ArmedFaults, "corrupt_payload", strong_corrupt)
    plan = FaultPlan([corrupt_messages(1, count=1)])
    trainer = sdc_trainer(fault_plan=plan, sdc_buckets=_N_BUCKETS)
    with trainer:
        results = [trainer.step() for _ in range(_N_STEPS)]
        detected = [e for e in trainer.fault_log if e.kind == "sdc-detect"]
        assert len(detected) == 1 and detected[0].rank is None
        assert results[1].retries == 1
        assert all(r.quarantined == () for r in results)
        assert trainer.n_learners == 3
        clean = sdc_trainer()
        with clean:
            for _ in range(_N_STEPS):
                clean.step()
            np.testing.assert_array_equal(trainer.params(), clean.params())


def test_sdc_check_rejects_exact_reducer():
    with pytest.raises(ValueError, match="simulated allreduce"):
        sdc_trainer(sdc_buckets=_N_BUCKETS, reducer="exact")
    with pytest.raises(ValueError, match="sdc_buckets must be >= 1"):
        sdc_trainer(sdc_buckets=0)


def test_compute_plane_plan_requires_sdc_check():
    with pytest.raises(ValueError, match="SDC audit is off"):
        sdc_trainer(fault_plan=FaultPlan([sdc_flip(1, 1)]))


def test_crash_plan_does_not_require_sdc_check():
    trainer = sdc_trainer(fault_plan=FaultPlan([crash(1, 1)]))
    with trainer:
        assert trainer.sdc_buckets is None


# -- the step DAG's audit steps -----------------------------------------------

def test_audited_step_dag_passes_semantic_verification():
    from repro.mpi.verify import train_step_contract, verify_schedule
    from repro.train.stepdag import compile_bucketed_step

    count = 64
    sched = compile_bucketed_step(
        4, count, 8, algorithm="multicolor", n_buckets=2,
        memory="staged", audit=True,
    )
    assert "audit" in sched.name
    audits = [
        s for s in sched.steps if "sdc audit" in getattr(s, "note", "")
    ]
    assert len(audits) == 2 * 4  # one per bucket per rank
    report = verify_schedule(sched, train_step_contract(4, count))
    assert report.ok, report.format()


def _audited_step_time(**step_kwargs) -> float:
    """Simulated seconds of one step DAG at the SDC sweep's geometry."""
    from repro.mpi.datatypes import SizeBuffer
    from repro.mpi.runner import build_world
    from repro.mpi.schedule import ScheduleExecutor
    from repro.train.stepdag import compile_bucketed_step

    with sdc_trainer() as trainer:
        count = trainer.n_params
    sched = compile_bucketed_step(
        _N_LEARNERS, count, 8, n_buckets=_N_BUCKETS, **step_kwargs
    )
    _engine, _world, comm = build_world(_N_LEARNERS)
    bufs = [SizeBuffer(count, 8) for _ in range(_N_LEARNERS)]
    return ScheduleExecutor(comm, sched, bufs).run()


def test_audit_time_is_an_explicit_priced_knob():
    """Detection cost enters simulated time only via ``audit_time``."""
    baseline = _audited_step_time()
    assert _audited_step_time(audit=True) == baseline  # zero-cost default
    assert _audited_step_time(audit=True, audit_time=1e-3) > baseline


def test_audit_rejects_negative_time():
    from repro.train.stepdag import compile_bucketed_step

    with pytest.raises(ValueError, match="audit_time"):
        compile_bucketed_step(4, 64, 8, audit=True, audit_time=-1.0)
