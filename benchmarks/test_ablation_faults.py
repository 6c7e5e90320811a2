"""Ablation: failure sensitivity — stragglers and degraded links.

Quantifies the operational risk the paper's synchronous design accepts:
one 2x-slow node throttles every iteration (the barrier), and one host
with a degraded NIC drags the whole allreduce.  Asynchronous SGD (the §6
extension) degrades gracefully instead — a 2x-slow worker only thins its
own update stream.  The last row exercises live elastic recovery
(:mod:`repro.train.injection`): a rank crashed mid-run, survivors absorb
its data and finish within tolerance of the fault-free loss.
"""

import numpy as np
from conftest import emit

from repro.cluster import MINSKY_NODE, ClusterSpec
from repro.core.calibration import compute_model_for
from repro.data import DIMDStore, IMAGENET_1K
from repro.data.codec import encode_image
from repro.models import build_resnet50
from repro.models.nn import Dense, Flatten, Network, ReLU
from repro.train import (
    DistributedSGDTrainer,
    EpochTimeModel,
    FaultPlan,
    WarmupStepSchedule,
    crash,
)
from repro.train.async_sgd import AsyncSGDTrainer
from repro.train.faults import degraded_allreduce_time, straggler_epoch_time
from repro.utils.ascii import render_table


def net_factory(rng):
    return Network([Flatten(), Dense(16, 8, rng), ReLU(), Dense(8, 3, rng)])


def make_stores(n, seed=0):
    rng = np.random.default_rng(seed)
    stores = []
    for w in range(n):
        labels = rng.integers(0, 3, size=16)
        records = [
            encode_image(rng.integers(0, 255, size=(1, 4, 4), dtype=np.uint8))
            for _ in labels
        ]
        stores.append(DIMDStore(records, labels, learner=w))
    return stores


def run_fault_study():
    # Synchronous: straggler penalty from the epoch model.
    model = EpochTimeModel(
        model=build_resnet50(),
        cluster=ClusterSpec(name="c", n_nodes=8, node=MINSKY_NODE),
        dataset=IMAGENET_1K,
        compute=compute_model_for("resnet50"),
    )
    sync = straggler_epoch_time(model, slowdown=2.0, n_stragglers=1)

    # Synchronous: degraded-NIC allreduce penalty.
    healthy_ar, degraded_ar = degraded_allreduce_time(
        8, 32 << 20, algorithm="multicolor", link_factor=0.25
    )

    # Asynchronous: one 2x-slow worker of four, fixed time budget —
    # throughput drops only by the slow worker's missing updates.
    budget = 0.05  # simulated seconds
    base = AsyncSGDTrainer(net_factory, make_stores(4, seed=1), seed=2)
    r_base = base.run(time_limit=budget)
    slow = AsyncSGDTrainer(
        net_factory, make_stores(4, seed=1), seed=2,
        worker_speed_factors=[2.0, 1.0, 1.0, 1.0],
    )
    r_slow = slow.run(time_limit=budget)
    async_penalty = 1.0 - r_slow.iterations / r_base.iterations

    recovery = run_elastic_recovery()
    return sync, (healthy_ar, degraded_ar), async_penalty, recovery


def run_elastic_recovery(steps=16, crash_at=5):
    """Crash one of four learners mid-run; finish on the survivors.

    Returns the tail-loss ratio (faulted / fault-free) — ~1.0 means the
    shrunken run converges like the healthy one.
    """
    def make(plan):
        schedule = WarmupStepSchedule(
            batch_per_gpu=4, n_workers=4, base_lr=0.08,
            reference_batch=16, warmup_epochs=0.0,
        )
        return DistributedSGDTrainer(
            net_factory, make_stores(4, seed=3), gpus_per_node=1,
            batch_per_gpu=4, schedule=schedule, reducer="multicolor",
            seed=3, fault_plan=plan,
        )

    faulted = make(FaultPlan([crash(1, crash_at)]))
    results = [faulted.step() for _ in range(steps)]
    assert faulted.n_learners == 3
    faulted.check_synchronized()
    clean = make(None)
    clean_losses = [clean.step().loss for _ in range(steps)]
    tail = max(1, steps // 4)
    return float(
        np.mean([r.loss for r in results[-tail:]])
        / np.mean(clean_losses[-tail:])
    )


def test_ablation_faults(benchmark):
    sync, (h_ar, d_ar), async_penalty, recovery = benchmark.pedantic(
        run_fault_study, rounds=1, iterations=1
    )
    table = render_table(
        ["scenario", "penalty"],
        [
            ["sync: one 2x-slow node (8-node epoch)", f"+{sync.penalty:.0%}"],
            ["sync: one NIC at 25% (32 MB allreduce)",
             f"+{d_ar / h_ar - 1:.0%}"],
            ["async: one 2x-slow worker of 4 (update throughput)",
             f"-{async_penalty:.0%}"],
            ["elastic: crash 1 of 4 mid-run (tail-loss vs fault-free)",
             f"x{recovery:.2f}"],
        ],
        title="Ablation — failure sensitivity: sync barriers vs async",
    )
    emit("ablation_faults", table)

    # Sync pays nearly the full slowdown; async only loses the slow
    # worker's missing updates (~ (1/4) * (1/2) = 12.5% of throughput).
    assert sync.penalty > 0.5
    assert d_ar > h_ar * 1.5
    assert 0.0 < async_penalty < 0.3
    assert async_penalty < sync.penalty
    # Elastic recovery finishes on the survivors with comparable loss.
    assert 0.25 < recovery < 2.0


def run_mttr_study(n_ranks=4, count=1024):
    """Mean time to a recovered result for a mid-collective crash.

    *Restart* is the strategy available without failure attribution,
    computed analytically: the crash is only detected when the watchdog
    window expires, after which the survivor group reruns the collective
    from scratch (one timeout plus a fault-free survivor run).  *Surgical*
    is the schedule-level path: the crash interrupts the executor at
    fault time and the guarded attempt recompiles for the survivors
    immediately, never waiting out the watchdog.
    """
    from repro.mpi.chaos import DEFAULT_TIMEOUT_FACTOR, AllreducePlane, chaos_input
    from repro.mpi.collectives import ALLREDUCE_COMPILERS
    from repro.mpi.datatypes import ArrayBuffer
    from repro.mpi.guard import RetryPolicy
    from repro.mpi.schedule import run_guarded
    from repro.train.injection import FaultInjector

    rows = []
    for name in sorted(ALLREDUCE_COMPILERS):
        plane = AllreducePlane(name, count)
        ref = plane.reference(n_ranks)
        timeout = DEFAULT_TIMEOUT_FACTOR * ref.elapsed
        injector = FaultInjector(
            FaultPlan([crash(1, 0, at=ref.elapsed / 2.0)])
        )
        _, telemetry = run_guarded(
            ALLREDUCE_COMPILERS[name],
            lambda: [ArrayBuffer(chaos_input(r, count)) for r in range(n_ranks)],
            retry=RetryPolicy(timeout),
            fault_injector=injector,
        )
        surgical = telemetry.sim_time
        survivors = plane.reference(n_ranks - 1)
        restart = timeout + survivors.elapsed
        rows.append((name, surgical, restart))
    return rows


def test_mttr_restart_vs_surgical(benchmark):
    rows = benchmark.pedantic(run_mttr_study, rounds=1, iterations=1)
    table = render_table(
        ["algorithm", "surgical (ms)", "watchdog restart (ms)", "speedup"],
        [
            [name, f"{surgical * 1e3:.3g}", f"{restart * 1e3:.3g}",
             f"x{restart / surgical:.1f}"]
            for name, surgical, restart in rows
        ],
        title="MTTR — crash 1 of 4 mid-allreduce: surgical repair vs restart",
    )
    emit("ablation_mttr", table)
    assert len(rows) == 8
    for name, surgical, restart in rows:
        # Attribution removes the watchdog wait from the recovery path.
        assert surgical < restart, name
        assert surgical > 0.0, name