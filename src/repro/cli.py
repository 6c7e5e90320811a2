"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro table1
    python -m repro table2
    python -m repro epoch --model resnet50 --nodes 8 --baseline
    python -m repro allreduce --ranks 16 --mbytes 93 --algorithm multicolor
    python -m repro step --model resnet50 --ranks 16 --algorithm multicolor
    python -m repro shuffle --dataset imagenet-22k --learners 32
    python -m repro memory --dataset imagenet-22k --learners 32
    python -m repro trees --ranks 8 --colors 4
    python -m repro faults --learners 4 --crash-rank 1 --crash-at 4
    python -m repro faults --list
    python -m repro faults --kind sdc
    python -m repro chaos --ranks 4 --algorithms smoke
    python -m repro chaos --collective shuffle --ranks 4
    python -m repro chaos --collective fleet
    python -m repro chaos --collective sdc-step
    python -m repro chaos --collective fleet --full
    python -m repro fleet --jobs 4 --placement spread --kill-node 0
    python -m repro verify --all --goldens
    python -m repro fig5

Exit codes follow the fault tooling convention: 0 = ran and every
invariant held, 1 = ran but an invariant failed (lost recovery, chaos
violation), 2 = bad arguments.
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.units import MB, format_bytes, format_duration, format_rate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Kumar et al., CLUSTER 2018",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: open-source vs optimized epoch times")
    sub.add_parser("table2", help="Table 2: 90-epoch state-of-the-art comparison")
    sub.add_parser("fig5", help="Figure 5: allreduce throughput sweep")

    p = sub.add_parser("report", help="full paper-vs-measured markdown report")
    p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("epoch", help="epoch time + breakdown for one config")
    p.add_argument("--model", default="resnet50")
    p.add_argument("--dataset", default="imagenet-1k")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--batch", type=int, default=64, help="batch per GPU")
    p.add_argument("--allreduce", default="multicolor")
    p.add_argument("--baseline", action="store_true",
                   help="use the open-source baseline configuration")

    p = sub.add_parser("allreduce", help="simulate one allreduce")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--mbytes", type=float, default=93.0)
    p.add_argument("--algorithm", default="multicolor")
    p.add_argument("--segment-kib", type=int, default=1024)

    p = sub.add_parser(
        "schedule",
        help="compile an allreduce to its point-to-point schedule and print it",
    )
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--kib", type=float, default=64.0, help="payload size in KiB")
    p.add_argument("--algorithm", default="multicolor")
    p.add_argument("--segment-kib", type=int, default=64)
    p.add_argument("--max-steps", type=int, default=None,
                   help="print at most this many steps per rank")

    p = sub.add_parser(
        "step",
        help="compile one whole training iteration (forward, bucketed "
             "backward, per-bucket allreduce, optimizer) to a unified "
             "schedule; verify and time it",
    )
    p.add_argument("--model", default="resnet50")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--algorithm", default="multicolor")
    p.add_argument("--buckets", type=int, default=8,
                   help="gradient buckets the backward pass is split into")
    p.add_argument("--batch", type=int, default=32, help="batch per GPU")
    p.add_argument("--fp16", action="store_true",
                   help="halve the wire payload (2-byte gradients)")
    p.add_argument("--print", dest="print_steps", action="store_true",
                   help="also print the compiled schedule")
    p.add_argument("--max-steps", type=int, default=6,
                   help="with --print: at most this many steps per rank")

    p = sub.add_parser("shuffle", help="full-scale DIMD shuffle timing")
    p.add_argument("--dataset", default="imagenet-22k")
    p.add_argument("--learners", type=int, default=32)
    p.add_argument("--groups", type=int, default=1)

    p = sub.add_parser("memory", help="DIMD memory feasibility planning")
    p.add_argument("--dataset", default="imagenet-22k")
    p.add_argument("--learners", type=int, default=32)

    p = sub.add_parser("trees", help="print the multi-color spanning trees")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--colors", type=int, default=4)
    p.add_argument("--arity", type=int, default=None)

    p = sub.add_parser(
        "faults", help="inject faults into a training run and recover live"
    )
    p.add_argument("--list", action="store_true",
                   help="print every registered fault kind with its plane "
                        "and one-line doc, then exit")
    p.add_argument("--kind", default=None,
                   help="run a canned one-fault demo of this registered "
                        "kind (see --list) instead of the default "
                        "crash+drop scenario")
    p.add_argument("--learners", type=int, default=4)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--crash-rank", type=int, default=1,
                   help="rank to fail-stop permanently (-1 to disable)")
    p.add_argument("--crash-at", type=int, default=4,
                   help="iteration at which the crash fires")
    p.add_argument("--drop-at", type=int, default=1,
                   help="iteration whose gradient message is lost "
                        "(-1 to disable)")

    p = sub.add_parser(
        "chaos",
        help="sweep every schedule-level fault point and check the "
             "no-deadlock / bit-exactness / telemetry invariants",
    )
    p.add_argument("--collective", default="allreduce",
                   choices=tuple(CHAOS_PLANES),
                   help="the plane to sweep: the gradient allreduce, the "
                        "DIMD shuffle, the multi-tenant fleet, or the "
                        "training step's silent-data-corruption defense")
    p.add_argument("--ranks", type=int, nargs="+", default=[4],
                   help="group sizes to sweep")
    p.add_argument("--algorithms", default="smoke",
                   help="allreduce only: 'smoke' (one per family), 'all', "
                        "or a comma list")
    p.add_argument("--kinds", default=None,
                   help="comma list of fault kinds to inject (default: "
                        "every kind of the plane; not for sdc-step)")
    p.add_argument("--count", type=int, default=24,
                   help="allreduce only: elements per rank buffer")
    p.add_argument("--max-points", type=int, default=None,
                   help="evenly subsample the fault points: per rank and "
                        "kind for allreduce and shuffle, in total for "
                        "sdc-step (must be >= 1; not for fleet)")
    p.add_argument("--full", action="store_true",
                   help="fleet only: the full sweep, not the smoke subset")

    p = sub.add_parser(
        "fleet",
        help="run many concurrent training jobs on one shared simulated "
             "cluster (gang scheduling, preemption, fault domains)",
    )
    p.add_argument("--jobs", type=int, default=4, help="number of jobs")
    p.add_argument("--learners", type=int, default=2,
                   help="learners per job")
    p.add_argument("--steps", type=int, default=5, help="steps per job")
    p.add_argument("--placement", default="pack", choices=("pack", "spread"),
                   help="pack jobs into few racks, or spread fault domains")
    p.add_argument("--racks", type=int, default=2)
    p.add_argument("--nodes-per-rack", type=int, default=4)
    p.add_argument("--slots-per-node", type=int, default=2)
    p.add_argument("--seed", type=int, default=0,
                   help="fleet seed (requeue jitter etc.)")
    p.add_argument("--kill-node", type=int, default=None,
                   help="kill this node once every job has made progress")
    p.add_argument("--revive-after", type=float, default=None,
                   help="with --kill-node: revive the node this many "
                        "simulated seconds after the kill")
    p.add_argument("--grow", action="store_true",
                   help="give every job elastic_grow=True, so shrunk jobs "
                        "reclaim learners when slots free up")
    p.add_argument("--events", action="store_true",
                   help="print the scheduler event log")

    p = sub.add_parser(
        "verify",
        help="statically prove compiled schedules correct, race-free "
             "and bounded (semantic, race, determinism, bounds passes)",
    )
    p.add_argument("--all", action="store_true",
                   help="sweep every registered allreduce compiler plus the "
                        "auxiliary collectives (default: one per family)")
    p.add_argument("--algorithms", default=None,
                   help="comma list of allreduce algorithms to verify "
                        "(overrides --all)")
    p.add_argument("--ranks", type=int, nargs="+", default=[2, 4, 6, 16],
                   help="group sizes to sweep")
    p.add_argument("--count", type=int, default=1003,
                   help="elements per rank buffer")
    p.add_argument("--goldens", action="store_true",
                   help="cross-check the alpha-beta critical-path lower "
                        "bound against the Fig. 5 goldens")
    p.add_argument("--goldens-max-mb", type=float, default=None,
                   help="only cross-check goldens up to this payload size")
    p.add_argument("--verbose", action="store_true",
                   help="print every schedule's report, not just failures")
    p.add_argument("--fleet", action="store_true",
                   help="model-check the fleet control plane instead: "
                        "exhaustively explore event interleavings and prove "
                        "the eight control-plane invariants (exit 0 proved, "
                        "1 counterexample, 2 bad bounds)")
    p.add_argument("--fleet-depth", type=int, default=None,
                   help="with --fleet: maximum events per explored trace "
                        "(default: the CI smoke bound's depth)")
    p.add_argument("--fleet-steps", type=int, default=None,
                   help="with --fleet: per-job iteration boundaries explored")
    p.add_argument("--fleet-placement", default="pack",
                   help="with --fleet: placement policy to check "
                        "(pack or spread)")
    p.add_argument("--fleet-sweep", action="store_true",
                   help="with --fleet: the slow full bound (revive and "
                        "undrain flaps armed) instead of the CI smoke bound")
    p.add_argument("--fleet-max-states", type=int, default=None,
                   help="with --fleet: abort if the exploration exceeds "
                        "this many states (exit 2)")
    p.add_argument("--fleet-replay", action="store_true",
                   help="with --fleet: replay any counterexample trace "
                        "through the real scheduler and print the audit")
    return parser


def _cmd_table1(_args) -> int:
    from repro.analysis import render_table1

    print(render_table1())
    return 0


def _cmd_table2(_args) -> int:
    from repro.analysis import render_table2

    print(render_table2())
    return 0


def _cmd_fig5(_args) -> int:
    from repro.analysis import fig5_series
    from repro.utils.ascii import render_table

    x, series, _meta = fig5_series()
    rows = [
        [f"{mb} MB"] + [f"{series[a][i]:.2f}" for a in series]
        for i, mb in enumerate(x)
    ]
    print(
        render_table(
            ["payload"] + [f"{a} GB/s" for a in series], rows,
            title="Figure 5 — allreduce throughput, 16 nodes",
        )
    )
    return 0


def _cmd_epoch(args) -> int:
    from repro.core import ClusterExperiment, ExperimentConfig

    try:
        cfg = ExperimentConfig(
            model=args.model,
            dataset=args.dataset,
            n_nodes=args.nodes,
            batch_per_gpu=args.batch,
            allreduce=args.allreduce,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.baseline:
        cfg = cfg.open_source_baseline()
    exp = ClusterExperiment(cfg)
    print(f"configuration : {cfg}")
    print(f"epoch time    : {format_duration(exp.epoch_time())}")
    print(f"throughput    : {exp.images_per_second():,.0f} images/s")
    print(f"peak top-1    : {exp.peak_top1():.2f}%")
    print("breakdown per iteration:")
    for name, seconds in exp.breakdown().as_dict().items():
        print(f"  {name:16s} {format_duration(seconds):>10s}")
    return 0


def _cmd_allreduce(args) -> int:
    from repro.mpi import ALLREDUCE_COMPILERS, simulate_allreduce

    if args.algorithm not in ALLREDUCE_COMPILERS:
        print(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}",
            file=sys.stderr,
        )
        return 2
    nbytes = int(args.mbytes * MB)
    out = simulate_allreduce(
        args.ranks,
        nbytes,
        algorithm=args.algorithm,
        segment_bytes=args.segment_kib * 1024,
    )
    print(
        f"{args.algorithm} allreduce of {format_bytes(nbytes)} across "
        f"{args.ranks} nodes: {format_duration(out.elapsed)} "
        f"({format_rate(out.throughput(nbytes))} algorithmic)"
    )
    return 0


def _cmd_schedule(args) -> int:
    from repro.mpi import ALLREDUCE_COMPILERS, format_schedule, validate_schedule

    if args.algorithm not in ALLREDUCE_COMPILERS:
        print(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}",
            file=sys.stderr,
        )
        return 2
    itemsize = 4
    count = max(1, int(args.kib * 1024) // itemsize)
    schedule = ALLREDUCE_COMPILERS[args.algorithm](
        args.ranks, count, itemsize, segment_bytes=args.segment_kib * 1024
    )
    report = validate_schedule(schedule)
    print(format_schedule(schedule, max_steps=args.max_steps))
    print(
        f"lint ok: {report['n_steps']} steps, {report['n_messages']} messages, "
        f"sends/rank {report['sends_per_rank']}"
    )
    return 0


def _cmd_step(args) -> int:
    from repro.core.calibration import GPU_EFFICIENCY, compute_model_for
    from repro.models.zoo import get_model
    from repro.mpi import ALLREDUCE_COMPILERS, format_schedule
    from repro.mpi.datatypes import SizeBuffer
    from repro.mpi.runner import build_world
    from repro.mpi.schedule import ComputeStep, OptimStep, ScheduleExecutor, validate_schedule
    from repro.mpi.verify import analyze_bounds, train_step_contract, verify_schedule
    from repro.train.stepdag import compile_bucketed_step, compile_model_step

    if args.model not in GPU_EFFICIENCY:
        print(
            f"unknown model {args.model!r}; "
            f"choose from {sorted(GPU_EFFICIENCY)}",
            file=sys.stderr,
        )
        return 2
    if args.algorithm not in ALLREDUCE_COMPILERS:
        print(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}",
            file=sys.stderr,
        )
        return 2
    model = get_model(args.model)
    schedule = compile_model_step(
        model,
        n_ranks=args.ranks,
        algorithm=args.algorithm,
        compute=compute_model_for(args.model),
        batch_per_gpu=args.batch,
        n_buckets=args.buckets,
        fp16=args.fp16,
        memory="data",
    )
    report = validate_schedule(schedule)
    if args.print_steps:
        print(format_schedule(schedule, max_steps=args.max_steps))
    print(
        f"{schedule.name}: {report['n_steps']} steps, "
        f"{report['n_messages']} messages"
    )

    # Prove the same DAG shape statically, at a tractable element count.
    proxy_count = 1003
    proxy = compile_bucketed_step(
        args.ranks, proxy_count, schedule.itemsize,
        forward_time=1e-3, backward_time=2e-3, optim_time=5e-4,
        n_buckets=args.buckets, algorithm=args.algorithm, memory="staged",
    )
    vreport = verify_schedule(proxy, train_step_contract(args.ranks, proxy_count))
    print(vreport.format())
    if not vreport.ok:
        return 1

    # Time the full-size step and cross-check the analytic lower bound.
    engine, world, comm = build_world(args.ranks)
    buffers = [
        SizeBuffer(schedule.count, schedule.itemsize) for _ in range(args.ranks)
    ]
    executor = ScheduleExecutor(comm, schedule, buffers)
    start = engine.now
    engine.run(executor.launch())
    elapsed = engine.now - start
    bounds = analyze_bounds(schedule)
    ok = bounds.critical_path_s <= elapsed
    compute = sum(
        s.seconds for s in schedule.steps if isinstance(s, (ComputeStep, OptimStep))
    )
    print(
        f"simulated step {format_duration(elapsed)} "
        f"(compute {format_duration(compute / args.ranks)}"
        f"/rank); critical-path lower bound "
        f"{format_duration(bounds.critical_path_s)} "
        f"{'ok' if ok else 'VIOLATED'}"
    )
    return 0 if ok else 1


def _cmd_shuffle(args) -> int:
    from repro.core.calibration import DATASETS
    from repro.data import simulate_shuffle

    dataset = DATASETS[args.dataset]
    report = simulate_shuffle(args.learners, dataset, n_groups=args.groups)
    print(
        f"{dataset.name} shuffle across {args.learners} learners "
        f"({args.groups} group(s)): {report.elapsed:.2f} s, "
        f"{format_bytes(report.memory_per_node)} per node, "
        f"{report.n_passes} AlltoAllv passes"
    )
    return 0


def _cmd_memory(args) -> int:
    from repro.cluster import MINSKY_NODE
    from repro.core.calibration import DATASETS
    from repro.data import GroupLayout, max_replication_groups, plan_memory

    dataset = DATASETS[args.dataset]
    single = plan_memory(dataset, MINSKY_NODE, GroupLayout(args.learners, 1))
    print(
        f"single copy across {args.learners} learners: "
        f"{format_bytes(single.partition_bytes)}/node "
        f"({single.utilization:.0%} of budget) — "
        f"{'fits' if single.fits else 'DOES NOT FIT'}"
    )
    g = max_replication_groups(dataset, MINSKY_NODE, args.learners)
    plan = plan_memory(dataset, MINSKY_NODE, GroupLayout(args.learners, g))
    print(
        f"max replication: {g} group(s) of {args.learners // g} learner(s), "
        f"{format_bytes(plan.partition_bytes)}/node"
    )
    return 0


def _cmd_trees(args) -> int:
    from repro.mpi.collectives import color_trees, internal_nodes

    trees = color_trees(args.ranks, args.colors, args.arity)
    for color, tree in enumerate(trees):
        print(
            f"color {color}: root {tree.root}, "
            f"internal {sorted(internal_nodes(tree))}, "
            f"parents {dict(sorted(tree.parent.items()))}"
        )
    return 0


def _cmd_faults(args) -> int:
    from repro.train import (
        FAULT_KINDS,
        FaultPlan,
        corrupt_messages,
        crash,
        degrade_links,
        delay_messages,
        drop_messages,
        sdc_flip,
    )
    from repro.train.tiny import build_tiny_trainer

    if args.list:
        width = max(len(name) for name in FAULT_KINDS)
        for kind in FAULT_KINDS.values():
            print(f"{kind.name:<{width}s}  {kind.plane:<8s}  {kind.doc}")
        return 0
    if args.kind is not None and args.kind not in FAULT_KINDS:
        print(
            f"unknown fault kind {args.kind!r}; "
            f"choose from {tuple(FAULT_KINDS)}",
            file=sys.stderr,
        )
        return 2
    if args.kind is not None and args.learners < 2:
        print("--kind demos need --learners >= 2", file=sys.stderr)
        return 2

    specs = []
    trainer_kw = {}
    if args.kind is not None:
        # One canned fault of the requested kind, landing mid-run.
        mid = max(1, min(2, args.steps - 1))
        if args.kind == "crash":
            specs = [crash(1, mid)]
        elif args.kind == "degrade":
            specs = [degrade_links(1, mid, factor=0.25, duration=1e-3)]
        elif args.kind == "delay":
            specs = [delay_messages(mid, seconds=5e-4, count=2)]
        elif args.kind == "drop":
            specs = [drop_messages(mid, count=1)]
        elif args.kind == "corrupt":
            # Wire corruption: the payload lies but sizes and timing hold.
            # The data-plane shuffle CRC-checks every record; the
            # allreduce demo here shows the fault firing and training
            # running through it.
            specs = [corrupt_messages(mid, rank=0, count=1)]
        else:  # sdc
            specs = [sdc_flip(1, mid, bucket=0)]
            trainer_kw = dict(sdc_buckets=2)
    else:
        if args.drop_at >= 0:
            specs.append(drop_messages(args.drop_at, count=1))
        if args.crash_rank >= 0:
            if not 0 <= args.crash_rank < args.learners:
                print(
                    f"--crash-rank {args.crash_rank} out of range "
                    f"[0, {args.learners})",
                    file=sys.stderr,
                )
                return 2
            specs.append(crash(args.crash_rank, args.crash_at))
    trainer = build_tiny_trainer(
        args.learners, args.seed, fault_plan=FaultPlan(specs), **trainer_kw
    )
    total = sum(len(s) for s in trainer.stores)
    print(f"{'it':>3} {'learners':>8} {'loss':>8} {'retries':>7}  faults")
    try:
        for _ in range(args.steps):
            r = trainer.step()
            note = "; ".join(r.faults) if r.faults else "-"
            print(
                f"{r.iteration:>3} {r.n_learners:>8} {r.loss:>8.4f} "
                f"{r.retries:>7}  {note}"
            )
        trainer.check_synchronized()
    except Exception as exc:
        print(f"recovery failed: {exc!r}", file=sys.stderr)
        return 1
    conserved = sum(len(s) for s in trainer.stores)
    print(
        f"survivors {trainer.n_learners}/{args.learners}, replicas "
        f"synchronized, records conserved {conserved}/{total}"
    )
    if conserved != total:
        print("records lost during recovery", file=sys.stderr)
        return 1
    return 0


def _algorithms(spec: str) -> list[str]:
    """'smoke' (one allreduce per family), 'all', or a comma list of
    registered allreduce names (``ValueError`` on an unknown one)."""
    from repro.mpi.chaos import smoke_algorithms
    from repro.mpi.collectives import ALLREDUCE_COMPILERS

    if spec in ("smoke", "all"):
        return smoke_algorithms() if spec == "smoke" else sorted(ALLREDUCE_COMPILERS)
    names = [a.strip() for a in spec.split(",") if a.strip()]
    unknown = [a for a in names if a not in ALLREDUCE_COMPILERS]
    if unknown:
        raise ValueError(
            f"unknown algorithm(s) {unknown}; choose from {sorted(ALLREDUCE_COMPILERS)}"
        )
    return names


def _chaos_allreduce(args, kinds):
    from repro.chaos import select_kinds
    from repro.mpi.chaos import DEFAULT_KINDS, chaos_sweep

    algorithms = _algorithms(args.algorithms)
    select_kinds("allreduce", kinds, DEFAULT_KINDS)
    return lambda: chaos_sweep(
        algorithms, args.ranks, kinds=kinds, count=args.count,
        max_points_per_rank=args.max_points,
    )


def _chaos_shuffle(args, kinds):
    from repro.chaos import select_kinds
    from repro.mpi.chaos import SHUFFLE_KINDS, shuffle_chaos_sweep

    select_kinds("shuffle", kinds, SHUFFLE_KINDS)
    return lambda: shuffle_chaos_sweep(
        args.ranks, kinds=kinds, max_points_per_rank=args.max_points
    )


def _chaos_fleet(args, kinds):
    from repro.chaos import select_kinds
    from repro.fleet.chaos import FLEET_KINDS, fleet_chaos_sweep

    if args.max_points is not None:
        raise ValueError("--max-points does not apply to the fleet plane")
    select_kinds("fleet", kinds, FLEET_KINDS)
    return lambda: fleet_chaos_sweep(kinds=kinds, smoke=not args.full)


def _chaos_sdc(args, kinds):
    from repro.train.sdc_chaos import sdc_chaos_sweep

    if kinds is not None:
        raise ValueError("--kinds does not apply to the sdc-step plane")
    return lambda: sdc_chaos_sweep(max_points=args.max_points)


#: The planes of the chaos harness, by ``repro chaos --collective`` name.
#: Each checks its options (``ValueError`` on a bad one) before any point
#: runs, imports only its own plane, and returns the sweep to run.
CHAOS_PLANES = {
    "allreduce": _chaos_allreduce,
    "shuffle": _chaos_shuffle,
    "fleet": _chaos_fleet,
    "sdc-step": _chaos_sdc,
}


def _cmd_chaos(args) -> int:
    from repro.chaos import check_max_points

    kinds = (
        None if args.kinds is None
        else tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    )
    try:
        check_max_points(args.max_points)
        run = CHAOS_PLANES[args.collective](args, kinds)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run()
    print(report.format())
    return 0 if report.all_ok else 1


def _cmd_fleet(args) -> int:
    from repro.fleet import FleetScheduler, JobSpec, SharedCluster

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        cluster = SharedCluster(
            n_racks=args.racks,
            nodes_per_rack=args.nodes_per_rack,
            slots_per_node=args.slots_per_node,
        )
        specs = [
            JobSpec(
                name=f"job{i}",
                n_learners=args.learners,
                n_steps=args.steps,
                seed=args.seed * 1000 + i,
                elastic_grow=args.grow,
            )
            for i in range(args.jobs)
        ]
        scheduler = FleetScheduler(
            cluster, specs, placement=args.placement, seed=args.seed
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.revive_after is not None and args.kill_node is None:
        print("--revive-after needs --kill-node", file=sys.stderr)
        return 2
    if args.kill_node is not None:
        if not 0 <= args.kill_node < cluster.n_nodes:
            print(
                f"--kill-node {args.kill_node} out of range "
                f"[0, {cluster.n_nodes})",
                file=sys.stderr,
            )
            return 2
        if args.revive_after is not None and args.revive_after <= 0:
            print("--revive-after must be positive", file=sys.stderr)
            return 2

        def killer():
            while not all(
                j.telemetry.steps >= 1 or j.status in ("failed", "rejected")
                for j in scheduler.jobs.values()
            ):
                yield cluster.engine.timeout(1e-4)
            if cluster.nodes[args.kill_node].alive:
                scheduler.kill_node(args.kill_node)
                if args.revive_after is not None:
                    yield cluster.engine.timeout(args.revive_after)
                    if not cluster.nodes[args.kill_node].alive:
                        scheduler.revive_node(args.kill_node)

        scheduler.spawn(killer(), name="kill-node")
    report = scheduler.run()
    print(report.format())
    if args.events:
        for event in report.events:
            print(event)
    ok = report.all_terminal and not report.leaked and not any(
        j.status == "failed" for j in report.jobs
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.fleet:
        return _cmd_verify_fleet(args)
    from repro.mpi.verify.sweep import run_sweep

    try:
        algorithms = _algorithms(
            args.algorithms if args.algorithms is not None
            else "all" if args.all else "smoke"
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    result = run_sweep(
        algorithms=algorithms,
        ranks=tuple(args.ranks),
        count=args.count,
        goldens=args.goldens,
        goldens_max_mb=args.goldens_max_mb,
    )
    print(result.format(verbose=args.verbose))
    return 0 if result.all_ok else 1


def _cmd_verify_fleet(args) -> int:
    """Bounded model checking of the fleet control plane.

    Exit codes: 0 all invariants proved within the bound, 1 a
    counterexample was found, 2 the requested bounds are invalid or the
    exploration blew the state cap.
    """
    import dataclasses

    from repro.fleet.verify import (
        replay_trace,
        smoke_bounds,
        sweep_bounds,
        verify_fleet,
    )

    try:
        if args.fleet_sweep:
            bounds = sweep_bounds(placement=args.fleet_placement)
        else:
            bounds = smoke_bounds(placement=args.fleet_placement)
        overrides = {}
        if args.fleet_depth is not None:
            overrides["depth"] = args.fleet_depth
        if args.fleet_steps is not None:
            overrides["max_steps"] = args.fleet_steps
        if overrides:
            bounds = dataclasses.replace(bounds, **overrides)
    except ValueError as exc:
        print(f"bad bounds: {exc}", file=sys.stderr)
        return 2

    try:
        result = verify_fleet(bounds, max_states=args.fleet_max_states)
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    print(result.format())

    if result.counterexample is not None and args.fleet_replay:
        replay = replay_trace(bounds, result.counterexample.trace)
        print(replay.format())

    return 0 if result.ok else 1


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    text = generate_report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "report": _cmd_report,
    "table2": _cmd_table2,
    "fig5": _cmd_fig5,
    "epoch": _cmd_epoch,
    "allreduce": _cmd_allreduce,
    "schedule": _cmd_schedule,
    "step": _cmd_step,
    "shuffle": _cmd_shuffle,
    "memory": _cmd_memory,
    "trees": _cmd_trees,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
