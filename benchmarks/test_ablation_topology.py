"""Ablation: allreduce algorithms across topologies and oversubscription.

The paper argues the multi-color trees exploit fat-tree path diversity;
this bench checks how each algorithm's 93 MB allreduce behaves on a
non-blocking fat-tree, a 4:1 oversubscribed fat-tree and a plain ring
network — and how much traffic each pushes through the leaf-spine core.
"""

from conftest import emit

from repro.mpi import ALLREDUCE_COMPILERS, ScheduleExecutor, SizeBuffer, build_world
from repro.net import CONNECTX5_DUAL, fat_tree
from repro.utils.ascii import render_table
from repro.utils.units import MB

PAYLOAD = int(93 * MB)
N = 16
ALGS = ("multicolor", "ring", "rsag", "hierarchical")


def run_topology_sweep():
    rows = {}
    for oversub in (1.0, 4.0):
        for alg in ALGS:
            topo = fat_tree(
                N, CONNECTX5_DUAL, hosts_per_leaf=4, oversubscription=oversub
            )
            engine, world, comm = build_world(N, topology=topo)
            kwargs = {"group_size": 4} if alg == "hierarchical" else {}
            if alg in ("multicolor", "ring"):
                kwargs["segment_bytes"] = 1024 * 1024
            bufs = [SizeBuffer(PAYLOAD // 4, 4) for _ in range(N)]
            schedule = ALLREDUCE_COMPILERS[alg](N, PAYLOAD // 4, 4, **kwargs)
            ScheduleExecutor(comm, schedule, bufs).run()
            core = sum(
                v
                for li, v in world.fabric.stats.link_bytes.items()
                if "spine" in topo.links[li].src or "spine" in topo.links[li].dst
            )
            rows[(oversub, alg)] = (engine.now, core)
    return rows


def test_ablation_topology(benchmark):
    rows = benchmark.pedantic(run_topology_sweep, rounds=1, iterations=1)
    table = render_table(
        ["oversubscription", "algorithm", "time (ms)", "core traffic (GB)"],
        [
            [f"{o:.0f}:1", alg, f"{t * 1e3:.2f}", f"{core / 1e9:.2f}"]
            for (o, alg), (t, core) in rows.items()
        ],
        title="Ablation — topology sensitivity, 93 MB allreduce, 16 nodes",
    )
    emit("ablation_topology", table)

    # Non-blocking fabric: multicolor is the fastest (the paper's regime).
    best_nb = min(rows[(1.0, a)][0] for a in ALGS)
    assert rows[(1.0, "multicolor")][0] == best_nb
    # Oversubscription hurts multicolor most (its trees span leaves)...
    slowdown = {a: rows[(4.0, a)][0] / rows[(1.0, a)][0] for a in ALGS}
    assert slowdown["multicolor"] >= max(slowdown[a] for a in ("ring", "rsag"))
    # ...while the hierarchical layout moves the least core traffic.
    assert rows[(4.0, "hierarchical")][1] == min(rows[(4.0, a)][1] for a in ALGS)
