"""The bench's exact work counters still count what they name.

``benchmarks/perf/layers.py`` counts engine entries, processes, sends,
transfers, routes and reallocations as cProfile call counts of single
functions (its ``COUNTERS`` table).  A refactor that routes a message
around ``MPIWorld.isend`` or ``Fabric.transfer``, or renames one of them,
makes a count read 0 in the bench without failing anything.  This test
reads that table, runs two small collectives under cProfile and checks
that every count resolves, is non-zero, and agrees with what the
simulator itself recorded.
"""

from __future__ import annotations

import cProfile
import importlib.util
import json
import pstats
from pathlib import Path

from repro.core.calibration import DATASETS
from repro.data import simulate_shuffle
from repro.mpi import runner, simulate_allreduce

BENCH = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "perf" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

#: The pinned counters plus the three the message path must keep live.
#: ``net.flow_fixes`` and ``net.bandwidth_reads`` are left out: their
#: targets are known to be stale.
NAMES = sorted(
    {name for pins in json.loads((BENCH / "counters.json").read_text())["workloads"].values()
     for name in pins}
    | {"mpi.sends", "net.transfers", "net.routes"}
)


def _profiled_counts(fn):
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    counts, missing = layers.call_counts(pstats.Stats(profiler).stats)
    assert not {layers.COUNTERS[name] for name in NAMES} & set(missing), missing
    counts = {name: counts[name] for name in NAMES}
    assert all(counts.values()), counts
    assert counts["mpi.sends"] == counts["net.transfers"] == counts["net.routes"], counts
    return result, counts


def test_allreduce_counts_every_message(monkeypatch):
    executors = []

    class RecordingExecutor(runner.ScheduleExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executors.append(self)

    monkeypatch.setattr(runner, "ScheduleExecutor", RecordingExecutor)
    _, counts = _profiled_counts(
        lambda: simulate_allreduce(4, 1 << 20, algorithm="multicolor", segment_bytes=1 << 16)
    )
    (executor,) = executors
    assert counts["mpi.sends"] == executor.stats.n_messages
    assert counts["net.transfers"] == executor.comm.world.fabric.stats.transfers_started


def test_shuffle_counts_every_message():
    report, _ = _profiled_counts(lambda: simulate_shuffle(4, DATASETS["imagenet-1k"]))
    assert report.elapsed > 0
