"""Learner-scaling curve of the simulated DIMD shuffle (16 -> 128 learners).

Each point simulates one imagenet-22k all-to-all shuffle (Figs. 7-8, one
group, the default 4-hosts-per-leaf fat tree) in a fresh child interpreter
and records its host wall time, the number of fabric reallocations, and
the simulated elapsed time.  The counters and the simulated time are
machine-independent; wall time is unscaled host time.

    python3 benchmarks/scale_shuffle.py --label change
    python3 benchmarks/scale_shuffle.py --label parent --src ../parent/src --learners 16 32

Run it from the repository root.  ``--src`` picks the ``src`` tree to
simulate with (default: this checkout's), so one command line measures any
revision.  Each run appends one record to the list under ``--label`` in ``--out``
(default ``BENCH_shuffle.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATASET = "imagenet-22k"
LEARNERS = (16, 32, 64, 128)

#: One point, run in the child: prints {"wall_s", "reallocations", "elapsed_s"}.
CHILD = """
import json, sys, time
from repro.core.calibration import DATASETS
from repro.data import simulate_shuffle
from repro.net.fabric import Fabric

learners, dataset = int(sys.argv[1]), DATASETS[sys.argv[2]]
calls = [0]
reallocate = Fabric._reallocate

def counted(self, *args):  # older trees' _reallocate takes no argument
    calls[0] += 1
    reallocate(self, *args)

Fabric._reallocate = counted
simulate_shuffle(4, dataset)  # warm imports and the kernel
calls[0] = 0
start = time.perf_counter()
out = simulate_shuffle(learners, dataset)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "reallocations": calls[0], "elapsed_s": out.elapsed}))
"""


def run_point(src: Path, learners: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(learners), DATASET],
        env=env, capture_output=True, text=True, check=True,
    )
    return {"learners": learners, **json.loads(done.stdout.splitlines()[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="record name, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--learners", type=int, nargs="+", default=list(LEARNERS))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_shuffle.json")
    args = parser.parse_args(argv)
    points = []
    for learners in args.learners:
        point = run_point(args.src.resolve(), learners)
        print(
            f"l{learners:<4} wall {point['wall_s']:8.2f} s  reallocations "
            f"{point['reallocations']:>8}  elapsed {point['elapsed_s']!r} s",
            flush=True,
        )
        points.append(point)
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records.setdefault(args.label, []).append({
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "dataset": DATASET,
        "groups": 1,
        "points": points,
    })
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
