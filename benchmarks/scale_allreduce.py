"""Rank-scaling curve of the simulated multicolor allreduce (mc16 -> mc256).

Each point simulates one 88.7 MiB multicolor allreduce (ResNet-50's
gradient, Fig. 5 segmentation: ~64 segments, 64 KiB floor) in a fresh
child interpreter and records its host wall time, the number of fabric
reallocations, and the simulated elapsed time.  The counters and the
simulated time are machine-independent; wall time is unscaled host time.

    python3 benchmarks/scale_allreduce.py --label change
    python3 benchmarks/scale_allreduce.py --label parent --src ../parent/src --ranks 16 32 64

Run it from the repository root.  ``--src`` picks the ``src`` tree to
simulate with (default: this checkout's), so one command line measures any
revision.  Each run appends one record to the list under ``--label`` in ``--out``
(default ``BENCH_allreduce.json``).
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
SCALE_BYTES = int(88.7 * (1 << 20))
RANKS = (16, 32, 64, 128, 256)

#: One point, run in the child: prints {"wall_s", "reallocations", "elapsed_s"}.
CHILD = """
import json, sys, time
from repro.mpi import simulate_allreduce
from repro.net.fabric import Fabric

ranks, nbytes = int(sys.argv[1]), int(sys.argv[2])
calls = [0]
reallocate = Fabric._reallocate

def counted(self, *args):  # older trees' _reallocate takes no argument
    calls[0] += 1
    reallocate(self, *args)

Fabric._reallocate = counted
segment = max(64 * 1024, nbytes // 64)
simulate_allreduce(16, 1 << 20, algorithm="multicolor")  # warm imports, kernel and caches
calls[0] = 0
start = time.perf_counter()
out = simulate_allreduce(ranks, nbytes, algorithm="multicolor", segment_bytes=segment)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "reallocations": calls[0], "elapsed_s": out.elapsed}))
"""


def run_point(src: Path, ranks: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ranks), str(SCALE_BYTES)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {"ranks": ranks, **json.loads(done.stdout.splitlines()[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="record name, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--ranks", type=int, nargs="+", default=list(RANKS))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_allreduce.json")
    args = parser.parse_args(argv)
    points = []
    for ranks in args.ranks:
        point = run_point(args.src.resolve(), ranks)
        print(
            f"mc{ranks:<4} wall {point['wall_s']:8.2f} s  reallocations "
            f"{point['reallocations']:>8}  elapsed {point['elapsed_s']!r} s",
            flush=True,
        )
        points.append(point)
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records.setdefault(args.label, []).append({
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "payload_bytes": SCALE_BYTES,
        "algorithm": "multicolor",
        "points": points,
    })
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
