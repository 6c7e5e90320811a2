"""Gate on the perf bench's work counters: fail when one grows past its pin.

    python3 benchmarks/check_counters.py

For every workload in ``counters.json`` this runs
``benchmarks/perf/run.py --workload <name> --trace 1`` and reads the exact
counters from the last line of its output.  The counters (engine events,
processes, fabric reallocations) are machine-independent, so the check is
exact where wall time is noisy.  It exits 1 if a run fails or a counter
exceeds its pinned value by more than ``tolerance``.  Run it from the
repository root.  A change that moves a pin edits ``counters.json`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "perf" / "run.py"


def traced_metrics(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--trace", "1"],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {done.returncode}\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])["metrics"]


def main() -> int:
    pins = json.loads((HERE / "counters.json").read_text())
    tolerance = pins["tolerance"]
    failed = False
    for workload, counters in pins["workloads"].items():
        metrics = traced_metrics(workload)
        for name, pinned in counters.items():
            value = metrics[name]["value"]
            over = value > pinned * (1 + tolerance)
            failed |= over
            verdict = "OVER" if over else "ok"
            print(f"{workload:<11} {name:<18} {value:>10} pinned {pinned:>10}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
