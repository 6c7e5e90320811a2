"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper, prints the
same rows/series the paper reports (run with ``-s`` to see them inline) and
writes the rendered text to ``benchmarks/out/`` for inspection.
"""

from __future__ import annotations

import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"

# Benchmarks cross-check against reference oracles kept in the test
# suite (``tests.train.overlap_reference``): make the repo root importable.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it."""
    print(f"\n{text}\n")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
