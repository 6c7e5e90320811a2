"""Compare two sets of benchmark runs, or summarize one set.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl
    python3 benchmarks/perf/compare.py --summary RUNS.jsonl > baseline.json

Each file holds the records ``run.py --out FILE`` appends, one per workload
per run.  ``A`` is the parent commit and ``B`` the change, the same number
of runs each, made in alternating order (A, B, B, A, ...) so that run *i* of
A and run *i* of B form a pair.

For every (workload, end-to-end metric) the comparison prints each side's
median and quartiles, and a verdict:

* ``REGRESSED`` -- B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved`` -- either side's quartile spread is wider than the bound,
  unless every run of B reads better than every run of A;
* ``improved`` -- B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's quartile spread;
* ``unchanged`` -- otherwise.

Traced counts must repeat exactly within each side; a count that differs
between A and B is listed.  Output digests must agree across both sides
(and across seeds for workloads that do not use the seed).  The exit code is
1 on a regression, a digest mismatch, or more failed operations in B.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def grouped(records: list[dict], trace: bool) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec["trace"] == trace:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> dict:
    """The §8 comparison of one (workload, metric) pair."""
    sign = 1 if lower_is_better else -1
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse_by = sign * (bm - am) / am
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "REGRESSED"
    elif pairs and wins >= 0.9 * len(pairs) and worse_by < 0 and abs(bm - am) > a3 - a1:
        status = "improved"
    else:
        status = "unchanged"
    return {"a": (a1, am, a3), "b": (b1, bm, b3), "worse_by": worse_by,
            "spread": spread, "wins": wins, "pairs": len(pairs), "status": status}


def digest_problems(records: list[dict]) -> list[str]:
    """Digests that disagree for one (workload, seed), or across seeds for a
    workload that does not use its seed."""
    seen: dict[tuple, set[str]] = {}
    for rec in records:
        key = (rec["workload"], rec["seed"] if rec["seeded"] else None)
        seen.setdefault(key, set()).add(rec["digest"])
    return [
        f"{w}{'' if seed is None else f' seed {seed}'}: {len(ds)} different output digests"
        for (w, seed), ds in sorted(seen.items(), key=str) if len(ds) > 1
    ]


def count_changes(a: list[dict], b: list[dict], names: list[str]) -> list[str]:
    out = []
    for name in names:
        va = sorted({r["metrics"][name] for r in a if name in r["metrics"]})
        vb = sorted({r["metrics"][name] for r in b if name in r["metrics"]})
        if len(va) > 1 or len(vb) > 1 or va != vb:
            out.append(f"{name}: A {va} B {vb}")
    return out


def compare(a_recs: list[dict], b_recs: list[dict], spec: dict) -> int:
    bad = False
    print(f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B vs A':>8} {'spread':>7} {'wins':>6}  verdict")
    a_by, b_by = grouped(a_recs, False), grouped(b_recs, False)
    for w in sorted(set(a_by) & set(b_by)):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name] for r in a_by[w]]
            b = [r["metrics"][name] for r in b_by[w]]
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            bad |= v["status"] == "REGRESSED"
            fa = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*v["a"])
            fb = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*v["b"])
            print(f"{w:<12} {name:<12} {fa:>30} {fb:>30} {-v['worse_by']:>+8.1%} "
                  f"{v['spread']:>7.1%} {v['wins']:>3}/{v['pairs']:<2}  {v['status']}")
        fails_a = sum(r["failed"] for r in a_by[w])
        fails_b = sum(r["failed"] for r in b_by[w])
        if fails_b > fails_a:
            bad = True
            print(f"{w:<12} failed operations: A {fails_a}, B {fails_b}")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    a_tr, b_tr = grouped(a_recs, True), grouped(b_recs, True)
    for w in sorted(set(a_tr) & set(b_tr)):
        changes = count_changes(a_tr[w], b_tr[w], counts)
        print(f"{w:<12} traced counts: " + ("identical" if not changes else "CHANGED"))
        for line in changes:
            print(f"    {line}")
    problems = digest_problems(a_recs + b_recs)
    for line in problems:
        print(f"digest mismatch: {line}")
    if not problems:
        print("output digests: identical")
    return 1 if bad or problems else 0


def summary(records: list[dict]) -> dict:
    """Medians per workload: the content of ``baseline.json``."""
    out: dict = {
        "git_sha": sorted({r["git_sha"] for r in records if r["git_sha"]}),
        "python": sorted({r["python"] for r in records}),
        "nproc": sorted({r["nproc"] for r in records}),
        "seeds": sorted({r["seed"] for r in records}),
        "workloads": {},
    }
    timed, traced = grouped(records, False), grouped(records, True)
    for w in sorted(set(timed) | set(traced)):
        entry: dict = {"digest": sorted({r["digest"] for r in records if r["workload"] == w}),
                       "failed": sum(r["failed"] for r in records if r["workload"] == w)}
        runs = timed.get(w, [])
        if runs:
            entry["runs"] = len(runs)
            entry["end_to_end"] = {}
            for name, unit in runs[0]["units"].items():
                q1, med, q3 = quartiles([r["metrics"][name] for r in runs])
                entry["end_to_end"][name] = {
                    "median": med, "q1": q1, "q3": q3, "unit": unit,
                    "samples": sum(len(r["samples"][name]) for r in runs),
                }
            entry["spans"] = {
                k: statistics.median(r["spans"][k] for r in runs) for k in runs[0]["spans"]
            }
        if w in traced:
            entry["traced_runs"] = len(traced[w])
            entry["per_layer"] = {
                name: {"median": statistics.median(r["metrics"][name] for r in traced[w]),
                       "unit": unit}
                for name, unit in traced[w][0]["units"].items()
            }
        out["workloads"][w] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", type=Path, nargs="+", help="A.jsonl B.jsonl, or one file with --summary")
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    if args.summary:
        records = [rec for path in args.files for rec in load(path)]
        print(json.dumps(summary(records), indent=1, sort_keys=True))
        return 0
    if len(args.files) != 2:
        parser.error("give two files: A.jsonl B.jsonl")
    spec = json.loads(BENCHMARK.read_text())
    return compare(load(args.files[0]), load(args.files[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
