"""Host-time benchmark of the simulator: four workloads, one command.

    python3 benchmarks/perf/run.py --workload allreduce --seed 0 --seconds 20 --trace 0

Every pass runs in a fresh child interpreter (``workloads.py``), one child at
a time, so the compiler memo and calibration caches start cold, as they do
for a CLI user.  The harness times only the public calls it makes itself and
changes nothing in ``src/``.

``--trace 0`` runs passes until ``--seconds`` is used up (at least one) and
reports the end-to-end metrics: ``wall_s`` (median host seconds per pass),
``setup_s`` (median over at least five children of interpreter start to
inputs built) and ``peak_rss_mb`` (largest child RSS).  Host seconds are
scaled to a nominal host speed, measured by a fixed reference loop timed
inside the same child (see :func:`scaled`); the unscaled medians are
printed too.  ``--trace 1`` runs one untraced and one cProfile'd pass and
reports the per-layer metrics.

Every operation's simulated outputs are checked: an operation fails if it
raises, if its own check fails, or if an output differs from
``expected.json`` by more than 1e-9 relative.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any operation failed.  ``--bless`` rewrites ``expected.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COMMON_LAYERS, LAYERS, VERIFY_PASSES
from workloads import REFERENCE_NOMINAL_S, SEEDED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "workloads.py"
EXPECTED_PATH = HERE / "expected.json"

MIN_SETUP_SAMPLES = 5
REL_TOL = 1e-9
# One child may not outlive the 180 s a whole run is allowed.
CHILD_TIMEOUT_S = 170
# Keep NumPy's BLAS single-threaded so children stay one-core and steady.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, mode: str, seed: int) -> dict:
    """Run one child interpreter to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    # Imports read cached bytecode, as a user's repeated CLI runs do.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, mode, str(seed), repr(spawned)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload} {mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Spawn the children of one run: ``{"passes": [...], "setups": [...]}``.

    Untraced, passes repeat while the next one is expected to fit in
    ``seconds``; setup-only children then top the set-up samples up to
    :data:`MIN_SETUP_SAMPLES`.  Traced, one plain and one profiled pass run.
    """
    if trace:
        return {"passes": [spawn(workload, "pass", seed)],
                "traced": spawn(workload, "trace", seed), "setups": []}
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(spawn(workload, "pass", seed))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            break
    setups = [spawn(workload, "setup", seed)
              for _ in range(MIN_SETUP_SAMPLES - len(passes))]
    return {"passes": passes, "setups": setups}


# -- correctness --------------------------------------------------------------

def digest(outputs: dict) -> str:
    """SHA-256 of a pass's simulated outputs (floats at full precision)."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _differs(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return got != want


def check_outputs(outputs: dict, pinned: dict | None) -> dict[str, str]:
    """Failed operations of one pass -> why.  ``pinned`` is None when the
    workload's outputs are not pinned for this seed."""
    failures: dict[str, str] = {}
    for name, out in outputs.items():
        if "error" in out:
            failures[name] = f"raised {out['error']}"
        elif not out.get("ok"):
            failures[name] = "its own check failed"
        elif pinned is not None:
            want = pinned.get(name)
            if want is None:
                failures[name] = "not pinned in expected.json"
                continue
            bad = [k for k in sorted(set(out) | set(want))
                   if _differs(out.get(k), want.get(k))]
            if bad:
                failures[name] = "differs from expected.json in " + ", ".join(
                    f"{k} ({out.get(k)!r} vs {want.get(k)!r})" for k in bad)
    for name in (pinned or {}):
        if name not in outputs:
            failures[name] = "missing from the pass"
    return failures


def pinned_for(workload: str, seed: int, expected: dict) -> dict | None:
    if workload in SEEDED and seed != expected["seed"]:
        return None
    return expected["workloads"].get(workload, {})


def judge(workload: str, seed: int, passes: list[dict], expected: dict) -> dict:
    """Check every pass; a pass whose outputs differ from the run's first
    pass fails those operations too (the simulator must be deterministic)."""
    pinned = pinned_for(workload, seed, expected)
    first = passes[0]["outputs"]
    attempted = failed = 0
    failures: dict[str, str] = {}
    for p in passes:
        out = p["outputs"]
        attempted += len(set(out) | set(pinned or {}))
        fails = check_outputs(out, pinned)
        for name in out:
            if name not in fails and out[name] != first.get(name):
                fails[name] = "differs from the run's first pass"
        failures.update(fails)
        failed += len(fails)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digest(first),
        "pinned": pinned is not None,
    }


# -- metrics ------------------------------------------------------------------

def scaled(seconds: float, reference_s: list[float]) -> float:
    """Host seconds at the speed where ``reference_work`` takes
    ``REFERENCE_NOMINAL_S``.  The host's speed drifts by tens of percent over
    minutes; scaling by the child's own reference samples cancels that."""
    return seconds * REFERENCE_NOMINAL_S / statistics.fmean(reference_s)


def end_to_end(run: dict) -> tuple[dict, dict]:
    """``(metric -> value, metric -> samples)`` of an untraced run."""
    children = run["passes"] + run["setups"]
    samples = {
        "wall_s": [scaled(p["wall_s"], p["reference_s"]) for p in run["passes"]],
        "setup_s": [scaled(c["setup_s"], c["setup_reference_s"]) for c in children],
        "peak_rss_mb": [c["rss_mb"] for c in children],
        "raw_wall_s": [p["wall_s"] for p in run["passes"]],
        "raw_setup_s": [c["setup_s"] for c in children],
    }
    metrics = {
        "wall_s": statistics.median(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": max(samples["peak_rss_mb"]),
    }
    return metrics, samples


def per_layer(run: dict) -> tuple[dict, dict]:
    """``(metric -> value, metric -> unit)`` of a traced run."""
    plain = run["passes"][0]
    plain_wall = scaled(plain["wall_s"], plain["reference_s"])
    traced = run["traced"]
    prof = traced["profile"]
    total = sum(prof["self_s"].values())
    counts = prof["counts"]
    reallocs = counts["net.reallocations"]
    values: dict[str, tuple[float, str]] = {}
    for layer in COMMON_LAYERS:
        values[f"self_s.{layer}"] = (prof["self_s"][layer], "s")
    for layer in LAYERS:
        values[f"share.{layer}"] = (100 * prof["self_s"][layer] / total, "%")
    for name in VERIFY_PASSES:
        values[f"share.verify.{name}"] = (100 * prof["verify_s"][name] / total, "%")
    for name, n in counts.items():
        values[name] = (n, "count")
    values["trace.calls"] = (prof["calls"], "count")
    values["sim.events_per_s"] = (counts["sim.events"] / plain_wall, "1/s")
    values["net.fixes_per_realloc"] = (
        counts["net.flow_fixes"] / reallocs if reallocs else 0.0, "count")
    # Profiled time per reallocation, scaled back to untraced host time.
    values["net.realloc_us"] = (
        1e6 * prof["realloc_cum_s"] * (plain_wall / traced["wall_s"]) / reallocs
        if reallocs else 0.0, "us")
    values["trace.overhead_x"] = (traced["wall_s"] / plain["wall_s"], "x")
    return ({k: v for k, (v, _) in values.items()},
            {k: u for k, (_, u) in values.items()})


def span_medians(passes: list[dict]) -> dict[str, float]:
    """Median stage seconds over passes, scaled like ``wall_s`` (``*_x``
    spans are ratios and stay as they are)."""
    names = sorted({k for p in passes for k in p["spans"]})
    return {
        name: statistics.median(
            v if name.endswith("_x") else scaled(v, p["reference_s"])
            for p in passes
            if (v := p["spans"].get(name)) is not None
        )
        for name in names
    }


# -- commands -----------------------------------------------------------------

def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> dict:
    run = measure(workload, seed, seconds, trace)
    passes = run["passes"] + ([run["traced"]] if trace else [])
    verdict = judge(workload, seed, passes, expected)
    record = {
        "workload": workload,
        "seed": seed,
        "seeded": workload in SEEDED,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "spans": span_medians(run["passes"]),
        **{k: verdict[k] for k in ("attempted", "failed", "failures", "digest", "pinned")},
    }
    if trace:
        record["metrics"], record["units"] = per_layer(run)
        record["missing_counters"] = run["traced"]["profile"]["missing"]
    else:
        record["metrics"], record["samples"] = end_to_end(run)
        record["units"] = END_TO_END_UNITS
    return record


def print_record(rec: dict) -> None:
    w = rec["workload"]
    seed_note = "" if rec["seeded"] else " (fixed paper configuration; the seed is not used)"
    print(f"== {w}  seed {rec['seed']}{seed_note}")
    samples = rec.get("samples", {})
    for name, value in rec["metrics"].items():
        n = f"  (n={len(samples[name])})" if name in samples else ""
        print(f"  {name:<26} {value:>14.6g} {rec['units'][name]}{n}")
    if "raw_wall_s" in samples:
        print(f"  unscaled host seconds: wall {statistics.median(samples['raw_wall_s']):.6g}, "
              f"setup {statistics.median(samples['raw_setup_s']):.6g}")
    for name, value in rec["spans"].items():
        print(f"  span {w}.{name:<20} {value:>10.6g}")
    for spec in rec.get("missing_counters", []):
        print(f"  counter target {spec} no longer exists; its count reads 0")
    pinned = "checked against expected.json" if rec["pinned"] else "not pinned for this seed"
    print(f"  digest sha256:{rec['digest']}  ({pinned})")
    print(f"  operations: {rec['attempted']} attempted, {rec['failed']} failed")
    for name, why in sorted(rec["failures"].items()):
        print(f"    FAILED {name}: {why}")


def bless(workloads: list[str]) -> int:
    """Regenerate expected.json from one seed-0 pass per workload."""
    expected = {"seed": 0, "workloads": {}}
    for w in workloads:
        outputs = spawn(w, "pass", 0)["outputs"]
        bad = check_outputs(outputs, None)
        if bad:
            for name, why in bad.items():
                print(f"{w} {name}: {why}", file=sys.stderr)
            return 1
        expected["workloads"][w] = outputs
        print(f"{w}: {len(outputs)} operations pinned, sha256:{digest(outputs)}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, help="append one JSON record per workload")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite expected.json (benchmark changes only)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {SRC}/repro", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.bless:
        return bless(workloads)
    expected = json.loads(EXPECTED_PATH.read_text())

    records = []
    try:
        for w in workloads:
            records.append(run_workload(w, args.seed, args.seconds, bool(args.trace), expected))
            print_record(records[-1])
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.out is not None:
        with args.out.open("a") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    single = len(records) == 1
    metrics = {
        (name if single else f"{rec['workload']}.{name}"): {"value": value, "unit": rec["units"][name]}
        for rec in records
        for name, value in rec["metrics"].items()
    }
    failed = sum(rec["failed"] for rec in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
