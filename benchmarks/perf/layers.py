"""Per-layer host-time attribution and exact work counters from a cProfile run.

Layers are named after ``repro`` modules.  A Python function belongs to the
layer of its module (longest matching prefix in :data:`LAYER_PREFIXES`).
Everything that is not ``repro`` code -- C builtins, the standard library,
NumPy's Python wrappers, dataclass-generated ``__init__`` -- has its self
time charged to the layer of whoever called it, split by pstats' per-caller
timings, so a ``heapq.heappush`` issued by the engine counts as ``sim`` time.
Time with no ``repro`` caller at all (the harness itself) is ``other``.

Nothing here imports ``repro`` at module level: the harness parent and the
tests use the layer map without loading the simulator.
"""

from __future__ import annotations

import importlib
from pathlib import Path

#: (module prefix, layer).  Longest prefix wins; unmatched modules are "other".
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.mpi.collectives", "mpi.collectives"),
    ("repro.mpi.schedule", "mpi.schedule"),
    ("repro.mpi.verify", "mpi.verify"),
    # The rest of the MPI runtime: world, communicators, datatypes, runner.
    ("repro.mpi", "mpi.world"),
    ("repro.train.stepdag", "train.stepdag"),
    ("repro.train", "train"),
    ("repro.models", "models"),
    ("repro.data", "data"),
    # The trainer's data-parallel table.  Its replicas run forward/backward on
    # real worker threads, which cProfile does not see; the main thread's
    # wait for them lands here.
    ("repro.dpt", "dpt"),
    ("repro.fleet.policy", "fleet.policy"),
    ("repro.fleet", "fleet"),
)

LAYERS: tuple[str, ...] = tuple(layer for _, layer in LAYER_PREFIXES) + ("other",)

#: Exact call counts: metric name -> "module:Qualified.name[/nested]".
COUNTERS: dict[str, str] = {
    "sim.events": "repro.sim.engine:Engine.step",
    "sim.processes": "repro.sim.engine:Process.__init__",
    "net.transfers": "repro.net.fabric:Fabric.transfer",
    "net.bandwidth_reads": "repro.net.fabric:Fabric.link_bandwidth",
    "net.routes": "repro.net.topology:Topology.route",
    "mpi.sends": "repro.mpi.world:MPIWorld.isend",
    # Private names: they disappear when the fabric solver is rewritten, and
    # then read 0 (the harness prints a notice).
    "net.reallocations": "repro.net.fabric:Fabric._reallocate",
    "net.flow_fixes": "repro.net.fabric:Fabric._compute_maxmin_rates/fix",
}

#: Verifier passes, measured as cumulative time in their entry functions.
VERIFY_PASSES: dict[str, str] = {
    "lint": "repro.mpi.schedule:validate_schedule",
    "hb": "repro.mpi.verify.hb:HBGraph.__init__",
    "determinism": "repro.mpi.verify.determinism:check_match_determinism",
    "races": "repro.mpi.verify.races:find_races",
    "semantic": "repro.mpi.verify.semantics:interpret_schedule",
    "bounds": "repro.mpi.verify.bounds:analyze_bounds",
}

#: Layers every workload executes; only these get a ``self_s.*`` metric, so
#: no reported time is a structural zero.
COMMON_LAYERS: tuple[str, ...] = ("sim", "net", "mpi.world", "mpi.collectives", "other")


def layer_of(module: str) -> str:
    """The layer of a dotted module name."""
    best, best_len = "other", -1
    for prefix, layer in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


def module_of(filename: str, src_dir: Path) -> str | None:
    """Dotted module of a source file under ``src_dir``; None for other code."""
    path = Path(filename)
    if path.suffix != ".py":
        return None
    try:
        rel = path.relative_to(src_dir)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def self_time_by_layer(stats: dict, src_dir: Path) -> dict[str, float]:
    """Charge every profiled function's self time to exactly one layer mix.

    ``stats`` is a ``pstats.Stats.stats`` mapping:
    ``(file, line, name) -> (cc, nc, tt, ct, callers)`` with
    ``callers[(file, line, name)] = (cc, nc, tt, ct)``.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def dist(func: tuple, stack: frozenset) -> dict[str, float]:
        module = module_of(func[0], src_dir)
        if module is not None:
            return {layer_of(module): 1.0}
        if func in memo:
            return memo[func]
        callers = {c: v for c, v in (stats[func][4] if func in stats else {}).items()
                   if c not in stack}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            # Called only for free (or only by itself): weigh callers by calls.
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
        result: dict[str, float] = {}
        if total <= 0:
            result["other"] = 1.0
        else:
            inner = stack | {func}
            for caller, w in weights.items():
                for layer, share in dist(caller, inner).items():
                    result[layer] = result.get(layer, 0.0) + share * w / total
        memo[func] = result
        return result

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in dist(func, frozenset()).items():
            out[layer] += tt * share
    return out


def _code_of(spec: str):
    """Resolve ``"module:Qual.name[/nested]"`` to a code object, or None."""
    module_name, _, path = spec.partition(":")
    path, _, nested = path.partition("/")
    try:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        code = obj.__code__
    except (ImportError, AttributeError):
        return None
    if not nested:
        return code
    for const in code.co_consts:
        if getattr(const, "co_name", None) == nested:
            return const
    return None


def _key(spec: str) -> tuple | None:
    code = _code_of(spec)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(stats: dict) -> tuple[dict[str, int], list[str]]:
    """Exact counts for :data:`COUNTERS`, plus the specs that no longer resolve."""
    counts: dict[str, int] = {}
    missing: list[str] = []
    for name, spec in COUNTERS.items():
        key = _key(spec)
        if key is None:
            missing.append(spec)
        counts[name] = stats[key][1] if key in stats else 0
    return counts, missing


def cumulative_seconds(stats: dict, spec: str) -> float:
    """Cumulative (inclusive) profiled time of one function, 0 if not called."""
    key = _key(spec)
    return stats[key][3] if key in stats else 0.0


def summarize_profile(stats: dict, src_dir: Path) -> dict:
    """Everything the harness reports from one profiled pass, JSON-ready."""
    counts, missing = call_counts(stats)
    return {
        "self_s": self_time_by_layer(stats, src_dir),
        "counts": counts,
        "missing": missing,
        # Only ``repro`` functions: how often the main thread polls a lock
        # while the fleet trainer's worker threads run is not repeatable.
        "calls": sum(entry[1] for func, entry in stats.items()
                     if module_of(func[0], src_dir) is not None),
        "verify_s": {name: cumulative_seconds(stats, spec) for name, spec in VERIFY_PASSES.items()},
        "realloc_cum_s": cumulative_seconds(stats, COUNTERS["net.reallocations"]),
    }
