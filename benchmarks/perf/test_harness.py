"""Checks of the benchmark harness itself.  Run with ``cd benchmarks && pytest perf``."""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _modules() -> list[str]:
    mods = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        mods.append(layers.module_of(str(path), SRC))
    return mods


def test_every_module_maps_to_exactly_one_layer():
    prefixes = [p for p, _ in layers.LAYER_PREFIXES]
    assert len(set(prefixes)) == len(prefixes)
    used = set()
    for mod in _modules():
        matches = [p for p in prefixes if mod == p or mod.startswith(p + ".")]
        longest = [p for p in matches if len(p) == max(map(len, matches), default=0)]
        assert len(longest) <= 1, (mod, longest)
        layer = layers.layer_of(mod)
        assert layer in layers.LAYERS
        used.add(layer)
    # No prefix names a package that does not exist.
    assert used == set(layers.LAYERS), set(layers.LAYERS) - used


def test_builtin_self_time_is_charged_to_the_calling_layer():
    engine = (str(SRC / "repro/sim/engine.py"), 10, "step")
    fabric = (str(SRC / "repro/net/fabric.py"), 20, "_reallocate")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    length = ("~", 0, "<built-in method builtins.len>")
    stdlib = ("/usr/lib/python3/dataclasses.py", 5, "__init__")
    harness = (str(HERE / "workloads.py"), 1, "run_pass")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        engine: (1, 1, 1.0, 3.0, {harness: (1, 1, 1.0, 3.0)}),
        fabric: (1, 1, 2.0, 6.5, {harness: (1, 1, 2.0, 6.5)}),
        heappush: (5, 5, 2.0, 2.0, {engine: (5, 5, 2.0, 2.0)}),
        # len() is called by the engine for 1 s and by the fabric for 3 s.
        length: (9, 9, 4.0, 4.0, {engine: (1, 1, 1.0, 1.0), fabric: (8, 8, 3.0, 3.0)}),
        # A non-repro Python function is charged like a builtin.
        stdlib: (2, 2, 1.5, 1.5, {fabric: (2, 2, 1.5, 1.5)}),
    }
    got = layers.self_time_by_layer(stats, SRC)
    assert got["sim"] == pytest.approx(1.0 + 2.0 + 1.0)
    assert got["net"] == pytest.approx(2.0 + 3.0 + 1.5)
    assert got["other"] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(sum(v[2] for v in stats.values()))


def _fake_run(outputs: dict) -> dict:
    child = {"setup_s": 0.2, "setup_reference_s": [0.02], "reference_s": [0.02],
             "rss_mb": 50.0, "wall_s": 1.0, "spans": {}, "outputs": outputs}
    return {"passes": [child], "setups": [dict(child)] * 4}


@pytest.mark.parametrize("perturb", [False, True])
def test_perturbed_pin_fails_the_run(perturb, tmp_path, monkeypatch, capsys):
    pinned = EXPECTED["workloads"]["train-step"]
    outputs = json.loads(json.dumps(pinned))
    expected = json.loads(json.dumps(EXPECTED))
    if perturb:
        first = sorted(pinned)[0]
        expected["workloads"]["train-step"][first]["elapsed_s"] *= 1 + 1e-6
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_PATH", path)
    monkeypatch.setattr(run, "measure", lambda *a, **k: _fake_run(outputs))
    code = run.main(["--workload", "train-step"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == (1 if perturb else 0)
    assert result["failed"] == (1 if perturb else 0)
    assert result["correct"] is not perturb
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _one_case(workload: str) -> dict:
    ctx = workloads.SETUP[workload](0)
    if workload == "fleet-chaos":
        ctx.update(kinds=("burst-arrival",), placements=("pack",))
    else:
        ctx["cases"] = ctx["cases"][:1]
    return ctx


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_runs_on_one_case(workload):
    outputs = workloads.run_pass(workload, _one_case(workload)).outputs
    assert len(outputs) == 1
    pinned = EXPECTED["workloads"][workload]
    # Fleet point names carry their index in the full sweep.
    subset = None if workload == "fleet-chaos" else {k: pinned[k] for k in outputs}
    assert run.check_outputs(outputs, subset) == {}


def test_traced_metrics_match_benchmark_json():
    ctx = _one_case("allreduce")
    profiler = cProfile.Profile()
    profiler.enable()
    outputs = workloads.run_pass("allreduce", ctx).outputs
    profiler.disable()
    prof = layers.summarize_profile(pstats.Stats(profiler).stats, SRC)
    assert prof["missing"] == []
    traced = {"wall_s": 2.0, "profile": prof, "outputs": outputs}
    plain = {"wall_s": 1.0, "reference_s": [0.02]}
    metrics, units = run.per_layer({"passes": [plain], "traced": traced})
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    shares = sum(v for k, v in metrics.items() if k.startswith("share.") and
                 not k.startswith("share.verify."))
    assert shares == pytest.approx(100.0, abs=1.0)
    assert metrics["net.reallocations"] > 0 and metrics["sim.events"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/perf/run.py", "--workload", "shuffle"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
