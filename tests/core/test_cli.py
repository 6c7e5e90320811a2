"""CLI tests: in-process (fast paths) and one subprocess smoke test."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_allreduce_command(capsys):
    code, out = run_cli(
        capsys, "allreduce", "--ranks", "8", "--mbytes", "4",
        "--algorithm", "multicolor",
    )
    assert code == 0
    assert "multicolor allreduce" in out
    assert "8 nodes" in out


def test_allreduce_unknown_algorithm(capsys):
    code = main(["allreduce", "--algorithm", "warp"])
    assert code == 2


def test_epoch_command(capsys):
    code, out = run_cli(capsys, "epoch", "--model", "googlenet_bn", "--nodes", "8")
    assert code == 0
    assert "epoch time" in out
    assert "gpu_compute" in out


def test_epoch_baseline_flag(capsys):
    _code, opt_out = run_cli(capsys, "epoch", "--nodes", "8")
    _code, base_out = run_cli(capsys, "epoch", "--nodes", "8", "--baseline")

    def epoch_seconds(text):
        line = [l for l in text.splitlines() if "epoch time" in l][0]
        return line

    assert epoch_seconds(base_out) != epoch_seconds(opt_out)


def test_step_command(capsys):
    code, out = run_cli(
        capsys, "step", "--model", "googlenet_bn", "--ranks", "4",
        "--algorithm", "multicolor", "--buckets", "4",
    )
    assert code == 0
    assert "step[multicolor x4 data]" in out
    assert "PROVED: all passes clean" in out
    assert "critical-path lower bound" in out
    assert "VIOLATED" not in out


def test_step_command_prints_schedule(capsys):
    code, out = run_cli(
        capsys, "step", "--model", "googlenet_bn", "--ranks", "2",
        "--buckets", "2", "--fp16", "--print", "--max-steps", "3",
    )
    assert code == 0
    assert "compute" in out and "bwd bucket" in out
    assert "more steps" in out  # truncation marker from --max-steps


def test_step_command_unknown_model(capsys):
    code = main(["step", "--model", "resnet9000"])
    assert code == 2
    assert "unknown model" in capsys.readouterr().err


def test_step_command_unknown_algorithm(capsys):
    code = main(["step", "--algorithm", "warp"])
    assert code == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_shuffle_command(capsys):
    code, out = run_cli(
        capsys, "shuffle", "--dataset", "imagenet-1k", "--learners", "16"
    )
    assert code == 0
    assert "16 learners" in out
    assert "AlltoAllv passes" in out


def test_memory_command(capsys):
    code, out = run_cli(capsys, "memory", "--dataset", "imagenet-22k",
                        "--learners", "32")
    assert code == 0
    assert "fits" in out
    assert "max replication" in out


def test_trees_command(capsys):
    code, out = run_cli(capsys, "trees", "--ranks", "8", "--colors", "4")
    assert code == 0
    assert "color 0: root 0" in out
    assert "color 1: root 2" in out


def test_faults_command(capsys):
    code, out = run_cli(
        capsys, "faults", "--steps", "6", "--crash-at", "3", "--drop-at", "-1"
    )
    assert code == 0
    assert "crash[rank 1]" in out
    assert "survivors 3/4" in out
    assert "records conserved 96/96" in out


def test_faults_command_rejects_bad_crash_rank(capsys):
    code = main(["faults", "--learners", "4", "--crash-rank", "9"])
    assert code == 2


def test_faults_command_exits_1_when_recovery_fails(capsys, monkeypatch):
    from repro.train.distributed import DistributedSGDTrainer

    def broken(self):
        raise AssertionError("replicas diverged")

    monkeypatch.setattr(DistributedSGDTrainer, "check_synchronized", broken)
    code = main(["faults", "--steps", "2", "--crash-rank", "-1",
                 "--drop-at", "-1"])
    assert code == 1
    assert "recovery failed" in capsys.readouterr().err


def test_faults_list_prints_registry(capsys):
    from repro.train import FAULT_KINDS

    code, out = run_cli(capsys, "faults", "--list")
    assert code == 0
    for name, kind in FAULT_KINDS.items():
        assert name in out
        assert kind.doc in out


def test_faults_unknown_kind_exits_2(capsys):
    code = main(["faults", "--kind", "bogus"])
    assert code == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_faults_kind_sdc_demo(capsys):
    code, out = run_cli(capsys, "faults", "--kind", "sdc")
    assert code == 0
    assert "sdc" in out
    assert "survivors 3/4" in out


def test_sdc_step_chaos_exit_codes(capsys, monkeypatch):
    code, out = run_cli(
        capsys, "chaos", "--collective", "sdc-step", "--max-points", "1"
    )
    assert code == 0
    assert "sdc chaos: 1 points, 1 ok" in out

    import repro.train.sdc_chaos as sdc_chaos

    class FakeReport:
        all_ok = False

        def format(self):
            return "sdc chaos: 1 points, 0 ok, 1 failed"

    monkeypatch.setattr(
        sdc_chaos, "sdc_chaos_sweep", lambda **kw: FakeReport()
    )
    assert main(["chaos", "--collective", "sdc-step"]) == 1


def test_fleet_command(capsys):
    code, out = run_cli(
        capsys, "fleet", "--jobs", "3", "--steps", "3", "--events"
    )
    assert code == 0
    assert "placement=pack" in out
    assert "job2" in out
    assert "finish" in out


def test_fleet_command_with_node_kill(capsys):
    code, out = run_cli(
        capsys, "fleet", "--jobs", "2", "--kill-node", "0", "--events"
    )
    assert code == 0
    assert "node-kill" in out


def test_fleet_command_kill_revive_grow(capsys):
    code, out = run_cli(
        capsys, "fleet", "--jobs", "3", "--kill-node", "0",
        "--revive-after", "0.0005", "--grow", "--events",
    )
    assert code == 0
    assert "node-kill" in out
    assert "revive" in out
    assert "grow-grant" in out
    assert "grew onto node" in out
    assert "grows=1" in out  # per-job summary reports the grow


def test_fleet_command_rejects_bad_args(capsys):
    assert main(["fleet", "--jobs", "0"]) == 2
    assert main(["fleet", "--kill-node", "99"]) == 2
    assert main(["fleet", "--racks", "0"]) == 2
    assert main(["fleet", "--revive-after", "0.1"]) == 2  # needs --kill-node
    assert main(["fleet", "--kill-node", "0", "--revive-after", "-1"]) == 2


def test_fleet_chaos_exit_codes(capsys, monkeypatch):
    import repro.fleet.chaos

    class FakeReport:
        all_ok = False

        def format(self):
            return "fleet chaos: 1 points, 0 ok, 1 failed"

    calls = []

    def fake_sweep(**kwargs):
        calls.append(kwargs)
        return FakeReport()

    monkeypatch.setattr(repro.fleet.chaos, "fleet_chaos_sweep", fake_sweep)
    assert main(["chaos", "--collective", "fleet"]) == 1
    assert main(["chaos", "--collective", "fleet", "--full"]) == 1
    assert [c["smoke"] for c in calls] == [True, False]
    # The sweep has one entry point: `repro fleet` runs one workload.
    with pytest.raises(SystemExit):
        main(["fleet", "--chaos"])


@pytest.mark.parametrize("argv, code", [
    (["--ranks", "4", "--algorithms", "ring", "--kinds", ","], 1),
    (["--collective", "shuffle", "--ranks", "2", "--max-points", "0"], 2),
    (["--collective", "sdc-step", "--max-points", "-1"], 2),
    (["--collective", "sdc-step", "--max-points", "0"], 2),
    (["--collective", "fleet", "--kinds", ","], 1),
], ids=["allreduce-no-kinds", "shuffle-max-0", "sdc-max-negative",
        "sdc-max-0", "fleet-no-kinds"])
def test_chaos_empty_sweep_never_passes(capsys, argv, code):
    """A sweep that runs no point proves nothing: it fails (1), and a
    point cap below 1 is a usage error (2)."""
    assert main(["chaos", *argv]) == code
    if code == 1:
        assert "0 points" in capsys.readouterr().out


def test_fleet_chaos_rejects_unknown_kind(capsys):
    code = main(["chaos", "--collective", "fleet", "--kinds", "bogus"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--collective", "shuffle", "--kinds", "bogus"],
    ["--algorithms", "bogus"],
    ["--collective", "fleet", "--max-points", "3"],
    ["--collective", "sdc-step", "--kinds", "sdc"],
], ids=["shuffle-kind", "algorithm", "fleet-max-points", "sdc-kinds"])
def test_chaos_rejects_bad_options_before_any_point(capsys, argv):
    assert main(["chaos", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err


def test_chaos_error_inside_a_point_is_not_a_usage_error(monkeypatch):
    import repro.train.sdc_chaos as sdc_chaos

    def broken(point, refs):
        raise ValueError("defect inside a point run")

    monkeypatch.setattr(sdc_chaos, "run_sdc_point", broken)
    with pytest.raises(ValueError, match="defect inside"):
        main(["chaos", "--collective", "sdc-step", "--max-points", "1"])


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "trees", "--ranks", "8", "--colors", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "color 3" in result.stdout
