"""The chaos harness core (repro.chaos): subsampler, kinds, report, loop."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.chaos import ChaosOutcome, ChaosReport, select_kinds, subsample, sweep


@dataclass(frozen=True)
class Point:
    n: int

    @property
    def group(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"

    def label(self) -> str:
        return f"point {self.n}"


def test_subsample_is_evenly_spaced_and_keeps_both_ends():
    for n in range(1, 40):
        seq = list(range(n))
        for limit in range(1, 45):
            got = subsample(seq, limit)
            want = sorted(set(np.linspace(0, n - 1, limit).round().astype(int)))
            assert got == (seq if n <= limit else want)
            assert got[0] == 0 and (limit == 1 or got[-1] == n - 1)
    assert subsample((3, 4), None) == [3, 4]


@pytest.mark.parametrize("limit", [0, -1])
def test_subsample_rejects_a_cap_below_one(limit):
    with pytest.raises(ValueError, match="must be >= 1"):
        subsample([1, 2, 3], limit)


def test_select_kinds():
    assert select_kinds("toy", None, ("a", "b")) == ("a", "b")
    assert select_kinds("toy", ["b"], ("a", "b")) == ("b",)
    with pytest.raises(ValueError, match=r"unknown chaos kind.*'c'.*toy plane"):
        select_kinds("toy", ["c"], ("a", "b"))


def test_empty_report_is_never_ok():
    report = ChaosReport("toy")
    assert not report.all_ok
    assert "toy chaos: 0 points" in report.format()
    assert "FAIL" in report.format()


def test_sweep_groups_outcomes_and_reports_every_violation():
    built = []

    def run(point, refs):
        ref = refs.get("ref", lambda: built.append(1) or 2.0)
        violations = ["odd point"] if point.n == 3 else []
        return ChaosOutcome(point, violations, makespan=point.n, ref_makespan=ref)

    report = sweep("toy", lambda refs: [Point(n) for n in range(5)], run)
    assert built == [1]  # the reference is built once per sweep
    assert [len(v) for v in report.groups().values()] == [3, 2]
    assert [o.point.n for o in report.failures] == [3]
    assert not report.all_ok
    text = report.format()
    assert "toy chaos: 5 points, 4 ok, 1 failed" in text
    assert "FAIL point 3: odd point" in text

    clean = sweep(
        "toy", lambda refs: [Point(0)], lambda p, refs: ChaosOutcome(p),
        invariants=lambda refs: ["sweep-level breach"],
    )
    assert clean.outcomes[0].ok and not clean.all_ok
    assert "FAIL sweep: sweep-level breach" in clean.format()
