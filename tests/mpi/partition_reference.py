"""The strand partition the executor used before its one-loop rewrite: the
differential reference for :func:`repro.mpi.schedule._partition_strands`.

It classifies every step with a helper, gathers the same-class tail
dependencies with a list comprehension and keeps the largest; the rewrite
must give the same ``(step, cross)`` strands for every schedule.
"""

from __future__ import annotations

from repro.mpi.schedule import ComputeStep, OptimStep, Step


def _resource_class(step: Step) -> str:
    """The exclusive resource a step occupies: the GPU or the network/CPU."""
    return "gpu" if isinstance(step, (ComputeStep, OptimStep)) else "net"


def reference_partition_strands(steps):
    """One rank's steps (sid order) as maximal linear chains: a list of
    strands, each a list of ``(step, cross_dep_sids)`` pairs."""
    strands: list[list[tuple[Step, list[int]]]] = []
    tails: dict[int, int] = {}  # sid of a strand's last step -> strand index
    res: dict[int, str] = {}    # sid -> resource class (same-rank deps only)
    for step in steps:
        mine = _resource_class(step)
        res[step.sid] = mine
        fusable = [d for d in step.deps if d in tails and res.get(d) == mine]
        if fusable:
            link = max(fusable)
            idx = tails.pop(link)
            cross = [d for d in step.deps if d != link]
        else:
            idx = len(strands)
            strands.append([])
            cross = list(step.deps)
        strands[idx].append((step, cross))
        tails[step.sid] = idx
    return strands
