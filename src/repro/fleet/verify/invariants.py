"""The eight fleet control-plane invariants the checker proves.

Each invariant is a pure predicate over one
:class:`~repro.fleet.control.ControlState` — the checker's explored
states and the runtime scheduler's live one alike (the replay audit,
:mod:`repro.fleet.verify.replay`, checks the latter).  Two kinds of
checks feed the verdict:

* **operation-time** violations the control core records while applying
  a transition (an allocation on a dead node, releasing an unheld slot,
  closing an unknown grant) — these live in ``state.violations``;
* **state-level** checks below, evaluated on the resulting state.

The invariant names (stable identifiers, used by the mutation suite and
the CLI output):

``slot-conservation``
    Every held slot in the ledger is owned by exactly one live
    placement entry or pending grant — ``SharedCluster.
    leaked_placements()`` stays empty at every state, not just at the
    end of a run.
``no-double-grant``
    No node is ever allocated past its slot capacity.
``no-dead-grants``
    A pending grow grant never names a dead node (the kill path revokes
    them), and is never *opened* on a dead, draining or full node.
``gang-atomicity``
    A running job holds ≥1 slot, on distinct nodes, disjoint from its
    pending grants; a job without a live program holds nothing; live
    learners plus grants never exceed the target gang plus in-flight
    migration replacements.
``grant-closure``
    Every grow grant ever opened is closed exactly once — by a join at
    an iteration boundary or by a revocation — or is still pending.
``drain-clears-sdc``
    A draining node's SDC strike ledger is empty (drain clears it; a
    drained node takes no new strikes).
``lineage-valid``
    Every running job's ``(shrink_log, grow_log)`` is a replayable
    script per :func:`repro.fleet.jobs.validate_scripted_lineage`, and
    replaying it from the target gang lands exactly on the live count.
``bounded-requeue``
    No job requeues past the budget without being declared failed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fleet.control import ControlState, Job, Violation
from repro.fleet.jobs import validate_scripted_lineage

if TYPE_CHECKING:  # circular at runtime: the explorer imports this module
    from repro.fleet.verify.explore import Bounds

__all__ = ["INVARIANTS", "check_invariants"]

#: Stable names of every invariant the checker proves, in report order.
INVARIANTS = (
    "slot-conservation",
    "no-double-grant",
    "no-dead-grants",
    "gang-atomicity",
    "grant-closure",
    "drain-clears-sdc",
    "lineage-valid",
    "bounded-requeue",
)


def check_invariants(state: ControlState, bounds: Bounds) -> list[Violation]:
    """Every invariant breach visible in ``state`` (op-time + state-level)."""
    found = list(state.violations)
    _check_ledger(state, found)
    _check_jobs(state, bounds, found)
    _check_closure(state, found)
    _check_drained_sdc(state, found)
    return found


def _check_jobs(
    state: ControlState, bounds: Bounds, found: list[Violation]
) -> None:
    """One pass over the jobs: grants, gangs, lineage, requeue budget
    (separate loops would each re-traverse 400k+ states)."""
    for job in state.jobs.values():
        _check_job_grants(state, job, found)
        _check_job_gang(job, found)
        _check_job_lineage(job, bounds, found)
        if job.requeues > bounds.max_requeues and job.status != "failed":
            found.append(Violation(
                "bounded-requeue",
                f"{job.name!r} requeued {job.requeues} times "
                f"(budget {bounds.max_requeues}) without failing",
            ))


def _check_ledger(state: ControlState, found: list[Violation]) -> None:
    """slot-conservation + no-double-grant: the ledger matches the owners."""
    owned: dict[int, dict[str, int]] = {}
    for job in state.jobs.values():
        for node_index in job.placement:
            per_node = owned.setdefault(node_index, {})
            per_node[job.name] = per_node.get(job.name, 0) + 1
        for node_index in job.pending_grows:
            per_node = owned.setdefault(node_index, {})
            per_node[job.name] = per_node.get(job.name, 0) + 1
    for node in state.nodes:
        if node.used > node.slots:
            found.append(Violation(
                "no-double-grant",
                f"node {node.index} holds {node.used} slots of "
                f"{node.slots}",
            ))
        owners = owned.get(node.index, {})
        if node.held != owners:
            found.append(Violation(
                "slot-conservation",
                f"node {node.index}: ledger holds {dict(sorted(node.held.items()))} "
                f"but jobs own {dict(sorted(owners.items()))} there "
                "(leak or theft)",
            ))


def _check_job_grants(
    state: ControlState, job: Job, found: list[Violation]
) -> None:
    """no-dead-grants: pending grants only ever name live nodes."""
    for node_index in job.pending_grows:
        if not state.nodes[node_index].alive:
            found.append(Violation(
                "no-dead-grants",
                f"{job.name!r} holds a grant on dead node "
                f"{node_index} (kill must revoke)",
            ))


def _check_job_gang(job: Job, found: list[Violation]) -> None:
    holds = job.n_live + len(job.pending_grows)
    if job.status in ("running", "checkpointing"):
        if job.n_live < 1:
            found.append(Violation(
                "gang-atomicity",
                f"{job.name!r} is running with no live learners",
            ))
        if len(set(job.placement)) != job.n_live:
            found.append(Violation(
                "gang-atomicity",
                f"{job.name!r} placed twice on one node: "
                f"{job.placement}",
            ))
        if set(job.placement) & set(job.pending_grows):
            found.append(Violation(
                "gang-atomicity",
                f"{job.name!r} granted a node it already occupies: "
                f"{sorted(set(job.placement) & set(job.pending_grows))}",
            ))
        # Migration replacements may transiently overshoot the target
        # (the drained slot leaves only at the next boundary).
        limit = job.target + len(job.pending_migrations)
        if holds > limit:
            found.append(Violation(
                "gang-atomicity",
                f"{job.name!r} holds {holds} slots "
                f"(target {job.target}, "
                f"{len(job.pending_migrations)} migrating)",
            ))
    elif holds > 0:
        found.append(Violation(
            "gang-atomicity",
            f"{job.name!r} is {job.status} but still holds "
            f"{holds} slot(s)",
        ))


def _check_closure(state: ControlState, found: list[Violation]) -> None:
    pending = sum(len(job.pending_grows) for job in state.jobs.values())
    if state.grants_opened != state.grants_closed + pending:
        found.append(Violation(
            "grant-closure",
            f"{state.grants_opened} grants opened, "
            f"{state.grants_closed} closed, {pending} pending "
            "(each grant must close exactly once)",
        ))


def _check_drained_sdc(state: ControlState, found: list[Violation]) -> None:
    for node in state.nodes:
        if node.draining and node.sdc > 0:
            found.append(Violation(
                "drain-clears-sdc",
                f"draining node {node.index} still carries "
                f"{node.sdc} SDC strike(s)",
            ))


def _check_job_lineage(
    job: Job, bounds: Bounds, found: list[Violation]
) -> None:
    """lineage-valid: the logs script a replayable fault-free reference."""
    if job.status not in ("running", "checkpointing"):
        return
    if not job.shrink_log and not job.grow_log:
        if job.n_live != job.target:
            found.append(Violation(
                "lineage-valid",
                f"{job.name!r}: empty lineage but {job.n_live} "
                f"learners live of target {job.target}",
            ))
        return
    try:
        validate_scripted_lineage(
            job.target,
            bounds.max_steps + 1,
            job.shrink_log,
            job.grow_log,
        )
    except ValueError as exc:
        found.append(Violation(
            "lineage-valid", f"{job.name!r}: {exc}"
        ))
        return
    replayed = (
        job.target - len(job.shrink_log) + len(job.grow_log)
    )
    if replayed != job.n_live:
        found.append(Violation(
            "lineage-valid",
            f"{job.name!r}: replaying the lineage yields "
            f"{replayed} learners but {job.n_live} are live",
        ))
