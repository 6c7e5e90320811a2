"""Resource-bounds analysis: critical path and peak in-flight bytes.

Two complementary numbers per schedule:

* **critical path** — a *lower bound* on any execution's elapsed time,
  so the Fig. 5 golden cross-check can assert ``critical path <=
  simulated elapsed`` (a violation means the schedule or the model is
  wrong).  Soundness dictates the weights: posting a send is free (the
  runtime's ``isend`` detaches a channel process and returns
  immediately); a receive-reduce or local reduce occupies its rank's
  CPU for at least ``nbytes * gamma``; a message cannot arrive earlier
  than its send plus ``nbytes * beta`` of wire time; and transfers on
  one ``(src, dst)`` channel serialize FIFO, so the *i*-th payload also
  waits for the *(i-1)*-th to finish its wire time.  Costs the
  simulator *may* overlap (wire vs reduce pipelining, per-message
  software overhead, copy-engine time) are deliberately excluded —
  every term counted is one the simulator provably pays in sequence.
  Compute steps price whole training steps: a ``ComputeStep``/
  ``OptimStep`` occupies its rank's GPU for its declared ``seconds``
  (the gamma-plus-GPU terms), and because the GPU is exclusive per
  rank, the per-rank *sum* of compute seconds is itself a lower bound
  the DAG path may not reach — the final critical path is the max of
  the two, rounded down by the error floating-point addition can put
  between it and the simulator's clock (:data:`ROUNDING`).
* **peak in-flight bytes** — walking the canonical linearization, every
  send deposits its payload on its ``(src, dst)`` link and its source
  rank's outstanding-bytes account; the matching receive drains it.  The
  maxima bound the buffering the runtime needs per rank and per link,
  and a nonzero final balance (impossible after the matching lint, but
  checked anyway) would mean a payload nobody ever drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mpi.analytic import AlphaBetaModel
from repro.mpi.schedule import (
    ComputeStep,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    SendStep,
    Step,
)
from repro.mpi.verify.hb import HBGraph
from repro.mpi.verify.report import Issue, cap_issues

__all__ = ["ResourceBounds", "analyze_bounds", "check_bounds"]

#: Relative error of one rounded addition (half an ulp, 2**-53).
ROUNDING = 2.0**-53


@dataclass
class ResourceBounds:
    """Critical path and in-flight byte accounting for one schedule."""

    critical_path_s: float
    #: sids of the steps on (one) critical path, source to sink.
    critical_path_sids: tuple[int, ...]
    #: (src, dst) -> maximum bytes simultaneously in flight on the link.
    peak_link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    #: rank -> maximum bytes of its sends outstanding at once.
    peak_rank_bytes: dict[int, int] = field(default_factory=dict)
    #: total bytes crossing the wire (sum over all send payloads).
    total_wire_bytes: int = 0
    #: bytes still undrained at the end (0 for any lint-clean schedule).
    leaked_bytes: int = 0


def _nbytes(step: Step, itemsize: int) -> int:
    buf = getattr(step, "buf", None)
    if buf is None:
        return 0
    return (step.hi - step.lo) * itemsize


def analyze_bounds(
    schedule: Schedule,
    hb: HBGraph | None = None,
    *,
    model: AlphaBetaModel | None = None,
) -> ResourceBounds:
    """Compute the critical path and in-flight peaks of a schedule.

    One walk of the schedule's canonical order computes both.  Without an
    ``hb`` graph the receive-to-send map comes from the schedule's cached
    message pairing, so no graph is built.
    """
    model = model if model is not None else AlphaBetaModel()
    itemsize = schedule.itemsize if schedule.itemsize else 1
    steps = schedule.steps
    if hb is not None:
        recv_to_send = hb.recv_to_send
    else:
        recv_to_send = {r: s for s, r in schedule._message_pairs}

    n = len(steps)
    weight = [0.0] * n
    gpu_seconds: dict[int, float] = {}
    for s in steps:
        if isinstance(s, (RecvReduceStep, ReduceLocalStep)):
            weight[s.sid] = _nbytes(s, itemsize) * model.gamma
        elif isinstance(s, (ComputeStep, OptimStep)):
            weight[s.sid] = s.seconds
            gpu_seconds[s.rank] = gpu_seconds.get(s.rank, 0.0) + s.seconds
    finish = [0.0] * n
    via = [-1] * n
    #: per channel: wire-completion time of the last transfer so far.
    channel_done: dict[tuple[int, int, object], float] = {}
    bounds = ResourceBounds(critical_path_s=0.0, critical_path_sids=())
    peak_link, peak_rank = bounds.peak_link_bytes, bounds.peak_rank_bytes
    link_now: dict[tuple[int, int], int] = {}
    rank_now: dict[int, int] = {}
    beta = model.beta
    for sid in schedule._canonical_order:
        step = steps[sid]
        best, best_pred = 0.0, -1
        for p in step.deps:
            if finish[p] > best:
                best, best_pred = finish[p], p
        snd_sid = recv_to_send.get(sid)
        if snd_sid is not None:
            # The arrival of the matched payload, and its drain from the
            # in-flight accounts.
            snd = steps[snd_sid]
            nbytes = _nbytes(snd, itemsize)
            channel = (snd.rank, snd.dst, snd.key)
            arrival = max(finish[snd_sid], channel_done.get(channel, 0.0))
            arrival += nbytes * beta
            channel_done[channel] = arrival
            if arrival > best:
                best, best_pred = arrival, snd_sid
            link_now[(snd.rank, snd.dst)] -= nbytes
            rank_now[snd.rank] -= nbytes
        elif isinstance(step, SendStep):
            nbytes = _nbytes(step, itemsize)
            link, rank = (step.rank, step.dst), step.rank
            link_now[link] = link_now.get(link, 0) + nbytes
            rank_now[rank] = rank_now.get(rank, 0) + nbytes
            peak_link[link] = max(peak_link.get(link, 0), link_now[link])
            peak_rank[rank] = max(peak_rank.get(rank, 0), rank_now[rank])
            bounds.total_wire_bytes += nbytes
        finish[sid] = best + weight[sid]
        via[sid] = best_pred
    if n:
        tail = max(range(n), key=finish.__getitem__)
        path = [tail]
        while via[path[-1]] >= 0:
            path.append(via[path[-1]])
        path.reverse()
        bounds.critical_path_s = finish[tail]
        bounds.critical_path_sids = tuple(path)
    # The GPU is exclusive per rank: one rank's compute seconds serialize
    # even when the dependency DAG would allow them to overlap, so the
    # largest per-rank compute sum is a second sound lower bound.
    if gpu_seconds:
        bounds.critical_path_s = max(bounds.critical_path_s, max(gpu_seconds.values()))
    # Either sum adds at most two terms per step (a weight and an arrival),
    # and the simulator's clock adds the same durations in another order:
    # each sum is within 2n roundings of the exact one, so the bound drops
    # by 4n of them (plus one for this product) to stay below the clock.
    bounds.critical_path_s *= 1.0 - (4 * n + 1) * ROUNDING
    bounds.leaked_bytes = sum(link_now.values())
    return bounds


def check_bounds(
    bounds: ResourceBounds,
    *,
    max_in_flight_bytes: int | None = None,
    golden_elapsed_s: float | None = None,
    schedule_name: str = "",
) -> list[Issue]:
    """Turn bound violations into issues (empty list when all hold)."""
    issues: list[Issue] = []
    if bounds.leaked_bytes:
        issues.append(Issue(
            pass_name="bounds", kind="in-flight-leak",
            message=f"{bounds.leaked_bytes} B sent but never received",
        ))
    if max_in_flight_bytes is not None:
        for rank, peak in sorted(bounds.peak_rank_bytes.items()):
            if peak > max_in_flight_bytes:
                issues.append(Issue(
                    pass_name="bounds", kind="in-flight-exceeds-cap",
                    rank=rank,
                    message=(
                        f"rank {rank} holds {peak} B in flight "
                        f"(cap {max_in_flight_bytes} B)"
                    ),
                ))
    if golden_elapsed_s is not None and bounds.critical_path_s > golden_elapsed_s:
        issues.append(Issue(
            pass_name="bounds", kind="critical-path-exceeds-golden",
            message=(
                f"{schedule_name or 'schedule'}: analytic critical path "
                f"{bounds.critical_path_s:.6e} s exceeds the simulated "
                f"golden {golden_elapsed_s:.6e} s — the lower bound is "
                f"violated, so the schedule or the model is wrong"
            ),
        ))
    return cap_issues(issues, "bounds")
