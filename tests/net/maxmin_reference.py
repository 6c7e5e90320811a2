"""Reference max-min fair allocation: full progressive filling over every flow.

It solves every given flow on every call and scans every used link each
round: slow, but a direct transcription of the textbook procedure.  The
component-local solve in :class:`repro.net.Fabric` must reproduce its rates
bit for bit.

Two checks live here:

* :func:`maxmin_rates` — the reference rates for a set of flows;
* :func:`maxmin_certificate_violations` — a solver-independent proof that a
  set of rates is max-min fair (feasible, and every flow is either at the
  per-flow cap or crosses a saturated link on which no flow is faster).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Relative slack for the certificate (float rounding in the residuals).
CERT_RTOL = 1e-9


def maxmin_rates(
    paths: Sequence[Sequence[int]],
    bandwidth: Sequence[float],
    cap: float = math.inf,
) -> list[float]:
    """Max-min fair rates of flows with ``paths``, listed in activation order.

    ``bandwidth[li]`` is link ``li``'s effective capacity and ``cap`` the
    per-flow rate limit.  Every path must be non-empty.
    """
    n = len(paths)
    rates = [0.0] * n
    if not n:
        return rates
    residual: dict[int, float] = {}
    link_flows: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        for li in path:
            if li not in residual:
                residual[li] = bandwidth[li]
                link_flows[li] = []
            link_flows[li].append(i)
    unfixed_count = {li: len(fl) for li, fl in link_flows.items()}
    fixed: set[int] = set()

    def fix(i: int, rate: float) -> None:
        rates[i] = rate
        fixed.add(i)
        for li in paths[i]:
            residual[li] = max(0.0, residual[li] - rate)
            unfixed_count[li] -= 1

    while len(fixed) < n:
        best_link = -1
        best_share = math.inf
        for li, cnt in unfixed_count.items():
            if cnt <= 0:
                continue
            share = residual[li] / cnt
            if share < best_share:
                best_share = share
                best_link = li
        if best_link < 0:
            raise RuntimeError("flow with no links")
        if best_share >= cap:
            # Every remaining flow is rail-limited, not link-limited.
            for i in range(n):
                if i not in fixed:
                    fix(i, cap)
            break
        for i in link_flows[best_link]:
            if i not in fixed:
                fix(i, best_share)
    return rates


def maxmin_certificate_violations(
    paths: Sequence[Sequence[int]],
    rates: Sequence[float],
    bandwidth: Sequence[float],
    cap: float = math.inf,
) -> list[str]:
    """Why ``rates`` is not a max-min fair allocation (empty if it is).

    Feasible: no rate is negative or above ``cap``, and no link carries more
    than its capacity.  Fair: every flow is at ``cap`` or crosses a
    saturated link on which no flow gets a higher rate.  Both hold up to
    :data:`CERT_RTOL` relative slack.
    """
    load: dict[int, float] = {}
    fastest: dict[int, float] = {}
    for path, rate in zip(paths, rates):
        for li in path:
            load[li] = load.get(li, 0.0) + rate
            fastest[li] = max(fastest.get(li, 0.0), rate)
    problems = [
        f"link {li} carries {total!r} > capacity {bandwidth[li]!r}"
        for li, total in load.items()
        if total > bandwidth[li] * (1 + CERT_RTOL)
    ]
    for i, (path, rate) in enumerate(zip(paths, rates)):
        if not 0.0 <= rate <= cap * (1 + CERT_RTOL):
            problems.append(f"flow {i} rate {rate!r} outside [0, cap={cap!r}]")
            continue
        if rate >= cap * (1 - CERT_RTOL):
            continue
        if not any(
            load[li] >= bandwidth[li] * (1 - CERT_RTOL)
            and rate >= fastest[li] * (1 - CERT_RTOL)
            for li in path
        ):
            problems.append(
                f"flow {i} at {rate!r} has no saturated link on which it is fastest"
            )
    return problems
