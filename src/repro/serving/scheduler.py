"""Allocating the global detector budget across active sessions.

The service's unit of work is a *tick*: a fixed number of detector frames
(the frames-per-tick budget — in a deployment, what one GPU sustains per
scheduling quantum).  A :class:`SchedulerPolicy` divides that budget among
the active sessions:

* :class:`RoundRobinScheduler` — equal shares with a rotating remainder:
  strict fairness, the baseline;
* :class:`PriorityScheduler` — shares proportional to each session's
  submitted priority: weighted fairness for paying tiers;
* :class:`ThompsonSumScheduler` — shares proportional to one Thompson
  sample of each session's best-chunk expected yield.  This generalizes
  :class:`~repro.core.multiquery.MultiQueryExSample`'s arg-max of summed
  draws from "which chunk should the single shared frame go to" to "how
  should many frames split across sessions": sessions whose beliefs
  promise more new results per frame bid higher, and the posterior noise
  keeps cold sessions explorable exactly as Thompson sampling keeps cold
  chunks explorable (§III-C).

All policies are deterministic given the service RNG and return integer
allocations summing to the budget (when any session is eligible).  A
session granted zero frames may be left out of the allocation: the
round-robin policy returns only the sessions it grants frames, so when
sessions outnumber the budget its cost is O(budget), not O(sessions).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

from .session import QuerySession

__all__ = [
    "SchedulerPolicy",
    "RoundRobinScheduler",
    "PriorityScheduler",
    "ThompsonSumScheduler",
    "SCHEDULERS",
    "proportional_allocation",
]


class SchedulerPolicy(Protocol):
    """Maps (active sessions, budget) to per-session frame allocations."""

    def allocate(
        self,
        sessions: Sequence[QuerySession],
        budget: int,
        rng,
    ) -> dict[str, int]:  # pragma: no cover - protocol
        ...


def _validate(sessions: Sequence[QuerySession], budget: int) -> None:
    if budget <= 0:
        raise ValueError("budget must be positive")
    seen = {s.session_id for s in sessions}
    if len(seen) != len(sessions):
        raise ValueError("duplicate session ids in allocation request")


def proportional_allocation(
    ids: Sequence[str], weights: Sequence[float], budget: int
) -> dict[str, int]:
    """Integer shares of ``budget`` proportional to ``weights``.

    Largest-remainder rounding, with ties broken by list position so the
    result is deterministic.  Non-positive weight vectors fall back to an
    even split — a session set with nothing to say still gets served.
    """
    if not ids:
        return {}
    if len(ids) != len(weights):
        raise ValueError("ids and weights must align")
    w = [max(float(v), 0.0) for v in weights]
    total = math.fsum(w)
    if total <= 0.0 or not math.isfinite(total):
        w = [1.0] * len(ids)
        total = float(len(ids))
    shares = [budget * v / total for v in w]
    base = [math.floor(s) for s in shares]
    remainder = budget - sum(base)
    if remainder > 0:
        # stable sort: equal fractional parts resolve in list order
        order = sorted(range(len(ids)), key=lambda i: -(shares[i] - base[i]))
        for i in order[:remainder]:
            base[i] += 1
    return {sid: int(n) for sid, n in zip(ids, base)}


class RoundRobinScheduler:
    """Equal shares, with the leftover frames rotating across ticks.

    With ``budget = q * len(sessions) + r`` every session gets ``q``
    frames and the ``r`` extras go to the ``r`` sessions after a rotating
    offset, so no session is systematically favored by submission order.
    When sessions outnumber the budget (``q == 0``) only the ``r``
    sessions granted a frame are returned — the zero grants are left out.
    """

    def __init__(self) -> None:
        self._offset = 0

    def allocate(
        self,
        sessions: Sequence[QuerySession],
        budget: int,
        rng,
    ) -> dict[str, int]:
        _validate(sessions, budget)
        if not sessions:
            return {}
        count, offset = len(sessions), self._offset
        share, extra = divmod(budget, count)
        self._offset = (offset + 1) % count
        if not share:
            return {sessions[(offset + k) % count].session_id: 1 for k in range(extra)}
        alloc = {s.session_id: share for s in sessions}
        for k in range(extra):
            alloc[sessions[(offset + k) % count].session_id] += 1
        return alloc


class PriorityScheduler:
    """Shares proportional to each session's submitted priority.

    Fractional shares are **carried across ticks**: each tick a session
    accrues ``budget * w_i / W`` credit and is granted (close to) the
    integer part, with largest-remainder rounding keeping the per-tick
    grants summing to the budget exactly.  The carry is what rules out
    starvation — under plain per-tick rounding a session whose share
    rounds to zero (priority 1 next to priority 1000) would receive
    nothing *forever*, while with the carry its credit grows every tick
    and must eventually convert into a grant.  Cumulative grants stay
    within one frame of the exact proportional share on each side.

    Credit is keyed by session id and dropped once an id leaves the
    active set, so completed sessions do not leak state.
    """

    def __init__(self) -> None:
        self._credit: dict[str, float] = {}

    def allocate(
        self,
        sessions: Sequence[QuerySession],
        budget: int,
        rng,
    ) -> dict[str, int]:
        _validate(sessions, budget)
        if not sessions:
            return {}
        ids = [s.session_id for s in sessions]
        w = [max(float(s.priority), 0.0) for s in sessions]
        total = math.fsum(w)
        if total <= 0.0 or not math.isfinite(total):
            w = [1.0] * len(ids)
            total = float(len(ids))
        credit = [
            self._credit.get(sid, 0.0) + budget * v / total
            for sid, v in zip(ids, w)
        ]
        # a session that just consumed a rounded-up grant carries negative
        # credit; it simply earns nothing until the debt amortizes — a
        # grant itself can never be negative
        base = [max(math.floor(c), 0) for c in credit]
        # floors can overshoot the budget when prior ticks went granted
        # slightly under par; claw back from the *smallest* fractional
        # parts first (stable, so ties resolve in submission order)
        overshoot = sum(base) - budget
        if overshoot > 0:
            order = sorted(range(len(ids)), key=lambda i: credit[i] - base[i])
            for idx in order:
                take = min(base[idx], overshoot)
                base[idx] -= take
                overshoot -= take
                if overshoot == 0:
                    break
        # distribute what's left by largest remaining credit, looping
        # because the leftover can exceed the session count: credits sum
        # to the budget only while the active set is stable — a session
        # leaving mid-run takes its carried credit with it, so the
        # survivors' floors can undershoot by more than one frame each
        remainder = budget - sum(base)
        while remainder > 0:
            order = sorted(range(len(ids)), key=lambda i: -(credit[i] - base[i]))
            take = min(remainder, len(ids))
            for i in order[:take]:
                base[i] += 1
            remainder -= take
        self._credit = {
            sid: c - g for sid, c, g in zip(ids, credit, base)
        }
        return {sid: int(g) for sid, g in zip(ids, base)}


class ThompsonSumScheduler:
    """Yield-weighted shares: each session bids one Thompson draw of its
    best chunk's expected new-results-per-frame, and the budget splits in
    proportion — frames flow to the sessions most likely to convert them
    into results, re-balancing every tick as posteriors sharpen.
    """

    def allocate(
        self,
        sessions: Sequence[QuerySession],
        budget: int,
        rng,
    ) -> dict[str, int]:
        _validate(sessions, budget)
        if not sessions:
            return {}
        # one kernel call for every session's bid (QuerySession.thompson_draws)
        bids = QuerySession.thompson_draws(sessions, rng)
        return proportional_allocation(
            [s.session_id for s in sessions], bids, budget
        )


#: Policy by the name the command line and ``state.boot`` know it under.
SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "priority": PriorityScheduler,
    "thompson": ThompsonSumScheduler,
}
