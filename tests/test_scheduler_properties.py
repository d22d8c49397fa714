"""Property tests for scheduler fairness over random session mixes.

Two properties carry the scheduling contract:

* **conservation** — every tick's grants sum to exactly the configured
  budget (frames are GPU time; creating or leaking them corrupts the
  cost accounting the paper's claims are measured in);
* **no starvation** — a schedulable session always receives budget at a
  rate bounded below by its fair share: round-robin is *exactly* fair
  over any window of ``n`` ticks, and the priority scheduler's carried
  fractional credit keeps every session within one frame of its
  proportional share, however extreme the weight mix.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    ThompsonSumScheduler,
    proportional_allocation,
)


class StubSession:
    """Schedulers only read id, priority, and Thompson draws."""

    def __init__(self, session_id, priority=1.0, draw=1.0):
        self.session_id = session_id
        self.priority = priority
        self._draw = draw

    def thompson_draw(self, rng):
        return self._draw


RNG = np.random.default_rng(0)

session_counts = st.integers(min_value=1, max_value=8)
budgets = st.integers(min_value=1, max_value=64)
priorities = st.lists(
    st.floats(min_value=0.01, max_value=500.0, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=8,
)


# ------------------------------------------------------------ round robin

@settings(deadline=None)
@given(n=session_counts, budget=budgets)
def test_round_robin_sums_to_budget_every_tick(n, budget):
    sessions = [StubSession(f"s{i + 1}") for i in range(n)]
    scheduler = RoundRobinScheduler()
    for _ in range(3 * n):
        alloc = scheduler.allocate(sessions, budget, RNG)
        assert sum(alloc.values()) == budget
        assert all(v >= 0 for v in alloc.values())


@settings(deadline=None)
@given(n=session_counts, budget=budgets)
def test_round_robin_is_exactly_fair_over_a_rotation(n, budget):
    """Over any window of n consecutive ticks, every session receives
    exactly the budget: the remainder rotates once around the table."""
    sessions = [StubSession(f"s{i + 1}") for i in range(n)]
    scheduler = RoundRobinScheduler()
    totals = {s.session_id: 0 for s in sessions}
    for _ in range(n):
        for sid, share in scheduler.allocate(sessions, budget, RNG).items():
            totals[sid] += share
    assert all(total == budget for total in totals.values())


def dense_round_robin(ids, budget, offset):
    """The dense reference: every session keyed, zero grants included,
    and the offset the next call starts from."""
    count = len(ids)
    share, extra = divmod(budget, count)
    alloc = {sid: share for sid in ids}
    for k in range(extra):
        alloc[ids[(offset + k) % count]] += 1
    return alloc, (offset + 1) % count


@pytest.mark.parametrize("seed", range(6))
def test_round_robin_grants_are_the_dense_reference_without_zeros(seed):
    """The allocation leaves out exactly the zero entries of the dense
    reference, and the rotating offset follows the same sequence, over
    live counts that change every tick."""
    rng = random.Random(seed)
    pool = [f"s{i + 1}" for i in range(64)]
    scheduler = RoundRobinScheduler()
    offset, shapes = 0, set()
    for _ in range(300):
        budget = rng.randint(1, 16)
        count = rng.choice([
            1, budget, rng.randint(1, budget), rng.randint(budget, 3 * budget + 4)
        ])
        ids = sorted(rng.sample(pool, count), key=pool.index)
        expected, offset = dense_round_robin(ids, budget, offset)
        alloc = scheduler.allocate([StubSession(sid) for sid in ids], budget, RNG)
        assert alloc == {sid: n for sid, n in expected.items() if n}
        assert scheduler._offset == offset
        shapes.add("one" if count == 1 else (count > budget) - (count < budget))
    assert shapes == {"one", -1, 0, 1}


# --------------------------------------------------------------- priority

@settings(deadline=None)
@given(weights=priorities, budget=budgets, ticks=st.integers(1, 40))
def test_priority_sums_to_budget_and_tracks_fair_share(weights, budget, ticks):
    sessions = [
        StubSession(f"s{i + 1}", priority=w) for i, w in enumerate(weights)
    ]
    scheduler = PriorityScheduler()
    totals = {s.session_id: 0 for s in sessions}
    for _ in range(ticks):
        alloc = scheduler.allocate(sessions, budget, RNG)
        assert sum(alloc.values()) == budget
        assert all(v >= 0 for v in alloc.values())
        for sid, share in alloc.items():
            totals[sid] += share
    total_weight = sum(weights)
    for session in sessions:
        fair = ticks * budget * session.priority / total_weight
        # carried fractional credit keeps cumulative grants within two
        # frames of exact proportionality on each side (one frame of
        # rounding plus one transient frame around a claw-back)
        assert totals[session.session_id] >= np.floor(fair) - 2
        assert totals[session.session_id] <= np.ceil(fair) + 2


@settings(deadline=None)
@given(
    minnow=st.floats(min_value=0.01, max_value=1.0),
    whale=st.floats(min_value=100.0, max_value=10_000.0),
    budget=st.integers(1, 32),
)
def test_priority_never_starves_low_priority_sessions(minnow, whale, budget):
    """However lopsided the mix, the low-priority session is served once
    its accrued fair share reaches one frame — starvation-freedom, the
    property plain per-tick largest-remainder rounding lacks."""
    sessions = [
        StubSession("minnow", priority=minnow),
        StubSession("whale", priority=whale),
    ]
    scheduler = PriorityScheduler()
    share = budget * minnow / (minnow + whale)
    ticks_to_one_frame = int(np.ceil(3.0 / share))
    granted = 0
    for _ in range(ticks_to_one_frame):
        granted += scheduler.allocate(sessions, budget, RNG)["minnow"]
    assert granted >= 1


@settings(deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=500.0, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
    budget=budgets,
    data=st.data(),
)
def test_priority_conserves_budget_under_session_churn(weights, budget, data):
    """Sessions pause, cancel, complete, and arrive late — the active set
    changes between ticks while survivors hold carried credit.  Grants
    must still sum to the budget on every tick (a departed session takes
    its credit with it; the survivors' floors can undershoot by more
    than one frame each, which a single remainder pass cannot repair)."""
    sessions = [
        StubSession(f"s{i + 1}", priority=w) for i, w in enumerate(weights)
    ]
    scheduler = PriorityScheduler()
    for _ in range(10):
        active = [
            s for s in sessions if data.draw(st.booleans(), label="active")
        ] or sessions[:1]
        alloc = scheduler.allocate(active, budget, RNG)
        assert sum(alloc.values()) == budget
        assert all(v >= 0 for v in alloc.values())


def test_priority_conservation_with_departing_credit_holders():
    """Regression for the exact shape the review caught: a mid-range
    fractional session plus departures leaves floors undershooting the
    budget by more than the surviving session count."""
    scheduler = PriorityScheduler()
    first = [
        StubSession("s0", 0.5),
        StubSession("s1", 3.0),
        StubSession("s2", 3.0),
        StubSession("s4", 3.0),
        StubSession("s5", 1.0),
    ]
    alloc = scheduler.allocate(first, 16, RNG)
    assert sum(alloc.values()) == 16
    survivors = first[:3]  # s4/s5 leave holding carried credit
    alloc = scheduler.allocate(survivors, 16, RNG)
    assert sum(alloc.values()) == 16
    assert all(v >= 0 for v in alloc.values())


def test_priority_drops_credit_for_departed_sessions():
    scheduler = PriorityScheduler()
    first = [StubSession("a", 1.0), StubSession("b", 1000.0)]
    for _ in range(5):
        scheduler.allocate(first, 10, RNG)
    assert "a" in scheduler._credit
    scheduler.allocate([StubSession("b", 1000.0)], 10, RNG)
    assert "a" not in scheduler._credit


# ------------------------------------------------------------ thompson sum

@settings(deadline=None)
@given(
    draws=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    budget=budgets,
)
def test_thompson_sum_conserves_budget(draws, budget):
    sessions = [
        StubSession(f"s{i + 1}", draw=d) for i, d in enumerate(draws)
    ]
    alloc = ThompsonSumScheduler().allocate(sessions, budget, RNG)
    assert sum(alloc.values()) == budget
    assert all(v >= 0 for v in alloc.values())


# -------------------------------------------------- proportional_allocation

@settings(deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=-5.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
    budget=budgets,
)
def test_proportional_allocation_always_conserves(weights, budget):
    ids = [f"s{i + 1}" for i in range(len(weights))]
    alloc = proportional_allocation(ids, weights, budget)
    assert set(alloc) == set(ids)
    assert sum(alloc.values()) == budget
    assert all(v >= 0 for v in alloc.values())
