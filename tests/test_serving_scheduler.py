"""Tests for the frames-per-tick budget schedulers."""

import numpy as np
import pytest

from repro.serving.scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    ThompsonSumScheduler,
    proportional_allocation,
)


class StubSession:
    """Duck-typed stand-in: schedulers only read id, priority, and draws."""

    def __init__(self, session_id, priority=1.0, draw=1.0):
        self.session_id = session_id
        self.priority = priority
        self._draw = draw

    def thompson_draw(self, rng):
        return self._draw


RNG = np.random.default_rng(0)


# ------------------------------------------------- proportional allocation

def test_proportional_allocation_sums_to_budget():
    alloc = proportional_allocation(["a", "b", "c"], [1.0, 2.0, 3.0], 10)
    assert sum(alloc.values()) == 10
    assert alloc["c"] > alloc["b"] > alloc["a"]


def test_proportional_allocation_exact_shares():
    assert proportional_allocation(["a", "b"], [3.0, 1.0], 8) == {"a": 6, "b": 2}


def test_proportional_allocation_zero_weights_fall_back_to_even():
    alloc = proportional_allocation(["a", "b", "c", "d"], [0.0, 0.0, 0.0, 0.0], 8)
    assert alloc == {"a": 2, "b": 2, "c": 2, "d": 2}


def test_proportional_allocation_negative_weights_clipped():
    alloc = proportional_allocation(["a", "b"], [-5.0, 1.0], 4)
    assert alloc == {"a": 0, "b": 4}


def test_proportional_allocation_deterministic_ties():
    first = proportional_allocation(["a", "b", "c"], [1.0, 1.0, 1.0], 7)
    assert first == proportional_allocation(["a", "b", "c"], [1.0, 1.0, 1.0], 7)
    assert sum(first.values()) == 7


def test_proportional_allocation_empty():
    assert proportional_allocation([], [], 5) == {}


def test_proportional_allocation_mismatched_lengths():
    with pytest.raises(ValueError):
        proportional_allocation(["a"], [1.0, 2.0], 5)


# -------------------------------------------------------------- round robin

def test_round_robin_even_split():
    sessions = [StubSession("a"), StubSession("b")]
    alloc = RoundRobinScheduler().allocate(sessions, 8, RNG)
    assert alloc == {"a": 4, "b": 4}


def test_round_robin_remainder_rotates_across_ticks():
    sessions = [StubSession("a"), StubSession("b"), StubSession("c")]
    scheduler = RoundRobinScheduler()
    first = scheduler.allocate(sessions, 4, RNG)
    second = scheduler.allocate(sessions, 4, RNG)
    third = scheduler.allocate(sessions, 4, RNG)
    assert all(sum(a.values()) == 4 for a in (first, second, third))
    # the +1 extra lands on a different session each tick
    extras = [max(a, key=a.get) for a in (first, second, third)]
    assert extras == ["a", "b", "c"]


def test_round_robin_rejects_bad_budget():
    with pytest.raises(ValueError):
        RoundRobinScheduler().allocate([StubSession("a")], 0, RNG)


def test_duplicate_session_ids_rejected():
    with pytest.raises(ValueError):
        RoundRobinScheduler().allocate([StubSession("a"), StubSession("a")], 4, RNG)


# ---------------------------------------------------------------- priority

def test_priority_scheduler_weights_by_priority():
    sessions = [StubSession("low", priority=1.0), StubSession("high", priority=3.0)]
    alloc = PriorityScheduler().allocate(sessions, 8, RNG)
    assert alloc == {"low": 2, "high": 6}


# ------------------------------------------------------------ thompson sum

def test_thompson_scheduler_favors_high_yield_sessions():
    sessions = [
        StubSession("cold", draw=0.05),
        StubSession("hot", draw=0.95),
    ]
    alloc = ThompsonSumScheduler().allocate(sessions, 20, RNG)
    assert sum(alloc.values()) == 20
    assert alloc["hot"] > alloc["cold"]
    assert alloc["hot"] == 19  # 0.95 / 1.00 of the budget

