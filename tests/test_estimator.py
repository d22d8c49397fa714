"""Tests for the per-chunk N1/n statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import ChunkStatistics


def test_initial_state():
    stats = ChunkStatistics(4)
    assert stats.num_chunks == 4
    assert stats.total_samples == 0
    assert stats.total_results == 0
    np.testing.assert_array_equal(stats.n1, np.zeros(4))
    np.testing.assert_array_equal(stats.n, np.zeros(4))


def test_record_updates_algorithm1_state():
    stats = ChunkStatistics(3)
    stats.record(1, d0=2, d1=0)
    assert stats.n1[1] == 2
    assert stats.n[1] == 1
    stats.record(1, d0=0, d1=1)  # one result graduates out of N1
    assert stats.n1[1] == 1
    assert stats.n[1] == 2
    assert stats.total_results == 2
    assert stats.total_samples == 2


def test_n1_floor_at_zero():
    stats = ChunkStatistics(1)
    stats.record(0, d0=0, d1=5)  # adversarial: more d1 than ever entered
    assert stats.n1[0] == 0


def test_point_estimate():
    stats = ChunkStatistics(2)
    stats.record(0, d0=3, d1=0)
    stats.record(0, d0=1, d1=1)
    est = stats.point_estimate()
    assert est[0] == pytest.approx(3 / 2)
    assert est[1] == 0.0  # unsampled chunk: 0/0 -> 0


def test_record_validation():
    stats = ChunkStatistics(2)
    with pytest.raises(IndexError):
        stats.record(5, 0, 0)
    with pytest.raises(IndexError):
        stats.record(-1, 0, 0)
    with pytest.raises(ValueError):
        stats.record(0, -1, 0)
    with pytest.raises(ValueError):
        ChunkStatistics(-1)
    # zero chunks is legal since live ingestion: arms arrive via extend()
    empty = ChunkStatistics(0)
    assert empty.num_chunks == 0
    empty.extend(2)
    assert empty.num_chunks == 2
    with pytest.raises(ValueError):
        empty.extend(-1)


def test_views_are_read_only():
    # a locked ndarray view raises ValueError; the fallback tuple raises
    # TypeError — either way the exposed state cannot be mutated.
    stats = ChunkStatistics(2)
    with pytest.raises((ValueError, TypeError)):
        stats.n1[0] = 5
    with pytest.raises((ValueError, TypeError)):
        stats.n[0] = 5


@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_invariants_under_arbitrary_updates(updates):
    stats = ChunkStatistics(4)
    for chunk, d0, d1 in updates:
        stats.record(chunk, d0, d1)
    assert all(v >= 0 for v in stats.n1)
    assert stats.total_samples == len(updates)
    assert int(sum(stats.n)) == len(updates)
    assert stats.total_results == sum(d0 for _, d0, _ in updates)
    # N1 can never exceed results contributed to that chunk
    assert sum(stats.n1) <= stats.total_results
