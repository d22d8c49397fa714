"""Tests for greedy IoU matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracking.matching import greedy_match


def test_simple_diagonal_match():
    iou = np.array([[0.9, 0.1], [0.2, 0.8]])
    result = greedy_match(iou, threshold=0.5)
    assert result.pairs == {0: 0, 1: 1}
    assert result.unmatched_detections == []
    assert result.unmatched_tracks == []


def test_threshold_blocks_weak_matches():
    iou = np.array([[0.4]])
    result = greedy_match(iou, threshold=0.5)
    assert result.pairs == {}
    assert result.unmatched_detections == [0]
    assert result.unmatched_tracks == [0]


def test_greedy_prefers_global_maximum():
    # det0 slightly overlaps both; det1 strongly overlaps track0.
    iou = np.array([[0.6, 0.55], [0.9, 0.0]])
    result = greedy_match(iou, threshold=0.5)
    assert result.pairs[1] == 0  # strongest pair claimed first
    assert result.pairs[0] == 1


def test_more_detections_than_tracks():
    iou = np.array([[0.9], [0.8], [0.7]])
    result = greedy_match(iou, threshold=0.5)
    assert len(result.pairs) == 1
    assert set(result.unmatched_detections) == {1, 2}


def test_empty_inputs():
    result = greedy_match(np.zeros((0, 0)))
    assert result.pairs == {}
    result = greedy_match(np.zeros((3, 0)))
    assert result.unmatched_detections == [0, 1, 2]
    result = greedy_match(np.zeros((0, 2)))
    assert result.unmatched_tracks == [0, 1]


def test_zero_iou_never_matches():
    result = greedy_match(np.zeros((2, 2)), threshold=0.0)
    assert result.pairs == {}


def test_validation():
    with pytest.raises(ValueError):
        greedy_match(np.zeros(3))
    with pytest.raises(ValueError):
        greedy_match(np.zeros((2, 2)), threshold=1.5)


@given(
    n=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
    threshold=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_matching_invariants(n, m, seed, threshold):
    rng = np.random.default_rng(seed)
    iou = rng.uniform(0, 1, size=(n, m))
    result = greedy_match(iou, threshold=threshold)
    # each det/track used at most once
    assert len(set(result.pairs.keys())) == len(result.pairs)
    assert len(set(result.pairs.values())) == len(result.pairs)
    # every matched pair is above threshold
    for det, track in result.pairs.items():
        assert iou[det, track] >= threshold
    # partition property
    assert len(result.pairs) + len(result.unmatched_detections) == n
    assert len(result.pairs) + len(result.unmatched_tracks) == m
    # maximality: no unmatched det/track pair above threshold remains
    for det in result.unmatched_detections:
        for track in result.unmatched_tracks:
            assert iou[det, track] < threshold or iou[det, track] <= 0.0


def _reference_match(iou, threshold):
    """The per-element scan: first maximum in row-major order, per round."""
    rows = [[float(v) for v in row] for row in iou]
    pairs = {}
    while rows and rows[0]:
        best, det, track = -1.0, -1, -1
        for d, row in enumerate(rows):
            for t, v in enumerate(row):
                if v > best:
                    best, det, track = v, d, t
        if best < threshold or best <= 0.0:
            break
        pairs[det] = track
        rows[det] = [-1.0] * len(rows[det])
        for row in rows:
            row[track] = -1.0
    return pairs


def test_ties_break_row_major():
    result = greedy_match(np.full((2, 3), 0.7), threshold=0.5)
    assert result.pairs == {0: 0, 1: 1}
    assert result.unmatched_tracks == [2]


@given(
    n=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
    threshold=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
)
@settings(max_examples=60, deadline=None)
def test_matches_the_per_element_scan(n, m, seed, threshold):
    # quarter steps make ties common, so the tie-break is exercised
    iou = np.random.default_rng(seed).integers(0, 5, size=(n, m)) / 4.0
    assert greedy_match(iou, threshold=threshold).pairs == _reference_match(iou, threshold)
