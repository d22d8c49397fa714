"""Property tests: batch detection is score-equivalent to per-frame.

The execution layer's contract (see :mod:`repro.detection.execution`) is
that ``detect_many`` returns exactly what per-frame ``detect`` calls
would, for any frame multiset and any detector — including partially
cached ones, where the batch path splits hits from misses.  Hypothesis
drives the frame lists, seeds, and cache priming.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.cache import CachingDetector, DetectionCache
from repro.detection.detector import OracleDetector, SimulatedDetector
from repro.detection.execution import with_latency
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances

TOTAL_FRAMES = 2000

# example count comes from the active hypothesis profile (see
# conftest.py): 25 by default, far more under --hypothesis-profile=nightly
SETTINGS = settings(deadline=None)


def _build_repo():
    rng = np.random.default_rng(0)
    instances = place_instances(
        30, TOTAL_FRAMES, rng, mean_duration=70,
        skew_fraction=0.2, category="bus", with_boxes=False,
    )
    return single_clip_repository(TOTAL_FRAMES, instances)


REPO = _build_repo()

frames_strategy = st.lists(
    st.integers(min_value=0, max_value=TOTAL_FRAMES - 1), min_size=1, max_size=24
)
seed_strategy = st.integers(min_value=0, max_value=7)


@given(frames=frames_strategy)
@SETTINGS
def test_oracle_detect_many_matches_per_frame(frames):
    detector = OracleDetector(REPO)
    assert detector.detect_many(frames) == [detector.detect(f) for f in frames]


@given(frames=frames_strategy, seed=seed_strategy)
@SETTINGS
def test_simulated_detect_many_matches_per_frame(frames, seed):
    batched = SimulatedDetector(REPO, seed=seed)
    reference = SimulatedDetector(REPO, seed=seed)
    assert batched.detect_many(frames) == [reference.detect(f) for f in frames]


@given(frames=frames_strategy, seed=seed_strategy)
@SETTINGS
def test_latency_wrapper_matches_per_frame(frames, seed):
    """The simulated per-call cost is wall-clock only: same detections,
    same order, as the detector it wraps — on both entry points."""
    delayed = with_latency(SimulatedDetector(REPO, seed=seed), 1e-6)
    reference = SimulatedDetector(REPO, seed=seed)
    expected = [reference.detect(f) for f in frames]
    assert delayed.detect_many(frames) == expected
    assert [delayed.detect(f) for f in frames] == expected


@given(
    frames=frames_strategy,
    primed=st.sets(st.integers(min_value=0, max_value=TOTAL_FRAMES - 1), max_size=16),
    seed=seed_strategy,
)
@SETTINGS
def test_caching_detect_many_matches_per_frame_under_partial_hits(
    frames, primed, seed
):
    cache = DetectionCache()
    caching = CachingDetector(SimulatedDetector(REPO, seed=seed), cache, "d")
    for frame in sorted(primed):  # partial priming: some hits, some misses
        caching.detect(frame)
    reference = SimulatedDetector(REPO, seed=seed)
    calls_before = caching.detector_calls
    assert caching.detect_many(frames) == [reference.detect(f) for f in frames]
    # the wrapped detector was charged once per unique un-primed frame
    assert caching.detector_calls - calls_before == len(set(frames) - primed)
    # and a re-batch is now all hits: zero further detector calls
    calls_before = caching.detector_calls
    assert caching.detect_many(frames) == [reference.detect(f) for f in frames]
    assert caching.detector_calls == calls_before
