"""Tests for the detection execution layer: batch dispatch, the
simulated per-call cost, and the shard processes' lifetime."""

import multiprocessing

import numpy as np
import pytest

from repro.detection import execution
from repro.detection.cache import (
    CachingDetector,
    CategoryFilterDetector,
    DetectionCache,
    SqliteBackend,
)
from repro.detection.detector import DetectorStats, OracleDetector, SimulatedDetector
from repro.detection.execution import batch_detect, with_latency
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances

TOTAL_FRAMES = 3000


def make_repo(seed=0):
    rng = np.random.default_rng(seed)
    buses = place_instances(
        20, TOTAL_FRAMES, rng, mean_duration=80,
        skew_fraction=0.2, category="bus", with_boxes=False,
    )
    trucks = place_instances(
        15, TOTAL_FRAMES, rng, mean_duration=60,
        skew_fraction=0.1, category="truck", with_boxes=False, start_id=20,
    )
    return single_clip_repository(TOTAL_FRAMES, list(buses) + list(trucks))


class PerFrameOnlyDetector:
    """A Detector with no ``detect_many`` — the fallback-dispatch case."""

    def __init__(self, inner):
        self._inner = inner
        self.stats = inner.stats

    def detect(self, frame_index):
        return self._inner.detect(frame_index)


# ------------------------------------------------------------ batch_detect

def test_batch_detect_uses_native_batch_method():
    repo = make_repo()
    detector = OracleDetector(repo)
    frames = [0, 500, 999, 500]
    assert batch_detect(detector, frames) == [detector.detect(f) for f in frames]


def test_batch_detect_falls_back_to_per_frame_loop():
    repo = make_repo()
    plain = PerFrameOnlyDetector(SimulatedDetector(repo, seed=4))
    reference = SimulatedDetector(repo, seed=4)
    frames = [3, 77, 2999, 77]
    assert batch_detect(plain, frames) == [reference.detect(f) for f in frames]


# ------------------------------------------------------------ with_latency

class ExplodingDetector:
    """Raises on a chosen frame; remembers the frames it did run."""

    def __init__(self, bad_frame):
        self.bad_frame = bad_frame
        self.stats = DetectorStats()
        self.ran = []

    def detect(self, frame_index):
        if frame_index == self.bad_frame:
            raise RuntimeError("detector blew up")
        self.ran.append(frame_index)
        return []


@pytest.fixture
def sleeps(monkeypatch):
    """Stands in for ``time.sleep``: the seconds each call asked for."""
    calls = []
    monkeypatch.setattr(execution.time, "sleep", calls.append)
    return calls


def test_with_latency_rejects_a_negative_latency():
    with pytest.raises(ValueError, match="non-negative"):
        with_latency(OracleDetector(make_repo()), -0.1)


def test_with_latency_zero_is_the_detector_itself():
    inner = OracleDetector(make_repo())
    assert with_latency(inner, 0.0) is inner


def test_with_latency_detect_pays_once_per_call(sleeps):
    repo = make_repo()
    delayed = with_latency(OracleDetector(repo), 0.25)
    assert delayed.detect(5) == OracleDetector(repo).detect(5)
    delayed.detect(5)  # a repeat is another call: caching is not its job
    assert sleeps == [0.25, 0.25]


def test_with_latency_detect_many_pays_once_per_frame(sleeps):
    repo = make_repo()
    reference = SimulatedDetector(repo, seed=1)
    delayed = with_latency(SimulatedDetector(repo, seed=1), 0.25)
    frames = list(range(0, 3000, 370))
    assert delayed.detect_many(frames) == [reference.detect(f) for f in frames]
    assert sleeps == [0.25] * len(frames)


def test_with_latency_shares_the_wrapped_stats(sleeps):
    inner = OracleDetector(make_repo())
    delayed = with_latency(inner, 0.25)
    delayed.detect(5)
    delayed.detect_many([10, 20, 30])
    assert delayed.stats is inner.stats
    assert inner.stats.frames_processed == 4


def test_with_latency_stops_a_batch_at_the_first_failure(sleeps):
    """Sequential by construction: the frames behind a failing one are
    neither charged nor run (a pool ran them and threw them away)."""
    inner = ExplodingDetector(bad_frame=13)
    with pytest.raises(RuntimeError, match="blew up"):
        with_latency(inner, 0.25).detect_many([1, 2, 13, 4, 5])
    assert sleeps == [0.25] * 3
    assert inner.ran == [1, 2]


# ------------------------------------------ shard processes do not outlive

def test_query_engine_sharded_execute_leaves_no_child_process():
    from repro.core.query import DistinctObjectQuery, QueryEngine

    repo = make_repo()
    engine = QueryEngine(repo, category="bus", chunk_frames=1000, batch_size=4, shards=2)
    before = set(multiprocessing.active_children())
    result = engine.execute(DistinctObjectQuery("bus", limit=2, max_samples=50))
    assert result.frames_processed > 0
    assert set(multiprocessing.active_children()) <= before  # joined, not leaked


def test_query_service_close_leaves_no_child_process():
    from repro.serving import QueryService

    repo = make_repo()
    service = QueryService(
        repo, chunk_frames=1000, frames_per_tick=16, batch_size=4,
        execution="sharded", shards=2,
    )
    before = set(multiprocessing.active_children())
    service.submit(repo.name, "bus", limit=3, seed=1)
    service.run_until_idle(max_ticks=50)
    assert set(multiprocessing.active_children()) - before  # workers live while serving
    service.close()
    assert set(multiprocessing.active_children()) <= before


# ----------------------------------------------- batch-aware cache facade

def test_cache_get_many_accounts_hits_and_misses_per_frame():
    repo = make_repo()
    cache = DetectionCache()
    detector = OracleDetector(repo)
    cache.put_many("d", [(10, detector.detect(10))])
    cache.put_many("d", [(30, detector.detect(30))])
    results = cache.get_many("d", [10, 20, 30, 40])
    assert results[0] is not None and results[2] is not None
    assert results[1] is None and results[3] is None
    assert (cache.stats.hits, cache.stats.misses) == (2, 2)


def test_cache_put_many_single_round_trip(tmp_path):
    repo = make_repo()
    detector = OracleDetector(repo)
    cache = DetectionCache(SqliteBackend(tmp_path / "c.sqlite"))
    items = [(f, detector.detect(f)) for f in (5, 15, 25)]
    cache.put_many("d", items)
    assert cache.stats.inserts == 3
    for frame, dets in items:
        assert cache.get_many("d", [frame])[0] == tuple(dets)
    cache.close()


def test_sqlite_get_many_handles_large_batches(tmp_path):
    cache = DetectionCache(SqliteBackend(tmp_path / "c.sqlite"))
    frames = list(range(1200))
    cache.put_many("d", [(f, []) for f in frames if f % 2 == 0])
    results = cache.get_many("d", frames)
    for frame, rows in zip(frames, results):
        assert (rows == ()) if frame % 2 == 0 else (rows is None)
    cache.close()


def test_caching_detector_batch_partial_hit_splitting():
    repo = make_repo()
    cache = DetectionCache()
    caching = CachingDetector(SimulatedDetector(repo, seed=2), cache, "d")
    reference = SimulatedDetector(repo, seed=2)
    for frame in (100, 300):  # prime a partial cache
        caching.detect(frame)
    calls_before = caching.detector_calls
    frames = [100, 200, 300, 400, 200]  # 2 hits, 2 novel, 1 duplicate novel
    batch = caching.detect_many(frames)
    assert batch == [reference.detect(f) for f in frames]
    # the wrapped detector is only charged for unique misses
    assert caching.detector_calls - calls_before == 2
    # and the misses are now cached
    assert 200 in cache.frames("d") and 400 in cache.frames("d")


def test_caching_detector_batch_empty_input():
    repo = make_repo()
    caching = CachingDetector(OracleDetector(repo), DetectionCache(), "d")
    assert caching.detect_many([]) == []


def test_category_filter_detect_many_filters_per_frame():
    repo = make_repo()
    shared = OracleDetector(repo)
    view = CategoryFilterDetector(shared, "bus")
    frames = [repo.instances[0].start_frame, 0, 1500]
    batches = view.detect_many(frames)
    assert len(batches) == len(frames)
    for dets in batches:
        assert all(d.category == "bus" for d in dets)
    assert batches == [view.detect(f) for f in frames]


