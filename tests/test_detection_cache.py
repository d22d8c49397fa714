"""Tests for the shared detection cache and its backends."""

import os
import pathlib
import signal
import sqlite3
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from contracts import CountingDetector
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.chunking import even_count_chunks
from repro.core.sampler import ExSample
from repro.detection.cache import (
    CachingDetector,
    CategoryFilterDetector,
    DetectionCache,
    InMemoryBackend,
    SqliteBackend,
    TieredBackend,
)
from repro.detection.detector import Detection, OracleDetector, SimulatedDetector
from repro.serving.service import QueryService
from repro.serving.session import replay_cached_frames
from repro.telemetry import parse_series_key
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.geometry import Box
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances


def make_repo(total_frames=4000, num_instances=30, seed=0, category="bus"):
    rng = np.random.default_rng(seed)
    instances = place_instances(
        num_instances, total_frames, rng, mean_duration=80,
        skew_fraction=0.2, category=category, with_boxes=False,
    )
    return single_clip_repository(total_frames, instances)


def sample_detections(frame=7):
    return [
        Detection(frame, Box(10.0, 20.0, 110.0, 90.0), "bus", 0.91, true_instance_id=3),
        Detection(frame, Box(0.0, 0.0, 40.0, 40.0), "truck", 0.33, true_instance_id=None),
    ]


def all_backends(tmp_path):
    return [
        InMemoryBackend(),
        SqliteBackend(tmp_path / "cache.sqlite"),
    ]


# ----------------------------------------------------------- hit/miss stats

def test_miss_then_hit_accounting():
    cache = DetectionCache()
    assert cache.get_many("d", [7])[0] is None
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    cache.put_many("d", [(7, sample_detections())])
    assert cache.stats.inserts == 1
    assert cache.get_many("d", [7])[0] is not None
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_contains_does_not_touch_stats():
    cache = DetectionCache()
    cache.put_many("d", [(7, sample_detections())])
    assert 7 in cache.frames("d")
    assert 8 not in cache.frames("d")
    assert cache.stats.lookups == 0


def test_empty_detection_list_is_cacheable():
    # "the detector saw nothing" must be a hit, not a recompute
    cache = DetectionCache()
    cache.put_many("d", [(3, [])])
    assert cache.get_many("d", [3])[0] == ()
    assert cache.stats.hits == 1


def test_datasets_are_namespaced():
    cache = DetectionCache()
    cache.put_many("a", [(5, sample_detections())])
    assert cache.get_many("b", [5])[0] is None
    assert cache.frames("a") == [5]
    assert cache.frames("b") == []


# ------------------------------------------------------------- round trips

def test_round_trip_identity_all_backends(tmp_path):
    original = sample_detections()
    for backend in all_backends(tmp_path):
        cache = DetectionCache(backend)
        cache.put_many("d", [(7, original)])
        restored = cache.get_many("d", [7])[0]
        assert restored == tuple(original)  # frozen dataclasses: deep equality
        cache.close()


def test_on_disk_backends_survive_reopen(tmp_path):
    path = tmp_path / "cache.sqlite"
    cache = DetectionCache(SqliteBackend(path))
    cache.put_many("d", [(3, sample_detections(3))])
    cache.put_many("d", [(11, [])])
    cache.put_many("other", [(3, sample_detections(3))])
    cache.close()

    reopened = DetectionCache(SqliteBackend(path))
    assert len(reopened) == 3
    assert reopened.frames("d") == [3, 11]
    assert reopened.get_many("d", [3])[0] == tuple(sample_detections(3))
    assert reopened.get_many("d", [11])[0] == ()
    reopened.close()


def test_reput_supersedes(tmp_path):
    for backend in all_backends(tmp_path):
        cache = DetectionCache(backend)
        cache.put_many("d", [(7, sample_detections())])
        cache.put_many("d", [(7, [])])
        assert cache.get_many("d", [7])[0] == ()
        cache.close()


def test_sqlite_reput_latest_wins_across_reopen(tmp_path):
    path = tmp_path / "cache.sqlite"
    cache = DetectionCache(SqliteBackend(path))
    cache.put_many("d", [(7, sample_detections())])
    cache.put_many("d", [(7, [])])
    cache.close()
    reopened = DetectionCache(SqliteBackend(path))
    assert reopened.get_many("d", [7])[0] == ()
    assert len(reopened) == 1
    reopened.close()


def test_frames_sorted_regardless_of_insertion_order(tmp_path):
    for backend in all_backends(tmp_path):
        cache = DetectionCache(backend)
        for frame in (42, 7, 99, 13):
            cache.put_many("d", [(frame, [])])
        assert cache.frames("d") == [7, 13, 42, 99]
        cache.close()


# -------------------------------------------------------- caching detector

def test_caching_detector_second_call_is_free():
    repo = make_repo()
    inner = OracleDetector(repo)
    caching = CachingDetector(inner, DetectionCache(), repo.name)
    first = caching.detect(100)
    calls_after_first = caching.detector_calls
    second = caching.detect(100)
    assert caching.detector_calls == calls_after_first == 1
    assert caching.stats.frames_processed == 2
    assert first == second


def test_caching_detector_matches_uncached_noisy_detector():
    # the cache must be invisible: same boxes as calling the detector raw
    repo = make_repo()
    raw = SimulatedDetector(repo, seed=5)
    cached = CachingDetector(SimulatedDetector(repo, seed=5), DetectionCache(), repo.name)
    for frame in (0, 50, 999, 50, 0):
        assert cached.detect(frame) == raw.detect(frame)


def test_category_filter_detector():
    repo = make_repo()
    shared = OracleDetector(repo)  # emits all categories
    view = CategoryFilterDetector(shared, "bus")
    other = CategoryFilterDetector(shared, "truck")
    frame = repo.instances[0].start_frame  # at least one bus visible here
    bus_dets = view.detect(frame)
    assert bus_dets and all(d.category == "bus" for d in bus_dets)
    assert other.detect(frame) == []
    assert view.stats.frames_processed == 1


# ------------------------------------------------------ warm-start replay

def _fresh_sampler(repo, seed=11, num_chunks=8):
    rng = np.random.default_rng(seed)
    chunks = even_count_chunks(repo.total_frames, num_chunks, rng)
    return ExSample(chunks, OracleDetector(repo), OracleDiscriminator(), rng=rng)


@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
def test_warm_start_matches_redetecting_same_frames(tmp_path, backend_name):
    """Replaying cached frames must leave beliefs identical to running the
    detector on those frames — detection at zero cost, not approximation."""
    repo = make_repo()
    backend = {
        "memory": InMemoryBackend,
        "sqlite": lambda: SqliteBackend(tmp_path / "c.sqlite"),
    }[backend_name]()
    cache = DetectionCache(backend)

    # populate the cache through a first session's detector
    detector = CachingDetector(OracleDetector(repo), cache, repo.name)
    frames = [3, 250, 777, 1500, 2400, 3999]
    for frame in frames:
        detector.detect(frame)

    # warm-started sampler: replay from the cache
    warm = _fresh_sampler(repo)
    replayed, _ = replay_cached_frames(warm, cache, repo.name, category="bus")
    assert replayed == sorted(frames)

    # reference sampler: run the real detector on the same frames and apply
    # the same Algorithm-1 state update by hand
    reference = _fresh_sampler(repo)
    raw = OracleDetector(repo)
    chunk_of = {
        frame: next(
            c.chunk_id for c in reference.chunks
            if c.start_frame <= frame < c.end_frame
        )
        for frame in frames
    }
    for frame in sorted(frames):
        detections = [d for d in raw.detect(frame) if d.category == "bus"]
        outcome = reference.discriminator.observe(frame, detections)
        reference.stats.record(chunk_of[frame], outcome.d0, outcome.d1)

    np.testing.assert_array_equal(warm.stats.n1, reference.stats.n1)
    np.testing.assert_array_equal(warm.stats.n, reference.stats.n)
    assert warm.results_found == reference.results_found
    assert (
        warm.discriminator.distinct_true_instances()
        == reference.discriminator.distinct_true_instances()
    )
    # the replay charged no detector-visible samples
    assert warm.frames_processed == 0
    cache.close()


def test_warm_start_skips_unknown_and_out_of_range_frames():
    repo = make_repo(total_frames=1000)
    cache = DetectionCache()
    cache.put_many(repo.name, [(100, [])])
    sampler = _fresh_sampler(repo, num_chunks=4)
    replayed, result_frames = replay_cached_frames(
        sampler, cache, repo.name, category="bus", frames=[100, 500, 5000]
    )
    assert replayed == [100]  # 500 not cached, 5000 outside every chunk
    assert result_frames == []


# ------------------------------------------- warm start in one round trip

def _get_roundtrips():
    """Backend ``get`` round-trips drained into the live registry."""
    return sum(
        value
        for key, value in telemetry.get().snapshot()["counters"].items()
        if parse_series_key(key)
        == ("repro_cache_backend_roundtrips_total",
            {"backend": "InMemoryBackend", "op": "get"})
    )


WARM_FRAMES = [3, 120, 250, 777, 1500, 2400, 3100, 3999]


def test_warm_start_reads_every_cached_frame_in_one_round_trip():
    repo = make_repo()
    cache = DetectionCache()
    cache.put_many(repo.name, [(f, OracleDetector(repo).detect(f)) for f in WARM_FRAMES])
    service = QueryService(repo, cache=cache, chunk_frames=500, seed=5)
    telemetry.enable()
    try:
        cache.flush()
        before = _get_roundtrips()
        warm = service.submit(repo.name, "bus", max_samples=10)
        cache.flush()
        assert service.status(warm).warm_frames_replayed == len(WARM_FRAMES)
        assert _get_roundtrips() - before == 1  # one per frame before
        cold = service.submit(repo.name, "bus", max_samples=10, warm_start=False)
        cache.flush()
        assert service.status(cold).warm_frames_replayed == 0
        assert _get_roundtrips() - before == 1  # no lookup at all
    finally:
        telemetry.disable()
        service.close()


def _replay_per_frame(sampler, cache, dataset, category, frames, detector):
    """The per-frame replay: one lookup per in-span frame, one detector
    call per frame no longer cached."""
    for frame in frames:
        chunk = next(
            (c.chunk_id for c in sampler.chunks if c.start_frame <= frame < c.end_frame),
            None,
        )
        if chunk is None:
            continue
        (detections,) = cache.get_many(dataset, [frame])
        if detections is None:
            detections = tuple(detector.detect(frame))
        detections = tuple(d for d in detections if d.category == category)
        outcome = sampler.discriminator.observe(frame, detections)
        sampler.stats.record(chunk, outcome.d0, outcome.d1)


def test_restore_redetects_lost_frames_in_one_batch():
    """A restore whose recorded warm frames were partly lost looks each
    frame up once and re-detects the lost ones in one batched call, with
    the per-frame replay's hit, insert and detector-call totals and the
    same beliefs."""
    repo = make_repo()
    recorded = WARM_FRAMES + [9000]  # the last is outside every chunk span
    kept = WARM_FRAMES[::2]  # the others were lost with the cache

    def survivors():
        cache = DetectionCache()
        cache.put_many(repo.name, [(f, OracleDetector(repo).detect(f)) for f in kept])
        cache.stats.reset()
        return cache

    cache, recorder = survivors(), CountingDetector(OracleDetector(repo))
    batched = _fresh_sampler(repo)
    replayed, _ = replay_cached_frames(
        batched, cache, repo.name, category="bus", frames=recorded, detector=recorder
    )
    assert replayed == WARM_FRAMES
    lost = len(WARM_FRAMES) - len(kept)
    assert recorder.batches == [lost]  # one batched detector call
    assert cache.stats.batches == 1  # the replay's lookup is the only one

    reference_cache = survivors()
    reference_caching = CachingDetector(OracleDetector(repo), reference_cache, repo.name)
    reference = _fresh_sampler(repo)
    _replay_per_frame(
        reference, reference_cache, repo.name, "bus", recorded, reference_caching
    )
    assert reference_cache.stats.batches == len(WARM_FRAMES) + lost  # one per lookup

    for attr in ("hits", "inserts"):
        assert getattr(cache.stats, attr) == getattr(reference_cache.stats, attr), attr
    assert (cache.stats.hits, cache.stats.misses, cache.stats.inserts) == (
        len(kept), lost, lost,
    )
    assert recorder.stats.frames_processed == reference_caching.detector_calls == lost
    assert cache.frames(repo.name) == sorted(WARM_FRAMES)
    np.testing.assert_array_equal(batched.stats.n1, reference.stats.n1)
    np.testing.assert_array_equal(batched.stats.n, reference.stats.n)
    assert batched.results_found == reference.results_found

    # a service restore replays through the detector behind its cache
    donor_cache = DetectionCache()
    donor_cache.put_many(repo.name, [(f, OracleDetector(repo).detect(f)) for f in WARM_FRAMES])
    donor = QueryService(repo, cache=donor_cache, chunk_frames=500, seed=5)
    snapshot = donor.snapshot(donor.submit(repo.name, "bus", max_samples=10))
    host_cache = survivors()
    host = QueryService(repo, cache=host_cache, chunk_frames=500, seed=5)
    host.restore(snapshot)
    stats = host_cache.stats
    assert (stats.batches, stats.hits, stats.misses, stats.inserts) == (1, len(kept), lost, lost)
    assert host.detector_calls == lost


# --------------------------------------------------------- sqlite WAL mode

def test_sqlite_backend_opens_in_wal_with_normal_sync(tmp_path):
    """Concurrent shard workers (and a follow server racing an
    out-of-band submitter) must not serialize on the rollback journal:
    the backend opens every connection in WAL with synchronous=NORMAL."""
    backend = SqliteBackend(tmp_path / "cache.sqlite")
    assert backend._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    # 1 == NORMAL
    assert backend._conn.execute("PRAGMA synchronous").fetchone()[0] == 1
    backend.close()
    # the mode is a property of the database file: reopening keeps it
    reopened = SqliteBackend(tmp_path / "cache.sqlite")
    assert reopened._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    reopened.close()


def test_sqlite_wal_leaves_batch_results_unchanged(tmp_path):
    """The journal-mode change is invisible to the API: get_many/put_many
    round-trip exactly as before, across flush and reopen."""
    path = tmp_path / "cache.sqlite"
    backend = SqliteBackend(path)
    cache = DetectionCache(backend)
    items = [(frame, sample_detections(frame)) for frame in (3, 9, 27, 81)]
    cache.put_many("cam", items)
    got = cache.get_many("cam", [3, 9, 27, 81, 5])
    assert got[:4] == [tuple(dets) for _, dets in items]
    assert got[4] is None
    cache.flush()
    cache.close()
    reopened = DetectionCache(SqliteBackend(path))
    assert reopened.get_many("cam", [81, 3]) == [
        tuple(items[3][1]),
        tuple(items[0][1]),
    ]
    reopened.close()


# ------------------------------------------------ crash-safe sqlite open
#
# The durability contract is the transaction boundary: ``flush()``
# commits, and whatever a dead writer had not committed was never part
# of the cache — losing it costs re-detection, never an unopenable state
# directory.

def test_sqlite_reopen_after_kill9_mid_put_many(tmp_path):
    """A process SIGKILLed with a ``put_many`` batch written but not yet
    flushed loses exactly that batch: reopen succeeds and serves every
    committed entry."""
    path = tmp_path / "cache.sqlite"
    script = textwrap.dedent(
        """
        import os, signal, sys
        from repro.detection.cache import SqliteBackend
        backend = SqliteBackend(sys.argv[1])
        backend.put_many("d", [(1, [{"v": 1}]), (2, [])])
        backend.flush()
        # die mid-tick: the next batch is in the open transaction, then
        # SIGKILL — no flush(), no close(), no atexit, nothing
        backend.put_many("d", [(3, [{"v": 3}]), (1, [{"v": "lost"}])])
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    reopened = SqliteBackend(path)
    assert reopened.frames("d") == [1, 2]
    assert reopened.get_many("d", [1])[0] == [{"v": 1}]
    assert reopened.get_many("d", [2])[0] == []
    assert reopened.get_many("d", [3])[0] is None
    reopened.put_many("d", [(4, [])])  # and the store still takes writes
    reopened.close()
    assert SqliteBackend(path).frames("d") == [1, 2, 4]


def test_sqlite_torn_wal_tail_loses_only_the_last_commit(tmp_path):
    """A write-ahead log cut short mid-frame (power loss under
    ``synchronous=NORMAL``) fails its checksum from the tear onwards:
    reopening serves everything committed before it."""
    live = tmp_path / "live"
    backend = SqliteBackend(live / "cache.sqlite")
    backend.put_many("d", [(3, [{"v": 3}]), (9, [])])
    backend.flush()
    backend.put_many("d", [(11, [{"v": 11}])])
    backend.flush()
    # copy the database as a crash would leave it: the connection is
    # still open, so nothing has been checkpointed out of the log
    torn = tmp_path / "torn"
    torn.mkdir()
    (torn / "cache.sqlite").write_bytes((live / "cache.sqlite").read_bytes())
    wal = (live / "cache.sqlite-wal").read_bytes()
    (torn / "cache.sqlite-wal").write_bytes(wal[:-100])
    backend.close()
    reopened = SqliteBackend(torn / "cache.sqlite")
    assert reopened.frames("d") == [3, 9]
    assert reopened.get_many("d", [3])[0] == [{"v": 3}]
    assert reopened.get_many("d", [11])[0] is None  # never durable, never served
    reopened.put_many("d", [(11, [])])
    reopened.close()
    assert SqliteBackend(torn / "cache.sqlite").frames("d") == [3, 9, 11]


def test_sqlite_corrupt_file_fails_loudly_on_open(tmp_path):
    """A store that is not a database is corruption, not a cold cache —
    fail on open, never guess and never serve from it."""
    path = tmp_path / "cache.sqlite"
    backend = SqliteBackend(path)
    backend.put_many("d", [(3, [{"v": 3}])])
    backend.close()
    path.write_bytes(b"not a database " * 64)
    with pytest.raises(sqlite3.DatabaseError, match="not a database"):
        SqliteBackend(path)


def test_sqlite_corrupt_file_leaves_no_open_connection(tmp_path, monkeypatch):
    """The failed construction returns no object to close, so it must
    close its own handle (it used to leak one per attempt)."""
    path = tmp_path / "cache.sqlite"
    path.write_bytes(b"not a database " * 64)
    opened = []
    real_connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        opened.append(real_connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    with pytest.raises(sqlite3.DatabaseError):
        SqliteBackend(path)
    (connection,) = opened
    with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
        connection.execute("SELECT 1")


# -------------------------------------------------- flush/close lifecycle

def _lifecycle_backends(tmp_path):
    return all_backends(tmp_path) + [
        TieredBackend(max_entries=8),
        TieredBackend(SqliteBackend(tmp_path / "tiered.sqlite"), max_entries=2),
    ]


def test_flush_and_close_are_idempotent_everywhere(tmp_path):
    """Every backend must tolerate redundant flushes and closes —
    shutdown paths overlap (service close, atexit, test teardown) and
    must not race each other into exceptions."""
    for backend in _lifecycle_backends(tmp_path):
        cache = DetectionCache(backend)
        cache.put_many("d", [(7, sample_detections())])
        cache.flush()
        cache.flush()
        cache.close()
        cache.close()  # second close: no-op
        cache.flush()  # flush after close: no-op, not ValueError
        backend.flush()
        backend.close()


def test_sqlite_clear_resets_disk_and_stays_usable(tmp_path):
    path = tmp_path / "cache.sqlite"
    backend = SqliteBackend(path)
    backend.put_many("d", [(1, [{"v": 1}])])
    backend.put_many("d", [(1, [{"v": 2}])])
    backend.flush()
    backend.clear()
    assert len(backend) == 0
    assert backend.frames("d") == []
    backend.put_many("d", [(5, [])])  # the cleared store accepts writes
    backend.close()
    reopened = SqliteBackend(path)
    assert reopened.frames("d") == [5]  # nothing from before resurfaces
    reopened.close()


# --------------------------------------------------- frame-key coercion

def test_numpy_frame_keys_address_plain_int_entries(tmp_path):
    """Regression: backends disagreed on key coercion — sqlite stored a
    numpy int64 row a plain-int lookup missed, the dict backends matched
    by hash.  The facade now coerces once; every backend must behave
    identically for numpy integer and bool keys."""
    for backend in _lifecycle_backends(tmp_path):
        cache = DetectionCache(backend)
        cache.put_many("d", [(np.int64(7), sample_detections())])
        assert cache.get_many("d", [7])[0] == tuple(sample_detections())
        assert cache.get_many("d", [np.int32(7)])[0] is not None
        assert cache.get_many("d", [np.uint8(7)])[0] is not None
        cache.put_many("d", [(np.bool_(True), [])])  # bool is an int: frame 1
        assert cache.get_many("d", [1])[0] == ()
        assert cache.frames("d") == [1, 7]
        assert all(type(f) is int for f in cache.frames("d"))
        cache.close()


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.booleans()),
        min_size=1,
        max_size=15,
    )
)
def test_key_coercion_property_across_backends(ops):
    """Property: any interleaving of numpy-keyed and int-keyed puts
    reads back identically on every backend — the key's *value* is the
    identity, never its type."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        backends = [
            InMemoryBackend(),
            SqliteBackend(tmp / "c.sqlite"),
            TieredBackend(max_entries=4),
        ]
        reference = {}
        for frame, as_numpy in ops:
            reference[frame] = [{"f": frame}]
        for backend in backends:
            for frame, as_numpy in ops:
                key = np.int64(frame) if as_numpy else frame
                backend.put_many("d", [(key, [{"f": frame}])])
            for frame in range(31):
                got = backend.get_many("d", [np.int64(frame)])[0]
                if backend.frames("d") == sorted(reference):  # full view
                    assert got == reference.get(frame)
                elif got is not None:  # bounded tier: subset, never wrong
                    assert got == reference[frame]
            backend.close()


# -------------------------------------------------- tier telemetry drain

def test_tier_counters_drain_at_durability_points():
    telemetry.enable()
    try:
        tier = TieredBackend(max_entries=1)
        tier.put_many("d", [(1, [{"v": 1}])])
        tier.put_many("d", [(2, [{"v": 2}])])  # evicts frame 1
        assert tier.get_many("d", [2])[0] is not None  # tier hit
        assert tier.get_many("d", [1])[0] is None  # tier miss (and gone: no backing)
        snap = telemetry.get().snapshot()
        assert "repro_cache_tier_hits_total" not in snap["counters"]  # pending
        tier.flush()
        snap = telemetry.get().snapshot()
        assert snap["counters"]["repro_cache_tier_hits_total"] == 1
        assert snap["counters"]["repro_cache_tier_misses_total"] == 1
        assert snap["counters"]["repro_cache_tier_evictions_total"] == 1
        assert snap["gauges"]["repro_cache_tier_entries"] == 1
        tier.close()
    finally:
        telemetry.disable()
