"""Regression pins for nondeterminism the simulation harness surfaced.

Each test here encodes one specific way the stack used to be able to
diverge between a live run and its replay (or between two runs of the
same seed), fixed during the determinism audit.  They are deliberately
narrow — the broad net is the harness itself (tests/test_simulation.py);
these pin the individual fixes so they cannot regress silently.
"""

import json

import numpy as np
import pytest
from contracts import assert_same_decisions, clip_repository, fingerprint, stationary_instance

from repro.core.chunking import IncrementalChunker
from repro.core.sampler import ExSample
from repro.detection.cache import (
    CategoryFilterDetector,
    CachingDetector,
    DetectionCache,
    SqliteBackend,
    TieredBackend,
)
from repro.detection.detector import OracleDetector
from repro.serving import ingest as serving_ingest
from repro.serving.ingest import IngestEntry, JournalError
from repro.serving.service import QueryService
from repro.serving.session import replay_cached_frames
from repro.tracking.discriminator import OracleDiscriminator


def _repository():
    return clip_repository("cam0", (300, 300), [
        stationary_instance(0, 20, 60),
        stationary_instance(1, 150, 80),
        stationary_instance(2, 340, 90),
        stationary_instance(3, 480, 50),
        stationary_instance(4, 90, 40, category="car"),
    ])


# --------------------------------------------------------------- warm start
#
# The bug: a restored session replayed its recorded warm-start frames by
# cache lookup only.  If the cache had been lost since (crash with an
# in-memory backend, an operator wiping cache.sqlite), the lookups missed
# and the frames were *silently skipped* — the restored session started
# from different per-chunk beliefs than the live session ever had, and
# every decision after that diverged.  The fix re-detects recorded frames
# through the shared detector on a miss.

def test_restore_is_bit_exact_after_total_cache_loss():
    def build(cache):
        return QueryService(
            _repository(), cache=cache, frames_per_tick=8, chunk_frames=100,
            seed=5,
        )

    live = build(DetectionCache())
    first = live.submit("cam0", "bus", max_samples=30)
    live.run_until_idle()  # populate the cache so warm start has material
    second = live.submit("cam0", "bus", max_samples=60)
    for _ in range(3):
        live.tick()
    warm_session = live.sessions[second]
    assert not warm_session.state.terminal  # still mid-flight at the crash
    assert warm_session.warm_frames_replayed > 0
    snapshots = live.snapshot_all()

    # the crash: every snapshot survives, the in-memory cache does not
    restored = build(DetectionCache())
    for snap in snapshots:
        restored.restore(snap)
    twin = restored.sessions[second]
    assert twin.warm_frames_replayed == warm_session.warm_frames_replayed
    assert twin.status().to_dict() == warm_session.status().to_dict()
    assert fingerprint(restored, [second]) == fingerprint(live, [second])

    # and the two processes keep agreeing after the restore
    live.run_until_idle()
    restored.run_until_idle()
    assert fingerprint(restored, [second]) == fingerprint(live, [second])
    assert first in restored.sessions


def test_replay_cached_frames_detector_fallback():
    repo = _repository()
    cache = DetectionCache()
    shared = CachingDetector(OracleDetector(repo), cache, "cam0")
    shared.detect(25)  # cached
    recorded = [25, 160]  # 160 was recorded by the live run, then evicted

    def engine():
        rng = np.random.default_rng(3)
        chunker = IncrementalChunker(repo, rng, 100)
        return ExSample(
            chunker.take(),
            CategoryFilterDetector(shared, "bus"),
            OracleDiscriminator(),
            rng=rng,
        )

    # without a detector, the evicted frame is skipped (the pre-snapshot
    # admission path, where the frame list is the cache listing itself)
    sampler = engine()
    replayed, _ = replay_cached_frames(
        sampler, cache, "cam0", category="bus", frames=recorded
    )
    assert replayed == [25]

    # with the detector fallback, the recorded list is authoritative
    sampler = engine()
    replayed, _ = replay_cached_frames(
        sampler, cache, "cam0", category="bus", frames=recorded,
        detector=shared.wrapped,
    )
    assert replayed == [25, 160]
    assert 160 in cache.frames("cam0")  # the replay wrote it back


# ------------------------------------------------------------- cache drops

def test_cache_drop_changes_cost_but_never_decisions():
    calls = {}

    def run(drop_mid_run):
        service = QueryService(
            _repository(),
            cache=DetectionCache(),
            frames_per_tick=10,
            chunk_frames=100,
            seed=9,
        )
        sid = service.submit("cam0", "bus", max_samples=40)
        for tick in range(6):
            if drop_mid_run and tick == 3:
                service.cache.clear()
            service.tick()
        calls[drop_mid_run] = service.detector_calls
        return fingerprint(service, [sid])

    assert_same_decisions(run, False, True)
    assert calls[True] >= calls[False]


@pytest.mark.parametrize("backend", ["sqlite", "tiered"])
def test_backend_clear_empties_storage(tmp_path, backend):
    store = SqliteBackend(tmp_path / "c.sqlite")
    if backend == "tiered":  # clear must reach through the memory tier
        store = TieredBackend(store, max_entries=1)
    cache = DetectionCache(store)
    cache.put_many("cam0", [(1, [])])
    cache.put_many("cam0", [(2, [])])
    cache.flush()
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0
    assert cache.frames("cam0") == []
    cache.put_many("cam0", [(3, [])])
    cache.flush()
    assert cache.frames("cam0") == [3]
    cache.close()


# ----------------------------------------------------------------- journal
#
# The bug class: a writer crashing mid-append leaves a torn final line.
# Treating it as corruption (or worse, welding the next append onto it)
# would make journal replay — and therefore cache keys, snapshot replay,
# and ingestion parity — diverge between processes that read the journal
# before and after the repair.

def _entry(frames=50):
    return IngestEntry(dataset="cam0", frames=frames)


def test_torn_journal_tail_is_ignored(tmp_path):
    serving_ingest.append_entry(tmp_path, _entry(50))
    serving_ingest.append_entry(tmp_path, _entry(60))
    path = serving_ingest.journal_path(tmp_path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"dataset": "cam0", "fra')  # torn write, no newline
    entries = serving_ingest.load_entries(tmp_path)
    assert [e.frames for e in entries] == [50, 60]


def test_append_after_torn_tail_repairs_the_file(tmp_path):
    serving_ingest.append_entry(tmp_path, _entry(50))
    path = serving_ingest.journal_path(tmp_path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"dataset": "cam0", "fra')
    index = serving_ingest.append_entry(tmp_path, _entry(70))
    assert index == 1
    # every line in the repaired file is valid JSON again
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["frames"] for line in lines] == [50, 70]
    assert [e.frames for e in serving_ingest.load_entries(tmp_path)] == [50, 70]


def test_malformed_committed_journal_line_raises(tmp_path):
    serving_ingest.append_entry(tmp_path, _entry(50))
    path = serving_ingest.journal_path(tmp_path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")  # committed: newline-terminated
    with pytest.raises(JournalError, match="ingest.jsonl:2"):
        serving_ingest.load_entries(tmp_path)


# --------------------------------------------------------------- scheduler
#
# The bug: per-tick largest-remainder rounding starved any session whose
# fair share rounded to zero — with priorities 1 vs 1000, the minnow
# received nothing forever.  PriorityScheduler now carries fractional
# credit across ticks.

def test_priority_starvation_regression():
    from repro.serving.scheduler import PriorityScheduler

    class Stub:
        def __init__(self, session_id, priority):
            self.session_id = session_id
            self.priority = priority

    sessions = [Stub("minnow", 1.0), Stub("whale", 1000.0)]
    scheduler = PriorityScheduler()
    rng = np.random.default_rng(0)
    granted = []
    for _ in range(150):  # fair share ~0.01/tick: one frame due by ~t=100
        alloc = scheduler.allocate(sessions, 10, rng)
        assert sum(alloc.values()) == 10
        granted.append(alloc["minnow"])
    assert sum(granted) >= 1
