"""Live ingestion through the serving layer: feed()/sync(), follow
sessions, horizon-logged snapshots, and the ingestion journal.

Workload size honors ``REPRO_TEST_SCALE`` (default 1.0): the nightly CI
job raises it to run the same parity/determinism assertions over much
larger repositories.
"""

import os

import numpy as np
import pytest
from contracts import clip_repository

from repro.serving import IngestEntry, QueryService, SessionState
from repro.serving import ingest as serving_ingest
from repro.video.repository import empty_repository
from repro.video.synthetic import place_instances

_SCALE = float(os.environ.get("REPRO_TEST_SCALE", "1.0"))
CLIP_FRAMES = tuple(int(f * _SCALE) for f in (2400, 1600, 2000, 1200))


def clip_instances(clip_start, clip_frames, count, category="bus", seed=0, start_id=0):
    rng = np.random.default_rng((seed, clip_start))
    return place_instances(
        count, clip_frames, rng, mean_duration=60, skew_fraction=None,
        category=category, with_boxes=False, start_id=start_id,
        frame_offset=clip_start,
    )


def clip_specs(per_clip=8):
    """(num_frames, instances) per clip — shared by both materializations."""
    specs, start = [], 0
    for k, frames in enumerate(CLIP_FRAMES):
        specs.append(
            (frames, clip_instances(start, frames, per_clip, start_id=k * per_clip))
        )
        start += frames
    return specs


def full_repo(specs, num_clips=None):
    specs = specs[:num_clips]
    return clip_repository(
        "cam", [frames for frames, _ in specs], [i for _, insts in specs for i in insts]
    )


def make_service(repo, **kwargs):
    kwargs.setdefault("chunk_frames", 600)
    kwargs.setdefault("frames_per_tick", 16)
    return QueryService(repo, **kwargs)


# ------------------------------------------------------------ feed + sync

def test_feed_unknown_dataset_raises():
    service = make_service(full_repo(clip_specs(), 1))
    with pytest.raises(KeyError):
        service.feed("atlantis", 100)


def test_feed_extends_running_sessions():
    specs = clip_specs()
    service = make_service(full_repo(specs, 1))
    sid = service.submit("cam", "bus", limit=1000, seed=5)
    session = service.sessions[sid]
    h0 = session.horizon
    assert h0 == specs[0][0]
    frames, insts = specs[1]
    service.feed("cam", frames, insts, name="c1")
    assert session.horizon == h0 + frames
    assert session.horizon_log[-1] == (session.frames_processed, h0 + frames)
    assert service.status(sid).horizon == h0 + frames


def test_ingest_before_ticking_matches_upfront_service():
    """Parity at the service level: clips fed one at a time (before any
    scheduling) == the fully materialized repository — same matches and
    same per-chunk sample counts, per the acceptance criterion."""
    specs = clip_specs()
    upfront = make_service(full_repo(specs))
    u_sid = upfront.submit("cam", "bus", limit=12, seed=9)
    upfront.run_until_idle()

    live = make_service(full_repo(specs, 1))
    l_sid = live.submit("cam", "bus", limit=12, seed=9)
    for frames, insts in specs[1:]:
        live.feed("cam", frames, insts)
    live.run_until_idle()

    u_session, l_session = upfront.sessions[u_sid], live.sessions[l_sid]
    assert l_session.results_found == u_session.results_found
    assert l_session.result_frames() == u_session.result_frames()
    assert l_session.frames_processed == u_session.frames_processed
    np.testing.assert_array_equal(
        l_session.chunk_stats.n, u_session.chunk_stats.n
    )
    np.testing.assert_array_equal(
        l_session.history.frame_indices,
        u_session.history.frame_indices,
    )


def test_mid_query_feed_is_deterministic():
    """Two identical services fed identically mid-query take identical
    post-catch-up sampling decisions (fixed-seed reproducibility)."""
    specs = clip_specs()

    def run_once():
        service = make_service(full_repo(specs, 2))
        sid = service.submit("cam", "bus", limit=200, max_samples=300, seed=3)
        for _ in range(4):
            service.tick()
        for frames, insts in specs[2:]:
            service.feed("cam", frames, insts)
        service.run_until_idle()
        return service.sessions[sid]

    a, b = run_once(), run_once()
    np.testing.assert_array_equal(
        a.history.frame_indices, b.history.frame_indices
    )
    np.testing.assert_array_equal(a.chunk_stats.n, b.chunk_stats.n)
    assert a.horizon_log == b.horizon_log


# --------------------------------------------------- snapshots + horizons

def test_snapshot_restore_across_horizon_change():
    """A session that absorbed footage mid-query restores bit-exact from
    (spec, steps, horizon log) and continues identically."""
    specs = clip_specs()
    service = make_service(full_repo(specs, 2))
    sid = service.submit("cam", "bus", limit=500, max_samples=400, seed=13)
    for _ in range(5):
        service.tick()
    frames, insts = specs[2]
    service.feed("cam", frames, insts, name="c2")
    for _ in range(5):
        service.tick()

    snapshot = service.snapshot(sid)
    assert len(snapshot.horizons) == 2  # admission + one absorption

    # the restoring process sees a repository that has grown *further*
    restore_repo = full_repo(specs, 2)
    for f, i in specs[2:]:
        restore_repo.append_clip(f, i)
    restored_service = make_service(restore_repo, cache=service.cache)
    restored_service.restore(snapshot)
    restored = restored_service.sessions[sid]
    original = service.sessions[sid]

    np.testing.assert_array_equal(
        restored.history.frame_indices,
        original.history.frame_indices,
    )
    np.testing.assert_array_equal(
        restored.chunk_stats.n, original.chunk_stats.n
    )
    # restored horizon stops at the last logged absorption; the extra
    # clip is picked up by the next tick's sync, like any live append
    assert restored.horizon == original.horizon
    restored_service.tick()
    assert restored.horizon == restore_repo.horizon

    # both copies, given the same remaining footage, finish identically
    frames3, insts3 = specs[3]
    service.feed("cam", frames3, insts3)
    service.run_until_idle()
    restored_service.run_until_idle()
    assert restored.results_found == original.results_found
    np.testing.assert_array_equal(
        restored.history.frame_indices,
        original.history.frame_indices,
    )


def test_restore_costs_no_detector_calls():
    specs = clip_specs()
    service = make_service(full_repo(specs, 2))
    sid = service.submit("cam", "bus", limit=500, max_samples=200, seed=2)
    for _ in range(3):
        service.tick()
    frames2, insts2 = specs[2]
    service.feed("cam", frames2, insts2)
    for _ in range(3):
        service.tick()
    snapshot = service.snapshot(sid)

    repo = full_repo(specs, 3)
    restored_service = make_service(repo, cache=service.cache)
    before = restored_service.detector_calls
    restored_service.restore(snapshot)
    assert restored_service.detector_calls == before  # replay is all hits


# ----------------------------------------------------------- follow mode

def test_follow_session_idles_instead_of_exhausting():
    specs = clip_specs(per_clip=2)
    service = make_service(full_repo(specs, 1))
    sid = service.submit("cam", "bus", limit=10_000, seed=1, follow=True)
    ticks = service.run_until_idle()  # drains the only clip, then stops
    assert ticks > 0
    session = service.sessions[sid]
    assert session.state is SessionState.ACTIVE  # parked, not terminal
    assert not session.schedulable
    assert service.run_until_idle() == 0  # idle followers don't spin

    frames, insts = specs[1]
    service.feed("cam", frames, insts)
    assert session.schedulable
    service.run_until_idle()
    assert session.frames_processed == sum(f for f, _ in specs[:2])


def test_non_follow_session_exhausts_when_drained():
    specs = clip_specs(per_clip=2)
    service = make_service(full_repo(specs, 1))
    sid = service.submit("cam", "bus", limit=10_000, seed=1)
    service.run_until_idle()
    assert service.sessions[sid].state is SessionState.EXHAUSTED


def test_follow_session_completes_on_limit():
    specs = clip_specs()
    service = make_service(full_repo(specs, 1))
    sid = service.submit("cam", "bus", limit=4, seed=6, follow=True)
    service.run_until_idle()
    assert service.sessions[sid].state is SessionState.COMPLETED


def test_empty_repository_start_feeds_only():
    """The pure live scenario: a camera registered before it ever
    recorded; every frame arrives through feed()."""
    service = QueryService(
        empty_repository("cam0"), chunk_frames=600, frames_per_tick=16
    )
    sid = service.submit("cam0", "bus", limit=6, seed=4, follow=True)
    session = service.sessions[sid]
    assert session.horizon == 0
    assert not session.schedulable
    assert service.run_until_idle() == 0

    start = 0
    for k in range(3):
        insts = clip_instances(start, 2000, 6, start_id=k * 6)
        service.feed("cam0", 2000, insts)
        start += 2000
        service.run_until_idle()
        if service.sessions[sid].state is SessionState.COMPLETED:
            break
    assert session.results_found >= 6
    assert session.state is SessionState.COMPLETED

    # and the whole lifetime snapshots/restores exactly
    snapshot = service.snapshot(sid)
    repo = empty_repository("cam0")
    start = 0
    for k in range(3):
        insts = clip_instances(start, 2000, 6, start_id=k * 6)
        repo.append_clip(2000, insts)
        start += 2000
    restored_service = QueryService(
        repo, cache=service.cache, chunk_frames=600, frames_per_tick=16
    )
    restored_service.restore(snapshot)
    assert restored_service.status(sid).results_found == session.results_found


def test_follow_submission_allows_not_yet_recorded_category():
    service = QueryService(empty_repository("cam0"), chunk_frames=600)
    # non-follow: unknown category is still an error
    with pytest.raises(ValueError):
        service.submit("cam0", "bus", limit=1)
    sid = service.submit("cam0", "bus", limit=1, follow=True)
    assert service.status(sid).state == "active"


# ------------------------------------------------------- ingestion journal

def test_ingest_journal_roundtrip(tmp_path):
    entry = IngestEntry(
        dataset="cam0", frames=500, clips=2, category="bus",
        instances=3, mean_duration=40.0,
    )
    assert serving_ingest.append_entry(tmp_path, entry) == 0
    assert serving_ingest.append_entry(
        tmp_path, IngestEntry(dataset="cam0", frames=200)
    ) == 1
    loaded = serving_ingest.load_entries(tmp_path)
    assert loaded[0] == entry
    assert loaded[1].instances == 0


def test_ingest_entry_validation():
    with pytest.raises(ValueError):
        IngestEntry(dataset="x", frames=0)
    with pytest.raises(ValueError):
        IngestEntry(dataset="x", frames=10, instances=2)  # no category
    with pytest.raises(ValueError):
        IngestEntry(dataset="x", frames=10, clips=0)


def test_apply_journal_is_deterministic(tmp_path):
    for entry in (
        IngestEntry(dataset="cam0", frames=1500, clips=2, category="bus",
                    instances=5, mean_duration=50.0),
        IngestEntry(dataset="cam0", frames=900, category="truck",
                    instances=4, mean_duration=30.0),
    ):
        serving_ingest.append_entry(tmp_path, entry)

    def materialize():
        service = QueryService(
            empty_repository("cam0"), chunk_frames=600, frames_per_tick=16
        )
        cursor = serving_ingest.apply_journal(service, tmp_path, base_seed=7)
        assert cursor == 2
        return service

    a, b = materialize(), materialize()
    repo_a, repo_b = a.repository("cam0"), b.repository("cam0")
    assert repo_a.total_frames == repo_b.total_frames == 3900
    assert repo_a.num_clips == 3
    assert repo_a.instances.ids() == repo_b.instances.ids()
    assert [i.start_frame for i in repo_a.instances] == [
        i.start_frame for i in repo_b.instances
    ]
    assert sorted(repo_a.categories()) == ["bus", "truck"]

    # and queries over the two materializations decide identically
    sa = a.submit("cam0", "bus", limit=4, seed=1)
    sb = b.submit("cam0", "bus", limit=4, seed=1)
    a.run_until_idle()
    b.run_until_idle()
    assert a.sessions[sa].result_frames() == b.sessions[sb].result_frames()
