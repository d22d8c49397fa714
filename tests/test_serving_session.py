"""Tests for resumable serving sessions: lifecycle, snapshots, replay."""

import json

import numpy as np
import pytest

from repro.detection.cache import DetectionCache
from repro.serving.service import QueryService
from repro.serving.session import SessionSnapshot, SessionSpec, SessionState
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances


def make_repo(total_frames=20_000, per_category=25, seed=0):
    rng = np.random.default_rng(seed)
    buses = place_instances(
        per_category, total_frames, rng, mean_duration=120,
        skew_fraction=0.1, category="bus", with_boxes=False,
    )
    trucks = place_instances(
        per_category, total_frames, rng, mean_duration=120,
        skew_fraction=0.1, category="truck", with_boxes=False,
        start_id=per_category,
    )
    return single_clip_repository(total_frames, list(buses) + list(trucks))


def make_service(repo, cache=None, frames_per_tick=16, seed=0):
    return QueryService(
        repo,
        cache=cache,
        frames_per_tick=frames_per_tick,
        chunk_frames=repo.total_frames // 8,
        seed=seed,
    )


# ------------------------------------------------------------- spec checks

def test_spec_validation():
    with pytest.raises(ValueError):
        SessionSpec("d", "c", limit=0)
    with pytest.raises(ValueError):
        SessionSpec("d", "c", max_samples=-1)
    with pytest.raises(ValueError):
        SessionSpec("d", "c", priority=0.0)


# -------------------------------------------------------------- lifecycle

def test_pause_resume_cancel_transitions():
    service = make_service(make_repo())
    sid = service.submit("synthetic", "bus", limit=5, seed=3)
    assert service.status(sid).state == "active"
    service.pause(sid)
    assert service.status(sid).state == "paused"
    assert service.tick() == {}  # paused sessions receive no budget
    service.resume(sid)
    assert service.status(sid).state == "active"
    service.cancel(sid)
    assert service.status(sid).state == "cancelled"
    with pytest.raises(ValueError):
        service.resume(sid)
    with pytest.raises(ValueError):
        service.pause(sid)


def test_tick_respects_budget_limit_and_max_samples():
    service = make_service(make_repo(), frames_per_tick=5)
    sid = service.submit("synthetic", "bus", limit=3, seed=3)
    session = service.sessions[sid]
    assert service.tick() == {sid: 5}
    assert session.frames_processed == 5
    service.run_until_idle()
    assert session.state is SessionState.COMPLETED
    assert session.results_found >= 3
    # completed sessions receive no further work, without erroring
    assert service.tick() == {}
    # the session's own cap is honored exactly: batches of 4 against a
    # cap of 10 end on a final batch clamped to 2
    capped = service.submit(
        "synthetic", "bus", max_samples=10, batch_size=4, seed=3,
        warm_start=False,
    )
    service.run_until_idle()
    assert service.sessions[capped].state is SessionState.EXHAUSTED
    assert service.sessions[capped].frames_processed == 10


def test_max_samples_exhausts_session():
    service = make_service(make_repo())
    sid = service.submit("synthetic", "bus", limit=10_000, max_samples=20, seed=3)
    service.run_until_idle()
    status = service.status(sid)
    assert status.state == "exhausted"
    assert status.frames_processed == 20
    assert not status.satisfied


def test_thompson_draw_positive_and_zero_when_exhausted():
    repo = make_repo(total_frames=64)
    service = QueryService(repo, chunk_frames=16, frames_per_tick=64)
    sid = service.submit("synthetic", "bus", seed=1)
    session = service.sessions[sid]
    rng = np.random.default_rng(0)
    draw = session.thompson_draw(rng)
    assert np.isfinite(draw) and draw > 0.0
    service.run_until_idle()  # no limit: drains all 64 frames
    assert session.state is SessionState.EXHAUSTED
    assert sum(session.chunk_stats.n) == 64
    assert session.thompson_draw(rng) == 0.0


# ------------------------------------------------------ snapshot / restore

def test_snapshot_json_round_trip():
    service = make_service(make_repo())
    sid = service.submit("synthetic", "bus", limit=5, max_samples=500, seed=9,
                         priority=2.5)
    service.tick()
    snapshot = service.snapshot(sid)
    restored = SessionSnapshot.from_dict(json.loads(json.dumps(snapshot.to_dict())))
    assert restored == snapshot
    assert restored.spec == service.sessions[sid].spec


def test_pause_serialize_resume_matches_uninterrupted_run():
    """Acceptance: a session paused mid-run, serialized through the
    cache/state layer, restored, and resumed reaches the same result count
    as an uninterrupted run with the same seed."""
    repo = make_repo()

    # reference: uninterrupted run
    uninterrupted = make_service(repo, cache=DetectionCache(), seed=0)
    ref_sid = uninterrupted.submit("synthetic", "bus", limit=12, seed=7)
    uninterrupted.run_until_idle()
    reference = uninterrupted.status(ref_sid)
    assert reference.state == "completed"

    # interrupted: run a few ticks, pause, serialize, restore elsewhere
    first = make_service(repo, cache=DetectionCache(), seed=0)
    sid = first.submit("synthetic", "bus", limit=12, seed=7)
    for _ in range(3):
        first.tick()
    first.pause(sid)
    assert 0 < first.status(sid).frames_processed < reference.frames_processed
    blob = json.dumps(first.snapshot(sid).to_dict())  # the serialized form

    second = make_service(repo, cache=first.cache, seed=0)
    restored_sid = second.restore(SessionSnapshot.from_dict(json.loads(blob)))
    assert second.status(restored_sid).state == "paused"
    # replaying the snapshot cost no detector work: every frame was cached
    assert second.detector_calls == 0
    second.resume(restored_sid)
    second.run_until_idle()

    final = second.status(restored_sid)
    assert final.state == "completed"
    assert final.results_found == reference.results_found
    assert final.frames_processed == reference.frames_processed
    assert (
        second.sessions[restored_sid].result_frames()
        == uninterrupted.sessions[ref_sid].result_frames()
    )


def test_restore_is_exact_replay_of_live_state():
    repo = make_repo()
    service = make_service(repo, seed=0)
    sid = service.submit("synthetic", "truck", limit=25, seed=4)
    for _ in range(4):
        service.tick()
    live = service.sessions[sid]
    assert live.state is SessionState.ACTIVE  # mid-run: restore must replay

    clone_host = make_service(repo, cache=service.cache, seed=0)
    clone_sid = clone_host.restore(service.snapshot(sid))
    clone = clone_host.sessions[clone_sid]

    np.testing.assert_array_equal(live.chunk_stats.n1, clone.chunk_stats.n1)
    np.testing.assert_array_equal(live.chunk_stats.n, clone.chunk_stats.n)
    np.testing.assert_array_equal(
        live.history.frame_indices, clone.history.frame_indices
    )
    assert live.results_found == clone.results_found


def test_restore_refuses_duplicate_session_id():
    repo = make_repo()
    service = make_service(repo)
    sid = service.submit("synthetic", "bus", limit=3, seed=1)
    with pytest.raises(ValueError):
        service.restore(service.snapshot(sid))


def test_pending_snapshot_warm_starts_at_restore_time():
    """A submit-time snapshot (warm_start_frames=None) absorbs whatever the
    cache holds when a service finally loads it."""
    repo = make_repo()
    warmer = make_service(repo, cache=DetectionCache(), seed=0)
    warm_sid = warmer.submit("synthetic", "bus", limit=10, seed=2)
    warmer.run_until_idle()
    cached = len(warmer.cache.frames(repo.name))
    assert cached > 0

    pending = SessionSnapshot(
        session_id="s77", dataset=repo.name, category="truck", limit=5,
        max_samples=None, seed=6, priority=1.0, warm_start=True,
        state="active", steps_taken=0, warm_start_frames=None,
    )
    sid = warmer.restore(pending)
    assert warmer.status(sid).warm_frames_replayed == cached
