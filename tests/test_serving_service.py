"""End-to-end tests for the QueryService facade."""

import numpy as np
import pytest

from repro.detection.cache import DetectionCache, SqliteBackend
from repro.serving import (
    PriorityScheduler,
    QueryService,
    RoundRobinScheduler,
    ThompsonSumScheduler,
)
from repro.serving import state as serving_state
from repro.serving.session import SessionSnapshot, StateError
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
        skew_fraction=0.15, category="truck", with_boxes=False,
        start_id=per_category,
    )
    return single_clip_repository(total_frames, list(buses) + list(trucks))


def make_service(repo, **kwargs):
    kwargs.setdefault("chunk_frames", repo.total_frames // 8)
    kwargs.setdefault("frames_per_tick", 16)
    return QueryService(repo, **kwargs)


# -------------------------------------------------------------- validation

def test_submit_validates_dataset_and_category():
    service = make_service(make_repo())
    with pytest.raises(KeyError):
        service.submit("atlantis", "bus", limit=5)
    with pytest.raises(ValueError):
        service.submit("synthetic", "zeppelin", limit=5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        QueryService(make_repo(), frames_per_tick=0)
    # no repositories is legal (sealed-only restores); submitting is not
    empty = QueryService({})
    assert empty.tick() == {}
    with pytest.raises(KeyError):
        empty.submit("synthetic", "bus", limit=1)


def test_unknown_session_raises():
    service = make_service(make_repo())
    with pytest.raises(KeyError):
        service.status("s99")


# ------------------------------------------------------------- scheduling

def test_tick_respects_global_budget():
    service = make_service(make_repo(), frames_per_tick=10)
    service.submit("synthetic", "bus", limit=50, seed=1)
    service.submit("synthetic", "truck", limit=50, seed=2)
    processed = service.tick()
    assert sum(processed.values()) <= 10
    assert service.ticks == 1


def test_run_until_idle_completes_all_sessions():
    service = make_service(make_repo())
    s1 = service.submit("synthetic", "bus", limit=10, seed=1)
    s2 = service.submit("synthetic", "truck", limit=10, seed=2)
    ticks = service.run_until_idle()
    assert ticks > 0
    for sid in (s1, s2):
        status = service.status(sid)
        assert status.state == "completed"
        assert status.results_found >= 10
    assert service.tick() == {}  # idle service is a no-op


def test_run_until_idle_max_ticks_cap():
    service = make_service(make_repo(), frames_per_tick=4)
    service.submit("synthetic", "bus", limit=10_000, seed=1)
    assert service.run_until_idle(max_ticks=3) == 3


@pytest.mark.parametrize(
    "scheduler",
    [RoundRobinScheduler(), PriorityScheduler(), ThompsonSumScheduler()],
    ids=["round-robin", "priority", "thompson"],
)
def test_all_schedulers_serve_to_completion(scheduler):
    service = make_service(make_repo(), scheduler=scheduler)
    s1 = service.submit("synthetic", "bus", limit=8, seed=1, priority=2.0)
    s2 = service.submit("synthetic", "truck", limit=8, seed=2)
    service.run_until_idle()
    assert service.status(s1).satisfied
    assert service.status(s2).satisfied


# ------------------------------------------------- shared-cache acceptance

def test_overlapping_queries_issue_fewer_detector_calls_than_back_to_back():
    """Acceptance: two overlapping queries on a shared cache issue strictly
    fewer detector calls than the same queries back-to-back, while each
    still satisfies its own limit."""
    repo = make_repo()
    limit = 12

    # back-to-back: each query gets a fresh service and a fresh cache
    serial_calls = 0
    for category, seed in (("bus", 7), ("truck", 8)):
        solo = make_service(repo, cache=DetectionCache())
        sid = solo.submit("synthetic", category, limit=limit, seed=seed)
        solo.run_until_idle()
        assert solo.status(sid).satisfied
        serial_calls += solo.detector_calls

    # overlapping: same queries, same seeds, one shared cache; the second
    # arrives mid-flight and warm-starts from the first's frames
    shared = make_service(repo, cache=DetectionCache())
    s1 = shared.submit("synthetic", "bus", limit=limit, seed=7)
    for _ in range(3):
        shared.tick()
    s2 = shared.submit("synthetic", "truck", limit=limit, seed=8)
    shared.run_until_idle()

    for sid in (s1, s2):
        status = shared.status(sid)
        assert status.satisfied, f"{sid} did not reach its limit"
        assert status.results_found >= limit
    assert shared.detector_calls < serial_calls


def test_warm_start_absorbs_entire_cache():
    repo = make_repo()
    service = make_service(repo)
    first = service.submit("synthetic", "bus", limit=10, seed=1)
    service.run_until_idle()
    cached = len(service.cache.frames(repo.name))

    second = service.submit("synthetic", "truck", limit=5, seed=2)
    assert service.status(second).warm_frames_replayed == cached
    assert service.status(first).warm_frames_replayed == 0


def test_warm_start_can_complete_a_query_with_zero_detector_calls():
    repo = make_repo()
    service = make_service(repo)
    service.submit("synthetic", "bus", limit=20, seed=1)
    service.run_until_idle()
    calls_before = service.detector_calls

    # same category again: everything needed is already cached
    encore = service.submit("synthetic", "bus", limit=5, seed=9)
    status = service.status(encore)
    assert status.state == "completed"
    assert status.frames_processed == 0
    assert service.detector_calls == calls_before


def test_no_warm_start_opt_out():
    repo = make_repo()
    service = make_service(repo)
    service.submit("synthetic", "bus", limit=10, seed=1)
    service.run_until_idle()
    cold = service.submit("synthetic", "bus", limit=5, seed=9, warm_start=False)
    assert service.status(cold).warm_frames_replayed == 0
    assert service.status(cold).state == "active"


def test_cache_shared_across_datasets_is_namespaced():
    repo_a = make_repo(seed=0)
    repo_b_frames = 10_000
    rng = np.random.default_rng(1)
    repo_b = single_clip_repository(
        repo_b_frames,
        place_instances(10, repo_b_frames, rng, mean_duration=100,
                        category="bus", with_boxes=False),
        name="other",
    )
    service = QueryService(
        {"synthetic": repo_a, "other": repo_b},
        chunk_frames={"synthetic": 2500, "other": 1250},
        frames_per_tick=16,
    )
    service.submit("synthetic", "bus", limit=5, seed=1)
    service.run_until_idle()
    # a session on the other dataset must not absorb synthetic's frames
    sid = service.submit("other", "bus", limit=3, seed=2)
    assert service.status(sid).warm_frames_replayed == 0


# --------------------------------------------------------- state directory

def test_state_dir_round_trip(tmp_path):
    repo = make_repo()
    cache_path = tmp_path / serving_state.CACHE_FILENAME

    first = make_service(repo, cache=DetectionCache(SqliteBackend(cache_path)))
    sid = first.submit("synthetic", "bus", limit=15, seed=5)
    for _ in range(4):
        first.tick()
    mid = first.status(sid)
    serving_state.save_sessions(first, tmp_path)
    first.cache.close()

    second = make_service(repo, cache=DetectionCache(SqliteBackend(cache_path)))
    snapshots = serving_state.load_snapshots(tmp_path)
    assert [s.session_id for s in snapshots] == [sid]
    restored = second.restore(snapshots[0])
    assert second.status(restored).frames_processed == mid.frames_processed
    assert second.detector_calls == 0  # restore replayed from the cache
    second.run_until_idle()
    assert second.status(restored).satisfied
    second.cache.close()


def test_next_session_id_scans_existing(tmp_path):
    assert serving_state.next_session_id(tmp_path) == "s1"
    repo = make_repo()
    service = make_service(repo)
    service.submit("synthetic", "bus", limit=3, seed=1)
    serving_state.save_sessions(service, tmp_path)
    assert serving_state.next_session_id(tmp_path) == "s2"


def test_terminal_sessions_restore_sealed():
    """A completed session restores from its snapshot alone — no engine
    replay, no cache reads, identical status and results."""
    repo = make_repo()
    donor = make_service(repo)
    sid = donor.submit("synthetic", "bus", limit=10, seed=5)
    donor.run_until_idle()
    done = donor.status(sid)
    assert done.state == "completed"

    # repo-less service with an *empty* cache: sealed restores need
    # neither a repository nor the cached frames
    host = QueryService({}, cache=DetectionCache())
    restored = host.restore(donor.snapshot(sid))
    assert host.detector_calls == 0
    assert host.cache.stats.lookups == 0
    assert host.status(restored) == done
    assert host.sessions[restored].history is None
    assert (
        host.results(restored)["result_frames"]
        == donor.results(sid)["result_frames"]
    )
    assert host.tick() == {}  # sealed sessions are never scheduled


def test_a_replay_that_turns_terminal_early_fails_loudly():
    """A snapshot whose replay reaches its limit before its step count
    (here: a live session's snapshot with its limit cut to 1) seals on
    the way; the replay stops there and the result check still names the
    session, instead of replaying a sealed session's engine."""
    repo = make_repo()
    donor = make_service(repo)
    sid = donor.submit("synthetic", "bus", limit=25, seed=5, warm_start=False)
    while donor.status(sid).results_found < 2:
        donor.tick()
    snapshot = donor.snapshot(sid)
    assert snapshot.state == "active" and len(snapshot.result_frames) >= 2
    tampered = SessionSnapshot.from_dict(dict(snapshot.to_dict(), limit=1))
    host = make_service(repo, cache=donor.cache)
    with pytest.raises(StateError, match=sid):
        host.restore(tampered)
    assert sid not in host.sessions


def test_restored_ids_do_not_collide_with_fresh_submissions():
    repo = make_repo()
    donor = make_service(repo)
    donor.submit("synthetic", "bus", limit=3, seed=1)
    donor.submit("synthetic", "truck", limit=3, seed=2)
    snap = donor.snapshot("s2")

    target = make_service(repo, cache=donor.cache)
    target.restore(snap)
    fresh = target.submit("synthetic", "bus", limit=3, seed=3)
    assert fresh == "s3"
