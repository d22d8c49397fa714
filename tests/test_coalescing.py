"""Tests for batched engines and the serving layer's coalesced tick.

The contract under test everywhere: execution structure — plan/commit
splitting, §III-F batches, worker pools, cross-session coalescing — must
be invisible to every query's answer.  Only wall-clock and detector-call
accounting may change.
"""

import numpy as np
import pytest
from contracts import CountingDetector, fingerprint, stationary_instance

from repro.core.chunking import even_count_chunks
from repro.core.multiquery import MultiQueryExSample
from repro.core.sampler import ExSample
from repro.detection.cache import DetectionCache
from repro.detection.detector import OracleDetector, SimulatedDetector
from repro.serving import QueryService
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import empty_repository, single_clip_repository
from repro.video.synthetic import place_instances

TOTAL_FRAMES = 16_000


def make_repo(seed=0):
    rng = np.random.default_rng(seed)
    buses = place_instances(
        25, TOTAL_FRAMES, rng, mean_duration=120,
        skew_fraction=0.15, category="bus", with_boxes=False,
    )
    trucks = place_instances(
        25, TOTAL_FRAMES, rng, mean_duration=120,
        skew_fraction=0.1, category="truck", with_boxes=False, start_id=25,
    )
    return single_clip_repository(TOTAL_FRAMES, list(buses) + list(trucks))


def make_sampler(repo, seed=11, batch_size=1, detector=None):
    rng = np.random.default_rng(seed)
    chunks = even_count_chunks(repo.total_frames, 8, rng)
    if detector is None:
        detector = SimulatedDetector(repo, seed=seed)
    return ExSample(
        chunks, detector, OracleDiscriminator(), rng=rng, batch_size=batch_size
    )


# ------------------------------------------------- ExSample plan / commit

@pytest.mark.parametrize("batch_size", [1, 4])
def test_plan_commit_equals_step(batch_size):
    repo = make_repo()
    stepped = make_sampler(repo, batch_size=batch_size)
    planned = make_sampler(repo, batch_size=batch_size)
    for _ in range(30):
        stepped.step()
        planned.commit(planned.plan())
    np.testing.assert_array_equal(
        stepped.history.frame_indices, planned.history.frame_indices
    )
    np.testing.assert_array_equal(stepped.history.results, planned.history.results)
    np.testing.assert_array_equal(stepped.stats.n1, planned.stats.n1)
    np.testing.assert_array_equal(stepped.stats.n, planned.stats.n)


def test_commit_with_supplied_detections_matches_detector_path():
    """The coalesced path (detections handed in) must equal the engine
    running its own detector — the serving layer's core equivalence."""
    repo = make_repo()
    own = make_sampler(repo, batch_size=3)
    fed = make_sampler(repo, batch_size=3)
    oracle = SimulatedDetector(repo, seed=11)  # same detections, external call
    for _ in range(25):
        own.step()
        pending = fed.plan()
        supplied = {frame: oracle.detect(frame) for _, frame in pending}
        fed.commit(pending, detections=supplied)
    np.testing.assert_array_equal(own.history.frame_indices, fed.history.frame_indices)
    np.testing.assert_array_equal(own.history.results, fed.history.results)
    assert own.results_found == fed.results_found


def test_steps_honors_max_samples_exactly_with_batches():
    repo = make_repo()
    sampler = make_sampler(repo, batch_size=8)
    for _ in sampler.steps(max_samples=10):
        pass
    assert sampler.frames_processed == 10  # final batch shrank to 2


def test_recall_query_honors_max_samples_exactly_with_batches():
    from repro.core.query import DistinctObjectQuery, QueryEngine

    repo = make_repo()
    engine = QueryEngine(
        repo, category="bus", chunk_frames=repo.total_frames // 8, batch_size=8
    )
    result = engine.execute(
        DistinctObjectQuery("bus", recall_target=0.99, max_samples=50)
    )
    assert result.frames_processed == 50  # not 56


def test_plan_raises_when_exhausted():
    repo = make_repo()
    sampler = make_sampler(repo, batch_size=64)
    while not sampler.exhausted:
        sampler.step()
    with pytest.raises(RuntimeError):
        sampler.plan()


# ------------------------------------------------- MultiQueryExSample batch

def make_multi(repo, limits, seed=0, batch_size=1):
    rng = np.random.default_rng(seed)
    chunks = even_count_chunks(repo.total_frames, 8, rng)
    return MultiQueryExSample(
        chunks,
        OracleDetector(repo),
        limits,
        lambda category: OracleDiscriminator(),
        rng=rng,
        batch_size=batch_size,
    )


def test_multiquery_batch_validation():
    repo = make_repo()
    with pytest.raises(ValueError):
        make_multi(repo, {"bus": 5}, batch_size=0)


def test_multiquery_batched_loop_satisfies_limits():
    repo = make_repo()
    engine = make_multi(repo, {"bus": 10, "truck": 10}, seed=3, batch_size=8)
    engine.run(max_samples=repo.total_frames)
    assert engine.all_satisfied
    for state in engine.queries.values():
        assert state.results_found >= 10
        assert len(state.history) > 0


def test_multiquery_run_honors_max_samples_exactly_with_batches():
    repo = make_repo()
    engine = make_multi(repo, {"bus": 500, "truck": 500}, seed=7, batch_size=8)
    engine.run(max_samples=20)
    assert engine.frames_processed == 20  # final batch shrank to 4


def test_multiquery_step_batch_returns_all_frames():
    repo = make_repo()
    engine = make_multi(repo, {"bus": 50}, seed=5, batch_size=4)
    frames = engine.step_batch()
    assert len(frames) == 4
    assert engine.frames_processed == 4
    # step() keeps its scalar contract: one more iteration, last frame back
    last = engine.step()
    assert isinstance(last, int)
    assert engine.frames_processed == 8


# ---------------------------------------------------- service coalescing

def test_tick_coalesces_sessions_into_one_batched_call():
    repo = make_repo()
    recorder = {}

    def factory(r):
        recorder["detector"] = CountingDetector(OracleDetector(r))
        return recorder["detector"]

    service = QueryService(
        repo,
        chunk_frames=repo.total_frames // 8,
        frames_per_tick=16,
        batch_size=4,
        detector_factory=factory,
    )
    service.submit("synthetic", "bus", limit=8, seed=1)
    service.submit("synthetic", "truck", limit=8, seed=2)
    service.tick()
    # each round, both sessions' 4-frame plans coalesce into one call of
    # (up to) 8 frames on the shared detector
    assert recorder["detector"].batches, "no batched detector call was issued"
    assert max(recorder["detector"].batches) > 4


def test_tick_deduplicates_identical_frame_requests():
    """Two sessions with the same seed plan identical frames every round;
    coalescing must collapse them to one detector request — not even a
    cache hit is paid for the duplicate."""
    repo = make_repo()
    service = QueryService(
        repo,
        cache=DetectionCache(),
        chunk_frames=repo.total_frames // 8,
        frames_per_tick=16,
    )
    s1 = service.submit("synthetic", "bus", limit=10, seed=42, warm_start=False)
    s2 = service.submit("synthetic", "bus", limit=10, seed=42, warm_start=False)
    service.run_until_idle()
    st1, st2 = service.status(s1), service.status(s2)
    assert st1.satisfied and st2.satisfied
    assert st1.frames_processed == st2.frames_processed
    # every frame the twins requested was detected exactly once, in the
    # same coalesced batch — the duplicate never reached the cache at all
    assert service.detector_calls == st1.frames_processed
    assert service.cache.stats.hits == 0


def test_tick_overshoot_is_charged_against_future_ticks():
    """A batched session commits whole batches, so one tick can overshoot
    its share — but the deficit carries, keeping the long-run rate at
    frames_per_tick."""
    repo = make_repo()
    service = QueryService(
        repo,
        chunk_frames=repo.total_frames // 8,
        frames_per_tick=4,
        batch_size=8,
    )
    service.submit("synthetic", "bus", limit=10_000, seed=1, warm_start=False)
    service.submit("synthetic", "truck", limit=10_000, seed=2, warm_start=False)
    totals = []
    for _ in range(8):
        totals.append(sum(service.tick().values()))
    # first tick: both sessions commit a full 8-frame batch (16 > 4), then
    # the deficit throttles later ticks; the cumulative average converges
    assert totals[0] == 16
    assert sum(totals) <= 4 * 8 + 2 * 7  # budget + at most one batch-1 each
    # sustained rate within one batch of the configured quantum
    assert sum(totals) >= 4 * 8


def test_serving_honors_session_max_samples_exactly_with_batches():
    repo = make_repo()
    service = QueryService(
        repo, chunk_frames=repo.total_frames // 8,
        frames_per_tick=16, batch_size=8,
    )
    sid = service.submit(
        "synthetic", "bus", limit=10_000, max_samples=10, seed=1, warm_start=False
    )
    service.run_until_idle()
    status = service.status(sid)
    assert status.state == "exhausted"
    assert status.frames_processed == 10  # clamped final batch, not 16

    # and the restore replays the clamped batch structure exactly
    host = QueryService(
        repo, cache=service.cache, chunk_frames=repo.total_frames // 8,
        frames_per_tick=16,
    )
    snapshot = service.snapshot(sid)
    host.restore(snapshot)
    assert host.status(sid).frames_processed == 10
    assert host.results(sid) == service.results(sid)


def test_paused_session_keeps_its_budget_deficit():
    repo = make_repo()
    service = QueryService(
        repo, chunk_frames=repo.total_frames // 8,
        frames_per_tick=4, batch_size=8,
    )
    sid = service.submit("synthetic", "bus", limit=10_000, seed=1, warm_start=False)
    service.tick()  # commits a full 8-frame batch against a 4-frame share
    assert service.status(sid).frames_processed == 8
    service.pause(sid)
    service.tick()  # idle: the paused session must not shed its debt
    service.resume(sid)
    service.tick()  # share 4 - debt 4 = 0: throttled, no frames
    assert service.status(sid).frames_processed == 8
    service.tick()  # debt paid; a fresh share buys the next batch
    assert service.status(sid).frames_processed == 16


def test_detector_failure_mid_tick_loses_only_the_tick_in_flight():
    repo = make_repo()
    plain = QueryService(
        repo, chunk_frames=repo.total_frames // 8, frames_per_tick=8, batch_size=4,
    )
    flaky = QueryService(
        repo, chunk_frames=repo.total_frames // 8, frames_per_tick=8, batch_size=4,
        detector_factory=lambda r: CountingDetector(OracleDetector(r), fail_on={1}),
    )
    ref = plain.submit("synthetic", "bus", limit=10, seed=5, warm_start=False)
    sid = flaky.submit("synthetic", "bus", limit=10, seed=5, warm_start=False)

    with pytest.raises(RuntimeError):
        flaky.tick()  # the planned batch is stashed, not lost
    assert flaky.status(sid).frames_processed == 0
    # the aborted quantum credits no share, so no debt is forgiven
    assert flaky._deficits == {}

    plain.run_until_idle()
    flaky.run_until_idle()  # recovered: re-offers the stashed plan first
    assert flaky.results(sid) == plain.results(ref)


def test_detector_failure_does_not_erase_carried_deficit():
    """Debt carried into a tick must survive that tick failing."""
    repo = make_repo()
    service = QueryService(
        repo, chunk_frames=repo.total_frames // 8, frames_per_tick=6, batch_size=8,
        detector_factory=lambda r: CountingDetector(OracleDetector(r)),
    )
    sid = service.submit("synthetic", "bus", limit=10_000, seed=3, warm_start=False)
    detector = service._shared_detector("synthetic").wrapped
    service.tick()  # full 8-frame batch against a 6-frame share -> debt 2
    assert service._deficits[sid] == 2
    detector.fail_on = {len(detector.batches) + 1}
    with pytest.raises(RuntimeError):
        service.tick()  # remaining 6-2=4 > 0, so the detector is hit
    assert service._deficits[sid] == 2  # debt intact, nothing forgiven
    assert service.status(sid).frames_processed == 8
    service.tick()  # recovered: re-offers the stashed batch
    assert service.status(sid).frames_processed == 16
    assert service._deficits[sid] == 2 + 8 - 6  # committed work charged


def test_failed_final_batch_is_not_dropped_on_exhaustion():
    """If planning the last batch drains the chunks and its detector call
    then fails, the session must stay schedulable and commit the stashed
    batch on recovery — identical answer to a failure-free run."""
    rng = np.random.default_rng(0)
    instances = place_instances(
        3, 8, rng, mean_duration=4, skew_fraction=0.2,
        category="bus", with_boxes=False,
    )
    tiny = single_clip_repository(8, instances)  # one batch drains it

    def run(failures):
        service = QueryService(
            tiny, chunk_frames=4, frames_per_tick=8, batch_size=8,
            detector_factory=lambda r: CountingDetector(OracleDetector(r), fail_on=failures),
        )
        sid = service.submit(tiny.name, "bus", limit=10_000, seed=2, warm_start=False)
        if failures:
            with pytest.raises(RuntimeError):
                service.tick()
            assert service.status(sid).state == "active"  # not EXHAUSTED yet
        service.run_until_idle()
        status = service.status(sid)
        assert status.state == "exhausted"
        assert status.frames_processed == 8  # every frame committed
        return service.results(sid)

    assert run(failures={1}) == run(failures=())


def test_a_parked_batch_defers_absorption_until_it_commits():
    """Footage that lands while a failed tick's batch is parked is
    absorbed only after that batch commits, between whole batches: the
    batch was planned over the old chunk set, and absorbing under it
    would leave a stream its own snapshot cannot replay."""
    repo = empty_repository("live")
    repo.append_clip(120, [stationary_instance(0, 10, 20, "car")])

    def service():
        return QueryService(
            repo, chunk_frames=40, frames_per_tick=4, batch_size=4, seed=9,
            detector_factory=lambda r: CountingDetector(OracleDetector(r)),
        )

    flaky = service()
    sid = flaky.submit("live", "car", follow=True, max_samples=400, warm_start=False)
    flaky.tick()
    detector = flaky._shared_detector("live").wrapped
    detector.fail_on = {len(detector.batches) + 1}
    with pytest.raises(RuntimeError):
        flaky.tick()
    session = flaky.sessions[sid]
    assert session._pending and session.frames_processed == 4
    # footage lands out of band (another process appended the clip)
    repo.append_clip(80, [stationary_instance(1, 150, 20, "car")])
    assert flaky.sync() == {}
    flaky.tick()  # the parked batch commits over the old chunk set
    assert session.frames_processed == 8 and session.horizon == 120
    flaky.tick()  # and the next sync absorbs
    assert session.horizon_log == [(0, 120), (8, 200)]
    flaky.run_until_idle(max_ticks=10)
    restored = service()
    restored.restore(flaky.snapshot(sid))
    assert fingerprint(restored, [sid]) == fingerprint(flaky, [sid])


def test_detector_latency_does_not_change_any_session_answer():
    repo = make_repo()

    def run(latency):
        service = QueryService(
            repo,
            cache=DetectionCache(),
            chunk_frames=repo.total_frames // 8,
            frames_per_tick=16,
            batch_size=4,
            detector_latency=latency,
        )
        a = service.submit("synthetic", "bus", limit=10, seed=1)
        b = service.submit("synthetic", "truck", limit=10, seed=2)
        service.run_until_idle()
        return [service.results(sid) for sid in (a, b)]

    assert run(0.0) == run(0.0002)


def test_batched_session_snapshot_restores_exactly():
    repo = make_repo()
    cache = DetectionCache()
    donor = QueryService(
        repo, cache=cache, chunk_frames=repo.total_frames // 8,
        frames_per_tick=12, batch_size=3,
    )
    sid = donor.submit("synthetic", "bus", limit=20, seed=6)
    for _ in range(3):
        donor.tick()
    snapshot = donor.snapshot(sid)
    assert snapshot.batch_size == 3
    mid = donor.status(sid)

    host = QueryService(
        repo, cache=cache, chunk_frames=repo.total_frames // 8,
        frames_per_tick=12,  # note: *no* batch_size — the spec carries it
    )
    restored = host.restore(snapshot)
    assert host.status(restored).frames_processed == mid.frames_processed
    assert host.status(restored).results_found == mid.results_found
    assert host.detector_calls == 0  # replayed purely from the cache

    donor.run_until_idle()
    host.run_until_idle()
    assert host.results(restored) == donor.results(sid)
