"""Balanced dispatch: keeping the shard workers busy, answer-invisibly.

* **The even split** — a batch is deduplicated and dealt to the workers
  in contiguous slices whose sizes differ by at most one, from a cursor
  that keeps rotating, so a batch the sampler concentrated on one clip
  still occupies the whole fleet.
* **Staggered sessions** — sessions admitted a tick apart under a budget
  of one batch per tick, so most ticks leave most sessions out of the
  round: paused, cancelled, snapshotted and restored, or drained by
  SIGTERM, a sharded session still ends where its local twin does.
"""

import json
import pathlib
import time

import pytest
from contracts import (
    MATRIX_CLIPS,
    assert_same_decisions,
    fingerprint,
    matrix_world,
    parity_service,
    stationary_instance,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.detection.detector import OracleDetector
from repro.distributed.coordinator import ShardCoordinator
from repro.distributed.worker import ShardWorker
from repro.serving.scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    ThompsonSumScheduler,
)
from repro.serving.service import QueryService
from repro.simulation.oracle import reference_check, reference_run
from repro.telemetry.registry import parse_series_key
from repro.video.repository import empty_repository

HORIZON = sum(MATRIX_CLIPS)
SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "priority": PriorityScheduler,
    "thompson-sum": ThompsonSumScheduler,
}


@pytest.fixture(autouse=True)
def _clean_global_pipeline():
    telemetry.disable()
    yield
    telemetry.disable()


def _repository(seed=0):
    """The matrix world plus one person, so three categories share it."""
    return matrix_world(seed, stationary_instance(6, 150 + (23 * seed) % 90, 26, "person"))


# ------------------------------------------------------------ the even split

class _Loopback:
    """``WorkerHandle``'s surface over an in-process ``ShardWorker``: the
    dealing can be checked over hundreds of batches without a process."""

    alive = True

    def __init__(self, spec, repository, log):
        self.spec = spec
        self.clips_shipped = repository.num_clips
        self._worker = ShardWorker(spec, repository)
        self._replies = []
        self._log = log

    def send(self, message):
        if message[0] == "detect":
            self._log.append((self.spec.shard_id, list(message[2]["frames"])))
        self._replies.append(self._worker.handle(message))

    def recv(self):
        return self._replies.pop(0)

    def close(self):
        pass


class _LoopbackCoordinator(ShardCoordinator):
    def __init__(self, repository, num_shards):
        super().__init__(repository, num_shards)
        self.log = []  # (shard, frames) per detect request, in send order

    def _spawn(self, shard_id):
        handle = _Loopback(self._worker_spec(shard_id), self._repository, self.log)
        self._handles[shard_id] = handle
        return handle


batches = st.lists(
    st.lists(st.integers(0, HORIZON - 1), min_size=0, max_size=24),
    min_size=1, max_size=6,
)


@settings(deadline=None)
@given(batches=batches, num_shards=st.integers(1, 8))
def test_every_distinct_frame_is_sent_once_in_even_slices(batches, num_shards):
    repo = _repository()
    raw = OracleDetector(repo)
    logs = []
    for _rebuild in range(2):  # a rebuilt coordinator deals identically
        coordinator = _LoopbackCoordinator(repo, num_shards)
        dealt = [0] * num_shards
        for frames in batches:
            before = len(coordinator.log)
            assert coordinator.detect_many(frames) == [raw.detect(f) for f in frames]
            slices = coordinator.log[before:]
            distinct = list(dict.fromkeys(frames))
            # every distinct frame exactly once, slices contiguous in
            # first-seen order, one slice per shard at most
            assert [f for _shard, part in slices for f in part] == distinct
            assert len({shard for shard, _part in slices}) == len(slices)
            assert len(slices) == min(num_shards, len(distinct))
            sizes = [len(part) for _shard, part in slices]
            assert not sizes or max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)
            for shard, part in slices:
                dealt[shard] += len(part)
            # the cursor carries the deal on: the fleet's running totals
            # never drift more than one frame apart
            assert max(dealt) - min(dealt) <= 1
        assert coordinator.stats.frames_processed == sum(len(b) for b in batches)
        logs.append(coordinator.log)
    assert logs[0] == logs[1]


@pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 8])
def test_slice_sizes_and_rotation(num_shards):
    coordinator = _LoopbackCoordinator(_repository(), num_shards)
    frames = list(range(0, 110, 10))  # 11 distinct frames
    coordinator.detect_many(frames)
    size, larger = divmod(11, num_shards)
    want = [size + 1] * larger + [size] * (num_shards - larger)
    assert [len(part) for _s, part in coordinator.log] == [n for n in want if n]
    assert [s for s, _part in coordinator.log] == list(range(min(num_shards, 11)))
    # batch-size-1 traffic walks the whole fleet from where the deal stopped
    coordinator.log.clear()
    for frame in range(200, 200 + num_shards):
        coordinator.detect(frame)
    first = 11 % num_shards
    assert [s for s, _part in coordinator.log] == [
        (first + k) % num_shards for k in range(num_shards)
    ]


@pytest.mark.parametrize("num_shards", [2, 4])
def test_a_one_clip_batch_occupies_the_whole_fleet(num_shards):
    """The sampler concentrates its batch on a hot clip; under ownership
    routing that pinned the batch to one worker.  Now every worker takes
    an equal share and the batch's wall clock shrinks with the fleet."""
    repo = _repository()
    latency = 0.003
    hot_clip = list(range(160, 160 + 32))  # all inside clip c2
    rest = list(range(200, 232))

    def wall(shards):
        with ShardCoordinator(repo, shards, latency=latency) as coordinator:
            coordinator.warm_up()
            best = float("inf")
            for frames in (hot_clip, rest):
                start = time.perf_counter()
                coordinator.detect_many(frames)
                best = min(best, time.perf_counter() - start)
            stats = coordinator.worker_stats()
            return best, [stats[s]["served"] for s in sorted(stats)]

    one_shard, _ = wall(1)
    fleet, served = wall(num_shards)
    assert served == [64 // num_shards] * num_shards
    assert one_shard >= 32 * latency
    if num_shards == 4:
        assert fleet < 0.5 * one_shard, (fleet, one_shard)
    else:
        assert fleet < 0.75 * one_shard, (fleet, one_shard)


def test_a_worker_killed_in_flight_is_drained_and_reissued(monkeypatch):
    repo = _repository()
    raw = OracleDetector(repo)
    frames = [5, 145, 310, 25, 200, 330]
    with ShardCoordinator(repo, 3, latency=0.002) as coordinator:
        coordinator.warm_up()
        killed = []
        collect = coordinator._collect

        def kill_then_collect(in_flight, obs):  # every slice is out
            killed.append(coordinator.kill_worker(1))
            return collect(in_flight, obs)

        monkeypatch.setattr(coordinator, "_collect", kill_then_collect)
        got = coordinator.detect_many(frames)
        monkeypatch.undo()
        assert killed == [True]
        assert got == [raw.detect(f) for f in frames]
        assert coordinator.restarts == 1
        assert coordinator.workers_alive() == [0, 1, 2]
        # nobody's reply was abandoned: every wire stream is still in step
        assert coordinator.detect_many(frames[::-1]) == [
            raw.detect(f) for f in frames[::-1]
        ]
        stats = coordinator.worker_stats()
        assert stats[0]["served"] == 4 and stats[2]["served"] == 4
        assert stats[1]["served"] == 4  # the respawn re-served the lost slice


# ----------------------------------------------------------- replica syncing

def test_append_payload_is_built_once_per_clip_for_the_whole_fleet(monkeypatch):
    """Follow mode: every appended clip reaches every live replica, and
    the filter over the repository's instances runs once per clip — not
    once per clip per worker."""
    built = []
    original = ShardCoordinator._append_payload

    def counting(self, clip):
        built.append(clip.clip_id)
        return original(self, clip)

    monkeypatch.setattr(ShardCoordinator, "_append_payload", counting)
    repo = empty_repository("live")
    service = QueryService(
        repo, execution="sharded", shards=4, frames_per_tick=8, batch_size=4, seed=3
    )
    try:
        sid = service.submit("live", "car", follow=True, max_samples=60)
        service.feed("live", 60, [stationary_instance(0, 10, 20, "car")])
        service.run_until_idle(max_ticks=3)  # all four workers are up
        coordinator = service.shard_backend("live")
        assert coordinator.workers_alive() == [0, 1, 2, 3]
        assert built == []  # spawned replicas start caught up
        clips = 5
        for k in range(clips):
            start = repo.horizon
            service.feed("live", 40, [stationary_instance(10 + k, start + 5, 12, "car")])
            service.tick()
        service.run_until_idle(max_ticks=40)
        assert built == list(range(1, clips + 1))
        stats = coordinator.worker_stats()
        assert sorted(stats) == [0, 1, 2, 3]
        assert {s["clips"] for s in stats.values()} == {repo.num_clips}
        assert {s["horizon"] for s in stats.values()} == {repo.horizon}
        assert service.status(sid).frames_processed == 60
    finally:
        service.close()


# ------------------------------------------------------- staggered-session parity

def _service(seed, scheduler, execution, shards):
    # one batch per tick: most of the time most sessions are out of budget
    return parity_service(
        _repository(seed), seed, execution, shards,
        scheduler=SCHEDULERS[scheduler](), frames_per_tick=4, batch_size=4,
        detector_latency=0.0005 if execution == "sharded" else 0.0,
    )


def _submit_three(service):
    """Three sessions admitted a tick apart: sessions that start together
    under round-robin stay in lockstep (all in the round or none)."""
    first = service.submit("cam0", "bus", limit=3, max_samples=48, priority=2.0,
                           warm_start=False)
    service.tick()
    second = service.submit("cam0", "car", max_samples=36, warm_start=False)
    service.tick()
    third = service.submit("cam0", "person", max_samples=28, warm_start=False)
    return [first, second, third]


def _run(seed, scheduler, execution, shards):
    service = _service(seed, scheduler, execution, shards)
    try:
        sids = _submit_three(service)
        service.run_until_idle(max_ticks=80)
        return fingerprint(service, sids)
    finally:
        service.close()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_planned_ahead_sessions_match_their_local_twin(seed, scheduler):
    reference = json.loads(assert_same_decisions(
        lambda leg: _run(seed, scheduler, *leg), ("local", 1), ("sharded", 2), ("sharded", 4),
    ))
    assert all(len(s["sampled_frames"]) >= 12 for s in reference.values())


def _oracle_check(service, sid, seed):
    session = service.sessions[sid]
    hist = session.history
    logged = [
        (int(hist.frame_indices[i]), int(hist.d0_counts[i]), int(hist.results[i]))
        for i in range(len(hist))
    ]
    reference_check(
        seed, service.snapshot(sid), logged, _repository(seed),
        lambda repo: OracleDetector(repo), 50,
    )
    return logged


def test_a_paused_planned_ahead_session_keeps_its_stream():
    seed = 4

    def run(leg):
        if leg == "local":
            return _run(seed, "round-robin", "local", 1)
        service = _service(seed, "round-robin", "sharded", 2)
        try:
            sids = _submit_three(service)
            service.tick()
            victim = sids[1]
            committed = service.status(victim).frames_processed
            service.pause(victim)
            for _ in range(4):
                service.tick()
            # paused: never scheduled, never planned
            assert service.status(victim).frames_processed == committed
            assert not service.sessions[victim]._pending
            service.resume(victim)
            service.run_until_idle(max_ticks=80)
            for sid in sids:
                _oracle_check(service, sid, seed)
            return fingerprint(service, sids)
        finally:
            service.close()

    assert_same_decisions(run, "local", "pause+resume")


def test_a_cancelled_planned_ahead_session_stops_where_it_committed():
    seed = 5
    reference = json.loads(_run(seed, "priority", "local", 1))
    service = _service(seed, "priority", "sharded", 2)
    try:
        sids = _submit_three(service)
        service.tick()
        service.tick()
        victim = sids[1]
        committed = service.status(victim).frames_processed
        service.cancel(victim)
        service.run_until_idle(max_ticks=80)
        streams = json.loads(fingerprint(service, sids))
        # nothing past the cancel was charged, detected or committed
        cancelled, twin = streams[victim], reference[victim]
        assert cancelled["state"] == "cancelled"
        assert len(cancelled["sampled_frames"]) == committed
        for key in ("sampled_frames", "d0_counts", "results"):
            assert cancelled[key] == twin[key][:committed], key
        for sid in sids:
            if sid != victim:
                assert streams[sid] == reference[sid]
            _oracle_check(service, sid, seed)
    finally:
        service.close()


def test_a_planned_ahead_session_snapshots_and_restores_exactly():
    seed = 7

    def run(leg):
        if leg == "local":
            return _run(seed, "thompson-sum", "local", 1)
        first = _service(seed, "thompson-sum", "sharded", 2)
        try:
            sids = _submit_three(first)
            first.tick()
            first.tick()
            # live engines replay and carry the oracle check: none may be sealed
            assert all(not s.state.terminal for s in first.sessions.values())
            snapshots = first.snapshot_all()
            # the snapshot counts commits
            for snap in snapshots:
                assert snap.steps_taken == first.status(snap.session_id).frames_processed
        finally:
            first.close()
        second = _service(seed, "thompson-sum", "sharded", 4)
        try:
            for snap in snapshots:
                second.restore(snap)
            second.run_until_idle(max_ticks=80)
            for sid in sids:
                _oracle_check(second, sid, seed)
            return fingerprint(second, sids)
        finally:
            second.close()

    assert_same_decisions(run, "local", "snapshot+restore")


def test_a_sigterm_drained_sharded_server_resumes_planned_ahead_sessions(tmp_path):
    pytest.importorskip("numpy")  # profile datasets are numpy-gated
    from test_server_cli import ServerProcess

    from repro.serving import ServingClient
    from repro.serving.session import SessionSnapshot
    from repro.video.datasets import build_dataset, scaled_chunk_frames

    state = str(tmp_path / "state")
    queries = [("bicycle", 11, 5.0), ("person", 12, 3.0), ("truck", 13, 2.0),
               ("bicycle", 14, 1.0)]
    # unequal shares: equal sessions under round-robin fall into lockstep
    # (all in the round or none), so priorities stagger them
    common = ("--frames-per-tick", "4", "--batch-size", "4",
              "--scheduler", "priority")
    first = ServerProcess(
        "--state-dir", state, "--datasets", "dashcam", "--scale", "0.02",
        "--shards", "2", "--detector-latency", "0.002", *common,
    )
    try:
        with ServingClient(*first.address) as client:
            # long enough (50 ticks of ~4 ms each) that the sessions overlap
            # however slowly this client gets its submits in
            sids = [
                client.submit("dashcam", category, max_samples=200, seed=seed,
                              priority=priority, warm_start=False)
                for category, seed, priority in queries
            ]
            deadline = time.monotonic() + 60
            while client.status(sids[-1])["frames_processed"] < 8:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        code, out, err = first.sigterm()
        assert code == 0 and "server drained" in out, err
    finally:
        first.kill()
    sessions_dir = pathlib.Path(state) / "sessions"
    mid_run = [json.loads((sessions_dir / f"{sid}.json").read_text()) for sid in sids]
    assert any(0 < snap["steps_taken"] < 200 for snap in mid_run)

    second = ServerProcess("--state-dir", state, *common)
    try:
        with ServingClient(*second.address) as client:
            served = {}
            for sid in sids:
                client.wait_terminal(sid)
                served[sid] = client.results(sid)
        code, _, err = second.sigterm()
        assert code == 0, err
    finally:
        second.kill()

    repo = build_dataset("dashcam", categories=None, scale=0.02, seed=0)
    chunk_frames = scaled_chunk_frames("dashcam", 0.02)
    for sid in sids:
        snapshot = SessionSnapshot.from_dict(
            json.loads((sessions_dir / f"{sid}.json").read_text())
        )
        reference = reference_run(snapshot, repo, OracleDetector(repo), chunk_frames)
        assert len(reference.frames) == served[sid]["frames_processed"] == 200
        assert reference.results_found == served[sid]["results_found"]
        assert reference.result_frames == served[sid]["result_frames"]


# ------------------------------------------------------------------ attribution

def test_stage_seconds_and_shard_busy_time_are_attributed():
    tel = telemetry.enable(slow_tick_threshold=0.0)
    service = _service(3, "round-robin", "sharded", 2)
    try:
        started = time.perf_counter()
        _submit_three(service)
        service.run_until_idle(max_ticks=80)
        wall = time.perf_counter() - started
        snapshot = tel.snapshot()
    finally:
        service.close()

    def total(name, **labels):
        return sum(
            body["sum"]
            for key, body in snapshot["histograms"].items()
            if parse_series_key(key)[0] == name
            and all(parse_series_key(key)[1].get(k) == v for k, v in labels.items())
        )

    # draw + score is time inside ExSample.plan: the plan stage contains it
    planning = total("repro_serving_plan_seconds")
    assert planning > 0
    assert total("repro_serving_stage_seconds", stage="plan") >= planning
    assert total("repro_serving_stage_seconds", stage="detect") > 0
    busy = {
        parse_series_key(key)[1]["shard"]: value
        for key, value in snapshot["counters"].items()
        if parse_series_key(key)[0] == "repro_shard_busy_seconds_total"
    }
    assert sorted(busy) == ["0", "1"]
    for seconds in busy.values():
        assert 0.0 < seconds < wall
