"""Balanced dispatch and plan-ahead: keeping the shard workers busy.

Two properties of the sharded execution path, both answer-invisible:

* **the even split** — a batch is deduplicated and dealt to the workers
  in contiguous slices whose sizes differ by at most one, from a cursor
  that keeps rotating, so a batch the sampler concentrated on one clip
  still occupies the whole fleet;
* **plan-ahead** — while a round's detection is in flight the tick plans
  the next batch of the sessions that are not in the round, parks it
  exactly as a failed tick's batch is parked, and re-offers it at the
  session's turn.  No decision, snapshot or restore can tell, and who
  is planned ahead is a function of the tick history alone (never of
  how long the workers took), so sharded runs stay bit-reproducible.
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
from repro.detection.execution import batch_detect, with_latency
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


def _counter(snapshot, name):
    return sum(
        value
        for key, value in snapshot["counters"].items()
        if parse_series_key(key)[0] == name
    )


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


# ------------------------------------------------------- the hook's plumbing

def test_the_hook_reaches_only_a_detector_that_overlaps():
    repo = _repository()
    calls = []
    plain = OracleDetector(repo)
    delayed = with_latency(OracleDetector(repo), 1e-6)
    for detector in (plain, delayed):  # in-process: nothing to wait for
        assert batch_detect(detector, [5, 25], lambda: calls.append("x")) == [
            plain.detect(5), plain.detect(25),
        ]
    assert calls == []
    coordinator = _LoopbackCoordinator(repo, 2)
    assert batch_detect(coordinator, [5, 25], lambda: calls.append("x")) == [
        plain.detect(5), plain.detect(25),
    ]
    assert calls == ["x"]  # once, between send and collect


def test_a_local_service_never_plans_ahead(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("plan-ahead ran under local execution")

    monkeypatch.setattr(QueryService, "_plan_ahead", staticmethod(forbidden))
    service = QueryService(
        _repository(), frames_per_tick=8, batch_size=4, detector_latency=0.0005,
        seed=1,
    )
    try:
        for category in ("bus", "car", "person"):
            service.submit("cam0", category, max_samples=24, warm_start=False)
        service.run_until_idle(max_ticks=40)
        assert all(s.state.terminal for s in service.sessions.values())
    finally:
        service.close()


def test_a_worker_killed_during_the_hook_is_drained_and_reissued():
    repo = _repository()
    raw = OracleDetector(repo)
    frames = [5, 145, 310, 25, 200, 330]
    with ShardCoordinator(repo, 3, latency=0.002) as coordinator:
        coordinator.warm_up()
        killed = []
        got = coordinator.detect_many(
            frames, lambda: killed.append(coordinator.kill_worker(1))
        )
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


def test_a_raising_hook_still_drains_the_replies():
    repo = _repository()
    raw = OracleDetector(repo)
    with ShardCoordinator(repo, 2) as coordinator:
        def boom():
            raise ValueError("hook failed")

        with pytest.raises(ValueError, match="hook failed"):
            coordinator.detect_many([5, 310], boom)
        assert coordinator.detect_many([310, 25]) == [raw.detect(310), raw.detect(25)]


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


# ------------------------------------------------------------ plan-ahead parity

def _service(seed, scheduler, execution, shards):
    # one batch per tick: most of the time most sessions are out of budget,
    # which is when they can be planned ahead
    return parity_service(
        _repository(seed), seed, execution, shards,
        scheduler=SCHEDULERS[scheduler](), frames_per_tick=4, batch_size=4,
        detector_latency=0.0005 if execution == "sharded" else 0.0,
    )


def _submit_three(service):
    """Three sessions admitted a tick apart: sessions that start together
    under round-robin stay in lockstep (all in the round or none), and
    only a session outside the round can be planned ahead."""
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
    def run(shards):
        if shards == "local":
            return _run(seed, scheduler, "local", 1)
        tel = telemetry.enable()
        got = _run(seed, scheduler, "sharded", shards)
        planned_ahead = _counter(tel.snapshot(), "repro_serving_planned_ahead_total")
        telemetry.disable()
        assert planned_ahead > 0, "the matrix row never planned ahead"
        return got

    reference = json.loads(assert_same_decisions(run, "local", 1, 2, 4))
    assert all(len(s["sampled_frames"]) >= 12 for s in reference.values())


def test_who_is_planned_ahead_does_not_depend_on_worker_speed():
    """A parked batch defers absorption, so a rule that planned ahead
    "until the replies are ready" would let the clock pick a session's
    chunk set — the simulation harness caught exactly that as two runs of
    one seed diverging.  The parked set is a function of the tick history."""
    histories = []
    for latency in (0.0, 0.004):
        service = QueryService(
            _repository(7), chunk_frames=50, execution="sharded", shards=2,
            frames_per_tick=4, batch_size=4, detector_latency=latency, seed=7,
        )
        try:
            _submit_three(service)
            history = []
            for _ in range(10):
                service.tick()
                history.append(sorted(_parked(service)))
            histories.append(history)
        finally:
            service.close()
    assert histories[0] == histories[1]
    assert any(histories[0])


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


def _parked(service):
    """Session ids holding a planned-but-uncommitted batch."""
    return {sid for sid, s in service.sessions.items() if s._pending}


def test_a_paused_planned_ahead_session_keeps_its_stream():
    seed = 4

    def run(leg):
        if leg == "local":
            return _run(seed, "round-robin", "local", 1)
        service = _service(seed, "round-robin", "sharded", 2)
        try:
            sids = _submit_three(service)
            service.tick()
            parked = sorted(_parked(service))
            assert parked, "nobody was planned ahead in the first tick"
            victim = parked[0]
            held = list(service.sessions[victim]._pending)
            service.pause(victim)
            for _ in range(4):
                service.tick()
            # paused with its batch parked: never scheduled, never re-planned
            assert service.sessions[victim]._pending == held
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
        victim = sorted(_parked(service))[0]
        committed = service.status(victim).frames_processed
        service.cancel(victim)
        service.run_until_idle(max_ticks=80)
        streams = json.loads(fingerprint(service, sids))
        # the parked batch was never charged, detected or committed
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
            assert _parked(first)
            # live engines replay and carry the oracle check: none may be sealed
            assert all(not s.state.terminal for s in first.sessions.values())
            snapshots = first.snapshot_all()
            # a parked batch is not progress: the snapshot counts commits only
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
    metrics = tmp_path / "metrics.json"
    queries = [("bicycle", 11, 5.0), ("person", 12, 3.0), ("truck", 13, 2.0),
               ("bicycle", 14, 1.0)]
    # unequal shares: equal sessions under round-robin fall into lockstep
    # (all in the round or none), and only a session outside the round
    # can be planned ahead
    common = ("--frames-per-tick", "4", "--batch-size", "4",
              "--scheduler", "priority")
    first = ServerProcess(
        "--state-dir", state, "--datasets", "dashcam", "--scale", "0.02",
        "--shards", "2", "--detector-latency", "0.002",
        "--metrics-out", str(metrics), *common,
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
    drained = json.loads(metrics.read_text())
    assert _counter(drained, "repro_serving_planned_ahead_total") > 0
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


# ------------------------------------------------- absorption is not starved

def test_a_session_with_waiting_footage_is_never_planned_ahead():
    """A parked batch defers absorption.  Were a follow session planned
    ahead over waiting footage, the next plan-ahead would park another
    batch before the next sync could absorb, and so on for ever."""
    repo = empty_repository("live")
    service = QueryService(
        repo, execution="sharded", shards=2, frames_per_tick=4, batch_size=4,
        detector_latency=0.0005, seed=9,
    )
    try:
        service.feed("live", 120, [stationary_instance(0, 10, 20, "car")])
        sids = []
        for _ in range(3):  # a tick apart, or round-robin keeps them in lockstep
            sids.append(service.submit("live", "car", follow=True, max_samples=400))
            service.tick()
        parked = _parked(service)
        assert parked  # budget 4 = one batch: the others were planned ahead
        # footage lands out of band (another process appended the clips):
        # parked sessions cannot absorb it yet, the others do at once
        repo.append_clip(80, [stationary_instance(1, 150, 20, "car")])
        held = {sid: list(service.sessions[sid]._pending) for sid in sids}
        absorbed_at = {}
        for _tick in range(12):
            service.tick()
            for sid in sids:
                session = service.sessions[sid]
                if session.horizon == repo.horizon:
                    absorbed_at.setdefault(sid, _tick)
                else:
                    # footage is waiting for it: it may still hold the batch
                    # it had, but must not have been given a new one
                    assert session._pending in ([], held[sid])
                    assert not session.plannable_ahead
        # every session absorbed — one commit of its parked batch later at
        # most, which with three sessions sharing the tick is three ticks
        assert sorted(absorbed_at) == sorted(sids)
        assert max(absorbed_at.values()) <= 3
        for sid in sids:
            log = service.sessions[sid].horizon_log
            assert [h for _steps, h in log] == [120, 200]
            assert log[1][0] % 4 == 0  # absorbed between whole batches
    finally:
        service.close()


# ------------------------------------------------------------------ attribution

def test_planned_ahead_seconds_are_plan_seconds_and_shards_report_busy_time():
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
    assert _counter(snapshot, "repro_serving_planned_ahead_total") > 0

    def total(name, **labels):
        return sum(
            body["sum"]
            for key, body in snapshot["histograms"].items()
            if parse_series_key(key)[0] == name
            and all(parse_series_key(key)[1].get(k) == v for k, v in labels.items())
        )

    # draw + score is time inside ExSample.plan wherever it ran; were the
    # planned-ahead share left under ``detect`` the plan stage would read
    # less than the planning it contains
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
