"""The distributed execution backend: workers, coordinator, service wiring.

The wire-level behaviour is covered in-process through
:class:`~repro.distributed.worker.ShardWorker` (the process loop is a
thin shell around it); the coordinator tests spawn real worker
processes, including the kill → transparent-respawn path.
"""

import numpy as np
import pytest
from contracts import clip_repository, stationary_instance

from repro.detection.detector import OracleDetector, SimulatedDetector
from repro.distributed.coordinator import ShardCoordinator
from repro.distributed.worker import DetectorSpec, ShardWorker, WorkerSpec
from repro.serving.service import QueryService
from repro.video.repository import empty_repository


def _repository():
    return clip_repository("cam0", (100, 150, 50, 120), [
        stationary_instance(0, 20, 40),
        stationary_instance(1, 140, 60),
        stationary_instance(2, 310, 30),
        stationary_instance(3, 60, 25, "car"),
    ])


# -------------------------------------------------------------- DetectorSpec

def test_detector_spec_builds_matching_detectors():
    repo = _repository()
    oracle = DetectorSpec(kind="oracle").build(repo)
    raw = OracleDetector(repo)
    assert oracle.detect(25) == raw.detect(25)
    sim_spec = DetectorSpec(kind="simulated", miss_rate=0.2, seed=9)
    sim = sim_spec.build(repo)
    raw_sim = SimulatedDetector(repo, miss_rate=0.2, seed=9)
    for frame in (21, 145, 315):
        assert sim.detect(frame) == raw_sim.detect(frame)


def test_detector_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DetectorSpec(kind="quantum")


# --------------------------------------------------------------- ShardWorker

def _worker(repo=None, **spec_kwargs):
    repo = repo if repo is not None else _repository()
    defaults = dict(shard_id=0, dataset="cam0", detector=DetectorSpec())
    defaults.update(spec_kwargs)
    return ShardWorker(WorkerSpec(**defaults), repo), repo


def test_worker_detect_matches_raw_detector_exactly():
    worker, repo = _worker()
    raw = OracleDetector(repo)
    frames = [5, 145, 310, 25, 310]
    status, request_id, reply = worker.handle(("detect", 7, {"frames": frames}))
    assert (status, request_id) == ("ok", 7)
    from repro.distributed.worker import decode_rows

    assert [decode_rows(r) for r in reply["rows"]] == [raw.detect(f) for f in frames]


def test_worker_detect_speaks_one_payload_shape():
    """Requests are ``{"frames": [...]}``, replies always carry ``rows``
    and ``span``; the removed bare-list request and a payload without
    ``frames`` are answered as errors, never raised."""
    worker, _ = _worker()
    status, _, reply = worker.handle(("detect", 0, {"frames": [5, 25, 5]}))
    assert status == "ok" and set(reply) == {"rows", "span"}
    assert len(reply["rows"]) == 3
    span = reply["span"]
    assert set(span) == {"duration_seconds", "frames", "detector_calls"}
    assert span["frames"] == 3 and span["detector_calls"] == 2
    assert span["duration_seconds"] >= 0.0
    # a frame seen before is detected again: the worker keeps nothing
    _, _, again = worker.handle(("detect", 1, {"frames": [5]}))
    assert set(again) == {"rows", "span"} and again["span"]["detector_calls"] == 1
    for request_id, bad in ((2, [1, 2]), (3, {"frame": [1]}), (4, None)):
        status, echoed, message = worker.handle(("detect", request_id, bad))
        assert (status, echoed) == ("error", request_id), bad
        assert isinstance(message, str)
    assert worker.handle(("detect", 5, {"frames": [5]}))[0] == "ok"  # still serving


def test_worker_redetects_across_requests():
    """Paying each frame once is the service cache's job, one level up;
    a worker only collapses a repeat inside one batch."""
    worker, _ = _worker()
    worker.handle(("detect", 0, {"frames": [5, 25, 5]}))  # in-batch duplicate
    assert worker.detector_calls == 2
    worker.handle(("detect", 1, {"frames": [5, 25, 60]}))
    assert worker.detector_calls == 5
    _, _, stats = worker.handle(("stats", 2, None))
    assert set(stats) == {
        "shard", "dataset", "served", "detector_calls", "horizon", "clips",
    }


def test_worker_rejects_out_of_range_frames_without_dying():
    worker, repo = _worker()
    status, request_id, message = worker.handle(
        ("detect", 3, {"frames": [repo.horizon + 5]})
    )
    assert (status, request_id) == ("error", 3)
    assert "outside" in message
    # the worker survives the error and keeps serving
    assert worker.handle(("detect", 4, {"frames": [5]}))[0] == "ok"


def test_worker_append_grows_replica_and_serves_new_frames():
    worker, repo = _worker()
    horizon = repo.horizon
    status, _, payload = worker.handle(
        (
            "append",
            1,
            {
                "num_frames": 60,
                "name": "c4",
                "fps": 30.0,
                "instances": [stationary_instance(9, horizon + 10, 20, "car")],
            },
        )
    )
    assert status == "ok" and payload["horizon"] == horizon + 60
    status, _, reply = worker.handle(("detect", 2, {"frames": [horizon + 15]}))
    assert status == "ok" and len(reply["rows"][0]) == 1


def test_worker_stats_and_unknown_op():
    worker, _ = _worker()
    worker.handle(("detect", 0, {"frames": [5, 25]}))
    status, _, stats = worker.handle(("stats", 1, None))
    assert status == "ok"
    assert stats["served"] == 2 and stats["detector_calls"] == 2
    assert worker.handle(("launder", 2, None))[0] == "error"
    assert worker.handle(("malformed",))[0] == "error"


def test_worker_latency_validation():
    with pytest.raises(ValueError):
        WorkerSpec(shard_id=0, dataset="cam0", latency=-0.1)
    with pytest.raises(ValueError):
        WorkerSpec(shard_id=-1, dataset="cam0")


def test_worker_pays_latency_once_per_distinct_frame(monkeypatch):
    """The worker charges through the same wrapper a local engine does:
    one sleep per real detector call, none for a repeat inside a batch."""
    from repro.detection import execution

    sleeps = []
    monkeypatch.setattr(execution.time, "sleep", sleeps.append)
    worker, repo = _worker(latency=0.25)
    raw = OracleDetector(repo)
    frames = [5, 145, 5, 310, 145]
    status, _, reply = worker.handle(("detect", 0, {"frames": frames}))
    assert status == "ok"
    from repro.distributed.worker import decode_rows

    assert [decode_rows(rows) for rows in reply["rows"]] == [
        raw.detect(f) for f in frames
    ]
    assert sleeps == [0.25] * 3
    assert reply["span"]["detector_calls"] == 3
    assert worker.detector_calls == 3
    _, _, stats = worker.handle(("stats", 1, None))
    assert (stats["served"], stats["detector_calls"]) == (5, 3)


# ------------------------------------------------------------ ShardCoordinator

@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_coordinator_detect_many_matches_local_detector(num_shards):
    repo = _repository()
    raw = OracleDetector(repo)
    frames = [5, 145, 310, 25, 330, 145, 60]
    with ShardCoordinator(repo, num_shards) as coordinator:
        assert coordinator.detect_many(frames) == [raw.detect(f) for f in frames]
        assert coordinator.stats.frames_processed == len(frames)


def test_coordinator_simulated_detector_parity():
    repo = _repository()
    spec = DetectorSpec(kind="simulated", miss_rate=0.15, seed=4)
    raw = SimulatedDetector(repo, miss_rate=0.15, seed=4)
    frames = [21, 145, 315, 64]
    with ShardCoordinator(repo, 3, detector_spec=spec) as coordinator:
        assert coordinator.detect_many(frames) == [raw.detect(f) for f in frames]


def test_coordinator_survives_worker_kill_mid_run():
    repo = _repository()
    raw = OracleDetector(repo)
    frames = [5, 145, 310, 25]
    with ShardCoordinator(repo, 2) as coordinator:
        want = [raw.detect(f) for f in frames]
        assert coordinator.detect_many(frames) == want
        assert coordinator.kill_worker(0)
        assert coordinator.kill_worker(0) is False  # already dead
        assert coordinator.detect_many(frames) == want  # transparent respawn
        assert coordinator.restarts == 1
        assert 0 in coordinator.workers_alive()


def test_coordinator_drains_healthy_shards_when_one_errors(monkeypatch):
    """The regression: a worker-side error response from one shard used
    to abort detect_many with the other shards' in-flight responses
    unread, desynchronizing their wire streams for every later batch.
    Every in-flight request must be drained before the failure raises."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork: the poisoned worker is inherited at spawn")

    from repro.distributed import worker as worker_mod

    original = worker_mod.ShardWorker._detect

    def poisoned(self, payload):
        if 5 in payload["frames"]:
            raise RuntimeError("poisoned frame")
        return original(self, payload)

    # forked workers inherit the poisoned module at spawn time
    monkeypatch.setattr(worker_mod.ShardWorker, "_detect", poisoned)
    repo = _repository()
    raw = OracleDetector(repo)
    with ShardCoordinator(repo, 2, start_method="fork") as coordinator:
        # two frames, two slices: 5 -> shard 0 errors; 310 -> shard 1 is fine
        with pytest.raises(RuntimeError, match="poisoned"):
            coordinator.detect_many([5, 310])
        # both shards' wire streams are still in sync afterwards
        assert coordinator.detect_many([310, 25]) == [
            raw.detect(310), raw.detect(25),
        ]
        assert coordinator.worker_stats()[1]["served"] >= 2


def test_coordinator_forwards_appends_to_live_workers():
    repo = _repository()
    with ShardCoordinator(repo, 2) as coordinator:
        coordinator.detect_many([5, 310])  # spawn both workers
        clip = repo.append_clip(80, [stationary_instance(9, repo.horizon + 10, 20, "car")])
        raw = OracleDetector(repo)
        got = coordinator.detect_many([clip.start_frame + 12])
        assert got == [raw.detect(clip.start_frame + 12)]
        stats = coordinator.worker_stats()
        assert all(s["clips"] == repo.num_clips for s in stats.values())


def test_coordinator_lazy_spawn_skips_idle_shards():
    repo = _repository()
    with ShardCoordinator(repo, 4) as coordinator:
        coordinator.detect_many([5])  # only the first shard's worker
        assert coordinator.workers_alive() == [0]


def test_coordinator_zero_clip_shards_are_noops():
    """What never reaches a worker never costs one: an empty repository
    and an empty batch spawn nothing, and a batch of k < num_shards
    frames touches at most k workers."""
    with ShardCoordinator(empty_repository("live"), 8) as coordinator:
        assert coordinator.detect_many([]) == []
        assert coordinator.workers_alive() == []
    repo = _repository()
    raw = OracleDetector(repo)
    with ShardCoordinator(repo, 8) as coordinator:
        assert coordinator.detect_many([]) == []
        assert coordinator.workers_alive() == []
        frames = [5, 145, 310]
        assert coordinator.detect_many(frames) == [raw.detect(f) for f in frames]
        assert coordinator.workers_alive() == [0, 1, 2]
        # a repeat is one frame to the fleet: two distinct -> two workers
        assert coordinator.detect_many([25, 25, 60]) == [
            raw.detect(25), raw.detect(25), raw.detect(60),
        ]
        assert coordinator.workers_alive() == [0, 1, 2, 3, 4]


def test_coordinator_empty_live_repository_then_ingest():
    repo = empty_repository("live")
    with ShardCoordinator(repo, 3) as coordinator:
        assert coordinator.detect_many([]) == []
        repo.append_clip(50, [stationary_instance(1, 10, 15, "car")])
        raw = OracleDetector(repo)
        assert coordinator.detect_many([12]) == [raw.detect(12)]


def test_coordinator_close_is_idempotent_and_final():
    coordinator = ShardCoordinator(_repository(), 2)
    coordinator.detect(5)
    coordinator.close()
    coordinator.close()
    with pytest.raises(RuntimeError):
        coordinator.detect(5)


def test_coordinator_validation():
    with pytest.raises(ValueError):
        ShardCoordinator(_repository(), 0)
    with pytest.raises(ValueError):
        ShardCoordinator(_repository(), 2, latency=-1.0)
    coordinator = ShardCoordinator(_repository(), 2)
    with pytest.raises(IndexError):
        coordinator.kill_worker(9)
    coordinator.close()


# ------------------------------------------------------------- service wiring

def test_service_sharded_validation():
    repo = _repository()
    with pytest.raises(ValueError):
        QueryService(repo, execution="warp")
    with pytest.raises(ValueError):
        QueryService(repo, shards=0)
    with pytest.raises(ValueError):
        QueryService(repo, shards=2)  # local + shards>1
    with pytest.raises(ValueError):
        QueryService(
            repo,
            execution="sharded",
            shards=2,
            detector_factory=lambda r: OracleDetector(r),
        )


def test_service_shard_backend_accessor():
    repo = _repository()
    local = QueryService(repo)
    assert local.shard_backend("cam0") is None
    sharded = QueryService(repo, execution="sharded", shards=2)
    try:
        backend = sharded.shard_backend("cam0")
        assert backend is not None and backend.num_shards == 2
        assert sharded.execution == "sharded" and sharded.shards == 2
        assert sharded.dataset_names() == ["cam0"]
    finally:
        sharded.close()


def test_service_sharded_feed_mid_query():
    """Live ingestion under sharded execution: sessions absorb appended
    footage and the workers' replicas follow."""
    repo = empty_repository("live")
    service = QueryService(
        repo, execution="sharded", shards=2, frames_per_tick=8, seed=3
    )
    try:
        sid = service.submit("live", "car", follow=True, max_samples=30)
        assert service.tick() == {}  # nothing to do yet
        service.feed("live", 60, [stationary_instance(0, 10, 20, "car")])
        service.feed("live", 60, [stationary_instance(1, 70, 20, "car")])
        service.run_until_idle(max_ticks=20)
        status = service.status(sid)
        assert status.frames_processed > 0
        assert status.results_found >= 1
    finally:
        service.close()


def test_query_engine_sharded_matches_local():
    from repro.core.query import DistinctObjectQuery, QueryEngine

    repo = _repository()
    local = QueryEngine(repo, category="bus", chunk_frames=80, seed=11)
    sharded = QueryEngine(repo, category="bus", chunk_frames=80, seed=11, shards=2)
    query = DistinctObjectQuery("bus", limit=3, max_samples=40)
    a = local.execute(query)
    b = sharded.execute(query)
    assert a.results_returned == b.results_returned
    assert a.frames_processed == b.frames_processed
    np.testing.assert_array_equal(a.history.frame_indices, b.history.frame_indices)
    np.testing.assert_array_equal(a.history.results, b.history.results)


def test_cli_serve_sharded_matches_local(tmp_path, capsys):
    """End-to-end through the CLI: a sharded state-dir serve returns the
    same per-session results as a local serve of the same submissions —
    and `submit --shards` makes the sharded default sticky."""
    import json

    from repro.cli import main

    def run(directory, *serve_flags):
        assert main(
            ["submit", "dashcam", "bicycle", "--limit", "3",
             "--state-dir", str(directory), "--scale", "0.02"]
        ) == 0
        capsys.readouterr()  # drop the submit confirmation line
        assert main(
            ["serve", "--state-dir", str(directory), "--json", *serve_flags]
        ) == 0
        return json.loads(capsys.readouterr().out)["sessions"]

    local = run(tmp_path / "local")
    sharded = run(tmp_path / "sharded", "--shards", "2")
    keep = ("session_id", "state", "results_found", "frames_processed",
            "result_frames")
    assert [{k: s[k] for k in keep} for s in local] == [
        {k: s[k] for k in keep} for s in sharded
    ]


def test_cli_submit_records_sticky_shard_default(tmp_path):
    import json

    from repro.cli import main
    from repro.serving import state as serving_state

    assert main(
        ["submit", "dashcam", "bicycle", "--limit", "2", "--shards", "3",
         "--state-dir", str(tmp_path), "--scale", "0.02"]
    ) == 0
    config = json.loads(
        (tmp_path / serving_state.CONFIG_FILENAME).read_text(encoding="utf-8")
    )
    assert config["shards"] == 3


def test_query_engine_shards_validation():
    from repro.core.query import QueryEngine

    repo = _repository()
    with pytest.raises(ValueError):
        QueryEngine(repo, category="bus", shards=0)
    with pytest.raises(ValueError, match="detector_factory is local-only"):
        QueryEngine(
            repo, category="bus", shards=2,
            detector_factory=lambda: OracleDetector(repo),
        )
