"""Vector-vs-scalar decision-stream parity, end to end.

Every Thompson draw runs round by round, each round either through numpy
vector rounds or through the pure-Python scalar rounds, picked by
``repro.core.rng._SCALAR_ROUND_MAX``.  The contract is that the choice
of executor is **invisible in every decision**: same seed, same workload
=> bit-identical sampled frames, result sets, schedules, and event logs.
The ``executor`` fixture (``tests/conftest.py``) sets the threshold to 0
(every round vectorised) or past every draw (the scalar rounds execute
each draw whole, the reference).  This module enforces the contract at
three distances:

* a serving-stack workload matrix (seed x scheduler x shards), flipping
  the executor in-process (shard workers draw no Thompson matrices, so
  the coordinating process is the only one that needs the switch);
* the simulation harness: whole randomized scenarios (ingestion,
  faults, crash-restart, oracle parity) must produce the same event-log
  digest under both executors;
* a child process that sets the scalar threshold itself and must print
  the digest the shipped executor logs in this process.

It also pins the flat-array belief layout's behavioral edges — live
``extend()`` growth and snapshot/restore — under both executors,
including a snapshot JSON written in the pre-vectorization format.
"""

import json
import pathlib
import subprocess
import sys

import pytest
from contracts import assert_same_decisions, fingerprint, parity_service, small_world

from repro.core.chunking import IncrementalChunker
from repro.core.rng import DecisionRng
from repro.core.sampler import ExSample
from repro.detection.cache import CategoryFilterDetector, DetectionCache
from repro.detection.detector import OracleDetector
from repro.serving import (
    PriorityScheduler,
    QueryService,
    RoundRobinScheduler,
    ThompsonSumScheduler,
)
from repro.serving.session import SessionSnapshot
from repro.simulation import generate_scenario, run_scenario
from repro.tracking.discriminator import OracleDiscriminator

SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "priority": PriorityScheduler,
    "thompson": ThompsonSumScheduler,
}


def _serve(seed, scheduler, shards):
    """Run the canonical two-session workload; return its fingerprint."""
    service = parity_service(
        small_world(seed), seed, "sharded" if shards > 1 else "local", shards,
        scheduler=SCHEDULERS[scheduler](),
    )
    try:
        a = service.submit("cam0", "bus", limit=3, max_samples=40, priority=2.0)
        b = service.submit("cam0", "car", max_samples=30)
        service.run_until_idle(max_ticks=50)
        return fingerprint(service, (a, b))
    finally:
        service.close()


def _across_executors(executor, workload):
    """The vector executor's decisions equal the scalar reference's."""
    def run(kind):
        executor(kind)
        return workload()

    assert_same_decisions(run, "vector", "scalar")


# ----------------------------------------------- serving workload matrix

@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_serving_matrix_numpy_vs_fallback(executor, seed, scheduler):
    _across_executors(executor, lambda: _serve(seed, scheduler, shards=1))


@pytest.mark.parametrize("shards", [2, 3])
def test_serving_sharded_numpy_vs_fallback(executor, shards):
    _across_executors(executor, lambda: _serve(5, "round-robin", shards=shards))


# ------------------------------------------------- whole-scenario digests

@pytest.mark.parametrize("seed", [0, 2, 5, 11])
def test_scenario_digests_match_across_backends(executor, tmp_path, seed):
    """The strongest in-process form: a full randomized scenario — live
    ingestion, faults, crash-restart, oracle parity on both sides — must
    log a byte-identical event stream under either executor."""
    scenario = generate_scenario(seed, "quick")
    executor("vector")
    fast = run_scenario(scenario, workdir=tmp_path / "fast")
    executor("scalar")
    slow = run_scenario(scenario, workdir=tmp_path / "slow")
    assert fast.log_digest() == slow.log_digest()
    assert fast.event_log == slow.event_log


def test_scenario_digest_matches_with_numpy_import_blocked(tmp_path):
    """Run the same scenario in a fresh child process that sets the
    scalar threshold before anything draws — the scalar rounds execute
    every draw there — and compare digests with the shipped executor's
    run in this process."""
    seed = 3
    reference = run_scenario(generate_scenario(seed, "quick"), workdir=tmp_path)

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
        "from repro.core import rng\n"
        "rng._SCALAR_ROUND_MAX = 10**9\n"
        "from repro.simulation import generate_scenario, run_scenario\n"
        f"report = run_scenario(generate_scenario({seed}, 'quick'))\n"
        "print(report.log_digest())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(src),
            "PYTHONHASHSEED": "0",
        },
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == reference.log_digest()


# ------------------------------------------- flat layout: extend + restore

def make_engine(horizon=200, chunk_frames=50, seed=0):
    """An engine over the first ``horizon`` frames plus the chunker that
    can grow it — the same incremental shape the serving layer uses."""
    repo = small_world(seed)
    rng = DecisionRng(seed)
    chunker = IncrementalChunker(repo, rng, chunk_frames=chunk_frames)
    chunks = chunker.take(up_to_horizon=horizon)
    detector = CategoryFilterDetector(OracleDetector(repo), "bus")
    engine = ExSample(
        chunks, detector, OracleDiscriminator(), rng=rng, batch_size=2
    )
    return engine, chunker


@pytest.mark.parametrize("forced", [False, True])
def test_extend_grows_flat_arrays_mid_run(executor, forced):
    executor("scalar" if forced else "vector")
    engine, chunker = make_engine(horizon=150)
    before_arms = len(list(engine.stats.n))
    for _ in range(10):
        engine.commit(engine.plan())
    sampled_before = list(engine.history.frame_indices)
    n_before = [int(v) for v in engine.stats.n]

    new_chunks = chunker.take(up_to_horizon=300)
    assert new_chunks, "the repository holds 300 frames; growth expected"
    engine.extend(new_chunks)
    assert len(list(engine.stats.n)) == before_arms + len(new_chunks)
    # existing per-arm counts survive the growth untouched
    assert [int(v) for v in engine.stats.n][:before_arms] == n_before
    # the new arms are drawable: keep sampling until one is visited
    for _ in range(60):
        if engine.exhausted:
            break
        engine.commit(engine.plan())
    assert any(
        int(v) > 0 for v in list(engine.stats.n)[before_arms:]
    ), "extend() must make the appended arms reachable"
    # history kept the pre-extend prefix
    assert list(engine.history.frame_indices)[: len(sampled_before)] == sampled_before


def test_extend_decisions_identical_across_backends(executor):
    def run(forced: bool):
        executor("scalar" if forced else "vector")
        engine, chunker = make_engine(horizon=150)
        for _ in range(8):
            engine.commit(engine.plan())
        engine.extend(chunker.take(up_to_horizon=300))
        while not engine.exhausted and len(engine.history.frame_indices) < 120:
            engine.commit(engine.plan())
        return [int(f) for f in engine.history.frame_indices]

    assert run(False) == run(True)


@pytest.mark.parametrize("forced", [False, True])
def test_snapshot_restore_replays_flat_layout(executor, forced):
    executor("scalar" if forced else "vector")
    repo = small_world(1)
    service = QueryService(
        repo, cache=DetectionCache(), frames_per_tick=12, chunk_frames=50, seed=0
    )
    sid = service.submit("cam0", "bus", limit=3, max_samples=60, seed=9)
    for _ in range(3):
        service.tick()
    live = service.sessions[sid]
    blob = json.dumps(service.snapshot(sid).to_dict())

    clone_host = QueryService(
        repo, cache=service.cache, frames_per_tick=12, chunk_frames=50, seed=0
    )
    clone_sid = clone_host.restore(SessionSnapshot.from_dict(json.loads(blob)))
    clone = clone_host.sessions[clone_sid]
    assert [int(v) for v in live.engine.stats.n1] == [
        int(v) for v in clone.engine.stats.n1
    ]
    assert [int(v) for v in live.engine.stats.n] == [
        int(v) for v in clone.engine.stats.n
    ]
    assert list(live.engine.history.frame_indices) == list(
        clone.engine.history.frame_indices
    )
    # and the two finish identically
    service.run_until_idle(max_ticks=40)
    clone_host.run_until_idle(max_ticks=40)
    assert live.result_frames() == clone.result_frames()
    assert live.state == clone.state


def test_pre_vectorization_snapshot_restores_and_replays():
    """Forward compatibility: snapshots are replay-based (spec + step
    count + horizon log, no RNG internals), so a JSON blob written by the
    pre-vectorization release — which lacks the newer optional fields —
    must still restore, and a restored pending submission must replay
    the exact decision stream a fresh submission with the same spec
    produces under the current engine."""
    old_format = {
        # exactly the keys the pre-vectorization release wrote; no
        # "horizons", no "batch_size", no "follow"
        "session_id": "s41",
        "dataset": "cam0",
        "category": "bus",
        "limit": 3,
        "max_samples": 50,
        "seed": 17,
        "priority": 1.0,
        "warm_start": True,
        "state": "active",
        "steps_taken": 0,
        "warm_start_frames": None,
        "results_found": 0,
        "result_frames": [],
    }
    snapshot = SessionSnapshot.from_dict(json.loads(json.dumps(old_format)))
    assert snapshot.batch_size == 1 and snapshot.horizons == ()

    repo = small_world(4)
    restored_host = QueryService(repo, frames_per_tick=12, chunk_frames=50, seed=0)
    restored_sid = restored_host.restore(snapshot)
    restored_host.run_until_idle(max_ticks=40)
    restored = restored_host.sessions[restored_sid]

    fresh_host = QueryService(repo, frames_per_tick=12, chunk_frames=50, seed=0)
    fresh_sid = fresh_host.submit("cam0", "bus", limit=3, max_samples=50, seed=17)
    fresh_host.run_until_idle(max_ticks=40)
    fresh = fresh_host.sessions[fresh_sid]

    assert list(restored.engine.history.frame_indices) == list(
        fresh.engine.history.frame_indices
    )
    assert restored.result_frames() == fresh.result_frames()
    assert restored.state == fresh.state

    # a sealed terminal snapshot in the old format restores without replay
    sealed = SessionSnapshot.from_dict(
        {
            "session_id": "s42",
            "dataset": "cam0",
            "category": "bus",
            "limit": 2,
            "max_samples": None,
            "seed": 3,
            "priority": 1.0,
            "warm_start": True,
            "state": "completed",
            "steps_taken": 12,
            "warm_start_frames": [],
            "results_found": 2,
            "result_frames": [31, 57],
        }
    )
    sealed_host = QueryService(repo, frames_per_tick=12, chunk_frames=50, seed=0)
    sealed_sid = sealed_host.restore(sealed)
    status = sealed_host.status(sealed_sid)
    assert status.state == "completed"
    assert status.results_found == 2
    assert sealed_host.sessions[sealed_sid].result_frames() == [31, 57]
