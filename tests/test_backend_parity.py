"""Decision streams that outlive one process, and the flat belief layout.

Every Thompson draw is numpy's ``standard_gamma`` on a Philox keyed per
draw (``repro.core.rng``), so a decision is a function of seeds alone.
This module holds that at the distances a process boundary adds:

* a child process (fresh interpreter, its own hash seed) runs a whole
  randomized scenario — live ingestion, faults, crash-restart, oracle
  parity — and must print the digest this process logs;
* the flat-array belief layout's behavioral edges: live ``extend()``
  growth, and a snapshot restored through JSON that must replay to the
  live session's state, including a snapshot written in the
  pre-vectorization format;
* a snapshot whose recorded results its replay cannot reproduce — one
  saved under another decision stream — must fail the restore loudly.
"""

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest
from contracts import small_world

from repro.core.chunking import IncrementalChunker
from repro.core.rng import DecisionRng
from repro.core.sampler import ExSample
from repro.detection.cache import CategoryFilterDetector, DetectionCache
from repro.detection.detector import OracleDetector
from repro.serving import QueryService
from repro.serving.session import SessionSnapshot, SessionState, StateError
from repro.simulation import generate_scenario, run_scenario
from repro.tracking.discriminator import OracleDiscriminator


def test_scenario_digest_matches_in_a_fresh_process(tmp_path):
    """Run the same scenario in a fresh child process and compare its
    digest with this process's run."""
    seed = 3
    reference = run_scenario(generate_scenario(seed, "quick"), workdir=tmp_path)

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
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


def test_extend_grows_flat_arrays_mid_run():
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


def test_snapshot_restore_replays_flat_layout():
    repo = small_world(1)
    service = QueryService(
        repo, cache=DetectionCache(), frames_per_tick=12, chunk_frames=50, seed=0
    )
    sid = service.submit("cam0", "bus", limit=3, max_samples=60, seed=14)
    for _ in range(3):
        service.tick()
    live = service.sessions[sid]
    # the point is replaying a live engine: a terminal one restores sealed
    assert not live.state.terminal
    blob = json.dumps(service.snapshot(sid).to_dict())

    clone_host = QueryService(
        repo, cache=service.cache, frames_per_tick=12, chunk_frames=50, seed=0
    )
    clone_sid = clone_host.restore(SessionSnapshot.from_dict(json.loads(blob)))
    clone = clone_host.sessions[clone_sid]
    assert [int(v) for v in live.chunk_stats.n1] == [
        int(v) for v in clone.chunk_stats.n1
    ]
    assert [int(v) for v in live.chunk_stats.n] == [
        int(v) for v in clone.chunk_stats.n
    ]
    assert list(live.history.frame_indices) == list(
        clone.history.frame_indices
    )
    # and the two finish identically
    service.run_until_idle(max_ticks=40)
    clone_host.run_until_idle(max_ticks=40)
    assert live.result_frames() == clone.result_frames()
    assert live.state == clone.state


def test_a_replay_that_misses_its_recorded_results_fails_loudly():
    """A snapshot saved under another decision stream (an older release,
    or a numpy whose Thompson draw changed) replays to other frames.  The
    restore names the session and admits nothing, instead of serving
    results the session never reported."""
    repo = small_world(1)
    service = QueryService(
        repo, cache=DetectionCache(), frames_per_tick=12, chunk_frames=50, seed=0
    )
    other = service.submit("cam0", "car", max_samples=30, seed=3)
    sid = service.submit("cam0", "bus", limit=3, max_samples=60, seed=14)
    for _ in range(3):
        service.tick()
    good, snapshot = service.snapshot(other), service.snapshot(sid)
    assert snapshot.result_frames and not SessionState(snapshot.state).terminal
    # the frames another stream found: the replay finds some, not all
    foreign = dataclasses.replace(
        snapshot, result_frames=snapshot.result_frames[:-1] + (repo.horizon - 1,)
    )

    host = QueryService(repo, cache=service.cache, frames_per_tick=12, chunk_frames=50, seed=0)
    with pytest.raises(StateError, match=repr(sid)):
        host.restore_many([good, foreign])
    assert host.sessions == {}
    assert host.restore_many([good, snapshot]) == [other, sid]


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

    assert list(restored.history.frame_indices) == list(
        fresh.history.frame_indices
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
