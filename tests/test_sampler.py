"""Tests for the ExSample Algorithm-1 loop."""

import numpy as np
import pytest

from repro.core.chunking import even_count_chunks
from repro.core.policies import UniformPolicy
from repro.core.sampler import ExSample, SamplingHistory
from repro.detection.detector import OracleDetector
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances


def make_repo(total_frames=2000, num_instances=20, skew=None, seed=0):
    rng = np.random.default_rng(seed)
    instances = place_instances(
        num_instances, total_frames, rng, mean_duration=60,
        skew_fraction=skew, with_boxes=False,
    )
    return single_clip_repository(total_frames, instances)


def make_sampler(repo, num_chunks=8, seed=0, batch_size=1, policy=None):
    rng = np.random.default_rng(seed)
    chunks = even_count_chunks(repo.total_frames, num_chunks, rng)
    return ExSample(
        chunks,
        OracleDetector(repo),
        OracleDiscriminator(),
        policy=policy,
        rng=rng,
        batch_size=batch_size,
    )


def test_step_returns_records():
    sampler = make_sampler(make_repo())
    records = sampler.step()
    assert len(records) == 1
    rec = records[0]
    assert rec.sample_index == 1
    assert 0 <= rec.chunk < 8
    assert 0 <= rec.frame_index < 2000
    assert sampler.frames_processed == 1


def test_run_with_result_limit():
    sampler = make_sampler(make_repo())
    history = sampler.run(result_limit=5)
    assert sampler.results_found >= 5
    # stops promptly: at most one extra step past the limit
    assert history.results[-1] >= 5


def test_run_with_max_samples():
    sampler = make_sampler(make_repo())
    history = sampler.run(max_samples=50)
    assert len(history) == 50
    assert sampler.frames_processed == 50


def test_run_finds_all_instances_eventually():
    repo = make_repo(total_frames=500, num_instances=10)
    sampler = make_sampler(repo, num_chunks=4)
    sampler.run()  # exhausts the repository
    assert sampler.exhausted
    assert sampler.results_found == 10
    assert sampler.frames_processed == 500


def test_history_results_nondecreasing():
    sampler = make_sampler(make_repo(seed=3))
    history = sampler.run(max_samples=300)
    results = history.results
    assert np.all(np.diff(results) >= 0)
    assert list(history.samples) == list(range(1, 301))


def test_history_samples_to_reach():
    history = SamplingHistory()
    for frame, (d0, total) in enumerate([(0, 0), (2, 2), (0, 2), (1, 3)]):
        history.append(frame, d0, total)
    assert history.samples_to_reach(0) == 0
    assert history.samples_to_reach(1) == 2
    assert history.samples_to_reach(3) == 4
    assert history.samples_to_reach(4) is None


def test_stats_match_history():
    sampler = make_sampler(make_repo(seed=1))
    sampler.run(max_samples=200)
    assert sampler.stats.total_samples == 200
    assert sampler.stats.total_results == sampler.results_found


def test_no_frame_sampled_twice():
    repo = make_repo(total_frames=400)
    sampler = make_sampler(repo, num_chunks=4, seed=2)
    history = sampler.run()
    frames = history.frame_indices
    assert len(frames) == 400
    assert len(set(frames)) == 400


def test_batched_sampling():
    repo = make_repo()
    sampler = make_sampler(repo, batch_size=16, seed=4)
    records = sampler.step()
    assert len(records) == 16
    assert sampler.frames_processed == 16
    sampler.run(max_samples=160)
    assert sampler.frames_processed >= 160


def test_batched_matches_serial_result_quality():
    """Batching is an optimization, not a semantic change: both find all."""
    repo = make_repo(total_frames=600, num_instances=15, seed=5)
    serial = make_sampler(repo, seed=6, batch_size=1)
    serial.run(max_samples=600)
    batched = make_sampler(repo, seed=6, batch_size=32)
    batched.run(max_samples=600)
    assert serial.results_found == batched.results_found == 15


def test_exhaustion_behaviour():
    repo = make_repo(total_frames=100)
    sampler = make_sampler(repo, num_chunks=2)
    sampler.run()
    assert sampler.exhausted
    with pytest.raises(RuntimeError):
        sampler.step()


def test_batch_drains_small_chunks_cleanly():
    """A batch larger than the remaining frames must not crash or repeat."""
    repo = make_repo(total_frames=40)
    sampler = make_sampler(repo, num_chunks=4, batch_size=64)
    history = sampler.run()
    assert sampler.exhausted
    assert sorted(history.frame_indices) == list(range(40))


def test_callback_invoked_per_record():
    sampler = make_sampler(make_repo())
    seen = []
    sampler.run(max_samples=10, callback=seen.append)
    assert len(seen) == 10
    assert seen[0].sample_index == 1


def test_custom_policy_is_used():
    repo = make_repo()
    sampler = make_sampler(repo, policy=UniformPolicy(), seed=7)
    sampler.run(max_samples=100)
    # uniform policy spreads samples over all chunks
    assert np.count_nonzero(sampler.stats.n) == 8


def test_validation():
    repo = make_repo()
    with pytest.raises(ValueError):
        make_sampler(repo).run(result_limit=0)
    with pytest.raises(ValueError):
        make_sampler(repo).run(max_samples=0)
    # an empty chunk list is legal since live ingestion (arms arrive via
    # extend()): the sampler starts exhausted instead of raising
    empty = ExSample([], OracleDetector(repo), OracleDiscriminator())
    assert empty.exhausted
    with pytest.raises(RuntimeError):
        empty.plan()
    rng = np.random.default_rng(0)
    chunks = even_count_chunks(100, 2, rng)
    with pytest.raises(ValueError):
        ExSample(chunks, OracleDetector(repo), OracleDiscriminator(), batch_size=0)


def test_an_engine_without_a_detector_commits_only_with_detections():
    """The served engine holds no detector: ``commit`` needs the batch's
    detections, and without them raises before touching any state."""
    repo = make_repo()
    chunks = even_count_chunks(repo.total_frames, 8, np.random.default_rng(0))
    engine = ExSample(chunks, None, OracleDiscriminator(), rng=np.random.default_rng(0))
    pending = engine.plan()
    with pytest.raises(ValueError, match="no detector"):
        engine.commit(pending)
    assert engine.frames_processed == 0
    detector = OracleDetector(repo)
    records = engine.commit(pending, {f: detector.detect(f) for _, f in pending})
    assert [r.frame_index for r in records] == [f for _, f in pending]
    # the in-core API drives an engine through its own detector
    with pytest.raises(ValueError, match="no detector"):
        engine.run(max_samples=5)


def test_thompson_concentrates_on_productive_chunk():
    """All results in one chunk: ExSample should oversample it (§III)."""
    rng = np.random.default_rng(8)
    # all instances in the first eighth of the data
    instances = place_instances(
        40, 4000, rng, mean_duration=30, skew_fraction=None,
        with_boxes=False, center_fraction=0.5,
    )
    squeezed = []
    from repro.video.geometry import Box, Trajectory
    from repro.video.instances import ObjectInstance
    for inst in instances:
        start = inst.start_frame % 450
        squeezed.append(
            ObjectInstance(
                inst.instance_id, inst.category,
                Trajectory.stationary(start, min(inst.duration, 500 - start), Box(0, 0, 1, 1)),
            )
        )
    repo = single_clip_repository(4000, squeezed)
    sampler = make_sampler(repo, num_chunks=8, seed=9)
    sampler.run(max_samples=800)
    n = np.asarray(sampler.stats.n)
    assert n[0] > 2 * n[1:].mean()


def test_new_result_frames_exposes_hit_frames():
    sampler = make_sampler(make_repo())
    sampler.run(max_samples=300)
    history = sampler.history
    hits = history.new_result_frames
    # hit frames are a subset of all processed frames
    processed = set(history.frame_indices)
    assert set(hits) <= processed
    # the number of hit frames is at most the number of results and at
    # least one per "jump" in the results curve
    jumps = int((np.diff(np.concatenate([[0], history.results])) > 0).sum())
    assert len(hits) == jumps


def test_steps_generator_matches_run():
    """run() is a thin wrapper over steps(): same frames, same state."""
    ran = make_sampler(make_repo(), seed=21)
    ran.run(result_limit=8, max_samples=400)

    stepped = make_sampler(make_repo(), seed=21)
    records = list(stepped.steps(result_limit=8, max_samples=400))
    assert [r.frame_index for r in records] == list(ran.history.frame_indices)
    assert stepped.results_found == ran.results_found
    assert np.array_equal(stepped.stats.n1, ran.stats.n1)
    assert np.array_equal(stepped.stats.n, ran.stats.n)


def test_steps_generator_is_suspendable():
    """The generator can be advanced one frame at a time and abandoned
    mid-run without corrupting sampler state."""
    sampler = make_sampler(make_repo(), seed=3)
    gen = sampler.steps(max_samples=100)
    first = next(gen)
    assert first.sample_index == 1
    for _ in range(9):
        next(gen)
    gen.close()  # suspend for good
    assert sampler.frames_processed == 10
    # a fresh generator picks up where the old one stopped
    remaining = list(sampler.steps(max_samples=100))
    assert sampler.frames_processed == 100
    assert len(remaining) == 90


def test_steps_validates_arguments():
    sampler = make_sampler(make_repo())
    with pytest.raises(ValueError):
        next(sampler.steps(result_limit=0))
    with pytest.raises(ValueError):
        next(sampler.steps(max_samples=-1))
