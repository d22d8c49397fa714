"""Live-ingestion core layer: appendable repositories, incremental
chunking, and mid-query engine extension.

The load-bearing invariant, asserted here at every layer: a query over a
repository ingested incrementally converges to the same answer — same
sampled frames, same per-chunk sample counts, same results — as the same
query over the fully materialized repository, and with a fixed seed the
post-catch-up sampling decisions are reproducible.
"""

from itertools import accumulate

import numpy as np
import pytest
from contracts import clip_repository

from repro.core.chunking import IncrementalChunker, make_chunks
from repro.core.multiquery import MultiQueryExSample
from repro.core.sampler import ExSample
from repro.detection.detector import OracleDetector, SimulatedDetector
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import empty_repository
from repro.video.synthetic import place_instances


CLIP_FRAMES = (600, 400, 500, 300)


def clip_instances(clip_start, clip_frames, count, category="bus", seed=0, start_id=0):
    rng = np.random.default_rng((seed, clip_start))
    return place_instances(
        count, clip_frames, rng, mean_duration=40, skew_fraction=None,
        category=category, with_boxes=False, start_id=start_id,
        frame_offset=clip_start,
    )


def clip_starts(num_clips):
    """Where each of the first ``num_clips`` CLIP_FRAMES clips starts when
    laid end to end."""
    return [0, *accumulate(CLIP_FRAMES)][:num_clips]


def full_repository(num_clips=len(CLIP_FRAMES), per_clip=6):
    """The up-front materialization: every clip present at construction."""
    return clip_repository("synthetic", CLIP_FRAMES[:num_clips], [
        instance
        for k, start in enumerate(clip_starts(num_clips))
        for instance in clip_instances(start, CLIP_FRAMES[k], per_clip, start_id=k * per_clip)
    ])


def grow_repository(repo, from_clip, per_clip=6):
    """Append the remaining CLIP_FRAMES clips, same ground truth as
    full_repository (clip_instances is keyed on the clip start)."""
    for k in range(from_clip, len(CLIP_FRAMES)):
        start = repo.total_frames
        repo.append_clip(
            CLIP_FRAMES[k],
            clip_instances(start, CLIP_FRAMES[k], per_clip, start_id=k * per_clip),
            name=f"c{k}",
        )


# ------------------------------------------------------------- repository

def test_append_clip_grows_horizon_and_version():
    repo = full_repository(num_clips=2)
    h0, v0 = repo.horizon, repo.version
    clip = repo.append_clip(250, clip_instances(h0, 250, 3, start_id=900))
    assert clip.start_frame == h0
    assert repo.horizon == h0 + 250
    assert repo.version == v0 + 1
    assert repo.clip_for_frame(h0 + 10) is clip
    # old indices unchanged: frame-space growth is strictly monotonic
    assert repo.clip_for_frame(0).start_frame == 0


def test_append_clip_validation():
    repo = full_repository(num_clips=1)
    with pytest.raises(ValueError):
        repo.append_clip(0)
    # instances must lie inside the appended clip's span
    stray = clip_instances(0, 100, 2, start_id=500)  # placed at frame 0
    with pytest.raises(ValueError, match="outside the appended clip"):
        repo.append_clip(200, stray)


def test_empty_repository_accepts_first_clip():
    repo = empty_repository("cam0")
    assert repo.total_frames == 0
    clip = repo.append_clip(300, clip_instances(0, 300, 4), fps=25.0)
    assert clip.clip_id == 0
    assert clip.fps == 25.0
    assert repo.total_frames == 300
    assert repo.categories() == ["bus"]


def test_appended_instances_visible_to_existing_detectors():
    """Detectors index ground truth per repository version, so footage
    appended after construction is detected without rebuilding them."""
    repo = full_repository(num_clips=1, per_clip=2)
    oracle = OracleDetector(repo)
    noisy = SimulatedDetector(repo, miss_rate=0.0, false_positive_rate=0.0)
    h0 = repo.horizon
    inst = clip_instances(h0, 400, 1, start_id=777)[0]
    repo.append_clip(400, [inst])
    mid = (inst.start_frame + inst.end_frame) // 2
    assert any(d.true_instance_id == 777 for d in oracle.detect(mid))
    assert any(d.true_instance_id == 777 for d in noisy.detect(mid))


def test_appends_do_not_change_old_frames_detections():
    """Cache-key validity: a frame's detections are immutable across
    appends (appended instances live only in the appended span)."""
    repo = full_repository(num_clips=2)
    detector = SimulatedDetector(repo, seed=3)
    probe = [5, 100, 450, 800]
    before = [detector.detect(f) for f in probe]
    grow_repository(repo, from_clip=2)
    after = [detector.detect(f) for f in probe]
    assert before == after


# --------------------------------------------------------------- chunking

@pytest.mark.parametrize("chunk_frames", [None, 150])
def test_incremental_chunks_match_upfront_layout(chunk_frames):
    repo_full = full_repository()
    upfront = make_chunks(repo_full, np.random.default_rng(0), chunk_frames)

    repo_live = full_repository(num_clips=1)
    chunker = IncrementalChunker(
        repo_live, np.random.default_rng(0), chunk_frames
    )
    grown = list(chunker.take())
    for k in range(1, len(CLIP_FRAMES)):
        start = repo_live.total_frames
        repo_live.append_clip(CLIP_FRAMES[k], name=f"c{k}")
        grown.extend(chunker.take())

    assert [(c.chunk_id, c.start_frame, c.end_frame) for c in grown] == [
        (c.chunk_id, c.start_frame, c.end_frame) for c in upfront
    ]
    assert chunker.horizon == repo_live.total_frames
    assert chunker.pending_frames == 0


def test_chunker_take_up_to_horizon():
    repo = full_repository()
    chunker = IncrementalChunker(repo, np.random.default_rng(0), 150)
    first = chunker.take(up_to_horizon=CLIP_FRAMES[0])
    assert chunker.horizon == CLIP_FRAMES[0]
    assert all(c.end_frame <= CLIP_FRAMES[0] for c in first)
    rest = chunker.take()
    assert chunker.horizon == repo.total_frames
    assert rest[0].chunk_id == first[-1].chunk_id + 1
    # horizons must fall on clip boundaries (append points)
    fresh = IncrementalChunker(repo, np.random.default_rng(0), 150)
    with pytest.raises(ValueError, match="clip boundary"):
        fresh.take(up_to_horizon=CLIP_FRAMES[0] - 7)


# ---------------------------------------------------------------- sampler

@pytest.mark.parametrize("batch_size", [1, 4])
def test_ingest_then_query_parity(batch_size):
    """Clips fed one at a time before sampling == everything up-front:
    identical sampled frames, per-chunk counts, and results."""
    repo_full = full_repository()
    # one generator feeds both the chunk orders and the policy, exactly
    # as the serving layer builds sessions
    rng_full = np.random.default_rng(7)
    upfront = ExSample(
        make_chunks(repo_full, rng_full, 150),
        OracleDetector(repo_full, category="bus"),
        OracleDiscriminator(),
        rng=rng_full,
        batch_size=batch_size,
    )
    upfront.run(max_samples=200)

    repo_live = full_repository(num_clips=1)
    rng = np.random.default_rng(7)
    chunker = IncrementalChunker(repo_live, rng, 150)
    engine = ExSample(
        chunker.take(),
        OracleDetector(repo_live, category="bus"),
        OracleDiscriminator(),
        rng=rng,
        batch_size=batch_size,
    )
    grow_repository(repo_live, from_clip=1)
    engine.extend(chunker.take())
    engine.run(max_samples=200)

    np.testing.assert_array_equal(
        engine.history.frame_indices, upfront.history.frame_indices
    )
    np.testing.assert_array_equal(engine.stats.n, upfront.stats.n)
    np.testing.assert_array_equal(engine.stats.n1, upfront.stats.n1)
    assert engine.results_found == upfront.results_found


def test_mid_query_extend_is_reproducible():
    """Same seed + same extension points => identical decision streams."""
    def run_once():
        repo = full_repository(num_clips=2)
        rng = np.random.default_rng(11)
        chunker = IncrementalChunker(repo, rng, 150)
        engine = ExSample(
            chunker.take(),
            OracleDetector(repo, category="bus"),
            OracleDiscriminator(),
            rng=rng,
        )
        engine.run(max_samples=60)
        grow_repository(repo, from_clip=2)
        engine.extend(chunker.take())
        engine.run(max_samples=160)
        return engine

    a, b = run_once(), run_once()
    np.testing.assert_array_equal(a.history.frame_indices, b.history.frame_indices)
    np.testing.assert_array_equal(a.stats.n, b.stats.n)
    assert a.results_found == b.results_found


def test_extend_mid_chunk_leaves_existing_arms_untouched():
    """Appending while a chunk is partially sampled must not move any
    existing arm's statistics or availability."""
    repo = full_repository(num_clips=2)
    rng = np.random.default_rng(3)
    chunker = IncrementalChunker(repo, rng, 150)
    engine = ExSample(
        chunker.take(),
        OracleDetector(repo, category="bus"),
        OracleDiscriminator(),
        rng=rng,
    )
    engine.run(max_samples=35)  # mid-chunk: no chunk is exhausted yet
    n_before = list(engine.stats.n)
    n1_before = list(engine.stats.n1)
    avail_before = engine.chunk_availability
    remaining_before = [c.remaining for c in engine.chunks]
    old_count = len(engine.chunks)

    grow_repository(repo, from_clip=2)
    new_chunks = chunker.take()
    engine.extend(new_chunks)

    assert len(engine.chunks) == old_count + len(new_chunks)
    np.testing.assert_array_equal(engine.stats.n[:old_count], n_before)
    np.testing.assert_array_equal(engine.stats.n1[:old_count], n1_before)
    np.testing.assert_array_equal(
        engine.chunk_availability[:old_count], avail_before
    )
    assert [c.remaining for c in engine.chunks[:old_count]] == remaining_before
    assert sum(list(engine.stats.n)[old_count:]) == 0


def test_extend_rejects_discontinuous_chunk_ids():
    repo = full_repository(num_clips=2)
    rng = np.random.default_rng(0)
    chunker = IncrementalChunker(repo, rng, 150)
    engine = ExSample(
        chunker.take(),
        OracleDetector(repo, category="bus"),
        OracleDiscriminator(),
        rng=rng,
    )
    grow_repository(repo, from_clip=2)
    fresh = IncrementalChunker(repo, np.random.default_rng(0), 150)
    with pytest.raises(ValueError, match="does not continue"):
        engine.extend(fresh.take())  # ids restart at 0


def test_empty_start_engine_becomes_runnable_after_extend():
    repo = empty_repository()
    rng = np.random.default_rng(5)
    chunker = IncrementalChunker(repo, rng, 150)
    engine = ExSample(
        chunker.take(),
        OracleDetector(repo, category="bus"),
        OracleDiscriminator(),
        rng=rng,
    )
    assert engine.exhausted
    repo.append_clip(500, clip_instances(0, 500, 5))
    engine.extend(chunker.take())
    assert not engine.exhausted
    engine.run(max_samples=80)
    assert engine.frames_processed == 80
    assert engine.results_found > 0


# ------------------------------------------------------------- multi-query

def test_multiquery_extend_parity():
    # ground truth with two categories across all clips
    def two_cat_repo(num_clips):
        instances = []
        for k, start in enumerate(clip_starts(num_clips)):
            frames = CLIP_FRAMES[k]
            instances.extend(
                clip_instances(start, frames, 4, category="bus", start_id=k * 8)
            )
            instances.extend(
                clip_instances(
                    start, frames, 4, category="truck", seed=1, start_id=k * 8 + 4
                )
            )
        return clip_repository("synthetic", CLIP_FRAMES[:num_clips], instances)

    repo_full = two_cat_repo(len(CLIP_FRAMES))
    rng_full = np.random.default_rng(13)
    upfront = MultiQueryExSample(
        make_chunks(repo_full, rng_full, 150),
        OracleDetector(repo_full),
        {"bus": 8, "truck": 8},
        lambda category: OracleDiscriminator(),
        rng=rng_full,
    )
    upfront.run(max_samples=150)

    repo_live = two_cat_repo(2)
    rng = np.random.default_rng(13)
    chunker = IncrementalChunker(repo_live, rng, 150)
    live = MultiQueryExSample(
        chunker.take(),
        OracleDetector(repo_live),
        {"bus": 8, "truck": 8},
        lambda category: OracleDiscriminator(),
        rng=rng,
    )
    for k in range(2, len(CLIP_FRAMES)):
        start = repo_live.total_frames
        frames = CLIP_FRAMES[k]
        instances = clip_instances(
            start, frames, 4, category="bus", start_id=k * 8
        ) + clip_instances(
            start, frames, 4, category="truck", seed=1, start_id=k * 8 + 4
        )
        repo_live.append_clip(frames, instances, name=f"c{k}")
    live.extend(chunker.take())
    live.run(max_samples=150)

    assert live.frames_processed == upfront.frames_processed
    for category in ("bus", "truck"):
        np.testing.assert_array_equal(
            live.queries[category].stats.n, upfront.queries[category].stats.n
        )
        assert (
            live.queries[category].results_found
            == upfront.queries[category].results_found
        )
