"""The reference model: one session, brute force, no serving stack.

The serving layer's central theorem is that a session's sampling
decisions are a pure function of its own seed, step count, warm-start
frames, and chunk-set evolution — never of tick boundaries, budget
splits, coalescing, caching, worker pools, restarts, or which other
sessions ran.  This module is the *other side* of that equation: given a
session's snapshot (spec + warm frames + horizon log + step count), it
re-runs the session **standalone** — a bare :class:`ExSample` engine over
an up-front-materialized repository, a fresh detector, no cache, no
scheduler — and :func:`reference_check` demands the decision stream match
the one the full stack logged, frame for frame.

Any hidden coupling anywhere in the stack (a cache that leaks into
decisions, a scheduler that perturbs a session's RNG, a restore that
diverges from the live run, dict-order nondeterminism in coalescing)
shows up here as a first-divergence diff with a replayable seed.

The oracle deliberately re-implements the replay contract rather than
importing the serving layer's replay helpers: a differential test is
only as strong as the independence of its two sides.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.chunking import IncrementalChunker
from ..core.rng import DecisionRng
from ..core.sampler import ExSample
from ..detection.cache import CategoryFilterDetector
from ..detection.detector import Detector
from ..serving.ingest import IngestEntry, RepositoryFeeder, apply_entry
from ..serving.session import SessionSnapshot
from ..tracking.discriminator import OracleDiscriminator
from ..video.repository import VideoRepository, empty_repository
from .invariants import InvariantViolation, check_ground_truth_containment

__all__ = [
    "ReferenceResult",
    "materialize_repositories",
    "reference_run",
    "reference_check",
]


def materialize_repositories(
    dataset_names: Sequence[str],
    entries: Sequence[IngestEntry],
    base_seed: int,
) -> dict[str, VideoRepository]:
    """The world *after* the whole journal: every dataset fully grown.

    This is the up-front materialization the ingestion-parity contract
    references — the same clips and ground truth the live run received
    incrementally, rebuilt in one pass over bare repositories.
    """
    feeder = RepositoryFeeder(
        {name: empty_repository(name) for name in dataset_names}
    )
    for index, entry in enumerate(entries):
        try:
            feeder.repository(entry.dataset)
        except KeyError:
            feeder.register(entry.dataset, empty_repository(entry.dataset))
        apply_entry(feeder, entry, index, base_seed)
    return feeder.repositories


@dataclass
class ReferenceResult:
    """What the standalone re-run produced, ready for comparison.

    The per-step sequences are the history's int64 ndarrays; the parity
    check only indexes and measures them."""

    frames: Sequence[int]  # sampled frame per committed step
    d0: Sequence[int]  # new results per committed step
    results: Sequence[int]  # cumulative results per committed step
    results_found: int
    result_frames: list[int]  # sorted; warm-start and sampled alike
    distinct_true: set[int]
    false_positive_results: int


def reference_run(
    snapshot: SessionSnapshot,
    repository: VideoRepository,
    detector: Detector,
    chunk_frames: int | None,
    use_random_plus: bool = True,
) -> ReferenceResult:
    """Re-run one session from scratch against the materialized world.

    ``detector`` must be content-equivalent to the live run's (same
    ground truth, same noise seed): detection content is a function of
    ``(detector seed, frame, instance)``, so a detector built over the
    fully grown repository reproduces exactly what the live, growing
    repository served — frame indices are immutable under append.
    """
    spec = snapshot.spec
    rng = DecisionRng(spec.seed)
    chunker = IncrementalChunker(
        repository, rng, chunk_frames=chunk_frames, use_random_plus=use_random_plus
    )
    horizon_log = [(int(s), int(h)) for s, h in snapshot.horizons]
    if not horizon_log:
        horizon_log = [(0, repository.horizon)]
    chunks = chunker.take(up_to_horizon=horizon_log[0][1])
    discriminator = OracleDiscriminator()
    engine = ExSample(
        chunks,
        CategoryFilterDetector(detector, spec.category),
        discriminator,
        rng=rng,
        batch_size=spec.batch_size,
    )

    # warm start, brute force: every recorded frame re-detected and fed
    # through the fresh discriminator into the owning chunk's statistics
    warm_result_frames: list[int] = []
    starts = [c.start_frame for c in engine.chunks]
    ends = [c.end_frame for c in engine.chunks]
    for frame in snapshot.warm_start_frames or ():
        frame = int(frame)
        pos = bisect.bisect_right(starts, frame) - 1
        if pos < 0 or frame >= ends[pos]:
            continue  # outside the admission-time chunk spans
        detections = [
            d for d in detector.detect(frame) if d.category == spec.category
        ]
        outcome = discriminator.observe(frame, detections)
        engine.stats.record(pos, outcome.d0, outcome.d1)
        if outcome.d0 > 0:
            warm_result_frames.append(frame)

    def step_to(target: int) -> None:
        while engine.frames_processed < target and not engine.exhausted:
            size = spec.batch_size
            if spec.max_samples is not None:
                size = max(1, min(size, spec.max_samples - engine.frames_processed))
            engine.commit(engine.plan(batch_size=size))

    for at_steps, horizon in horizon_log[1:]:
        step_to(at_steps)
        engine.extend(chunker.take(up_to_horizon=horizon))
    step_to(snapshot.steps_taken)

    sampled_result_frames = [int(f) for f in engine.history.new_result_frames]
    return ReferenceResult(
        frames=engine.history.frame_indices,
        d0=engine.history.d0_counts,
        results=engine.history.results,
        results_found=engine.results_found,
        result_frames=sorted(set(warm_result_frames) | set(sampled_result_frames)),
        distinct_true=discriminator.distinct_true_instances(),
        false_positive_results=discriminator.false_positive_results,
    )


def reference_check(
    seed: int,
    snapshot: SessionSnapshot,
    logged_stream: Sequence[tuple[int, int, int]],
    repository: VideoRepository,
    detector_factory: Callable[[VideoRepository], Detector],
    chunk_frames: int | None,
    use_random_plus: bool = True,
    noisy_detector: bool = False,
) -> ReferenceResult:
    """Oracle parity for one session; raises :class:`InvariantViolation`
    at the first divergence between the stack's logged decision stream
    (``(frame, d0, results)`` per committed step) and the standalone
    re-run, then applies the ground-truth containment invariants to the
    reference's own results.
    """
    sid = snapshot.session_id
    reference = reference_run(
        snapshot,
        repository,
        detector_factory(repository),
        chunk_frames,
        use_random_plus=use_random_plus,
    )
    if len(reference.frames) != len(logged_stream):
        raise InvariantViolation(
            seed,
            f"session {sid}: oracle re-run committed {len(reference.frames)} "
            f"steps, the service logged {len(logged_stream)}",
        )
    for i, (frame, d0, results) in enumerate(logged_stream):
        got = (int(reference.frames[i]), int(reference.d0[i]), int(reference.results[i]))
        if got != (int(frame), int(d0), int(results)):
            raise InvariantViolation(
                seed,
                f"session {sid}: decision stream diverges at step {i + 1}: "
                f"service logged frame={frame} d0={d0} results={results}, "
                f"oracle computed frame={got[0]} d0={got[1]} results={got[2]}",
            )
    if reference.results_found != snapshot.results_found:
        raise InvariantViolation(
            seed,
            f"session {sid}: service reports {snapshot.results_found} results, "
            f"oracle found {reference.results_found}",
        )
    if list(snapshot.result_frames) != reference.result_frames:
        raise InvariantViolation(
            seed,
            f"session {sid}: result frames differ: service "
            f"{list(snapshot.result_frames)}, oracle {reference.result_frames}",
        )
    ground_truth = {
        inst.instance_id for inst in repository.instances_of(snapshot.category)
    }
    check_ground_truth_containment(
        seed,
        sid,
        snapshot.category,
        reference.distinct_true,
        reference.false_positive_results,
        reference.results_found,
        ground_truth,
        noisy_detector,
    )
    return reference
