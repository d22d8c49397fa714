"""Algorithm 1: the ExSample sampling loop (serial and batched).

The loop has three parts per iteration (§III-E):

1. **choice** — Thompson-sample the Gamma belief of every chunk, pick the
   arg-max chunk, draw a frame from that chunk's without-replacement order;
2. **io / decode / detect / match** — read the frame, run the detector,
   let the discriminator split detections into new objects (``d0``) and
   second sightings (``d1``);
3. **update** — ``N1[j*] += |d0| - |d1|``; ``n[j*] += 1``; store the new
   detections.

The batched variant (§III-F) draws ``B`` Thompson samples per chunk, takes
``B`` arg-maxes, processes the batch, and applies the commutative state
updates together — the GPU-batching optimization, reproduced faithfully so
its effect on result quality can be measured even though there is no GPU
here.

The iteration is split into two public halves — :meth:`ExSample.plan`
(stage 1: pure choice, no detections needed) and :meth:`ExSample.commit`
(stages 2+3, issuing the whole batch to the detector as one
:func:`~repro.detection.execution.batch_detect` call) — so execution
layers can batch, parallelize, and coalesce detector work across
concurrent queries without perturbing any sampling decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..detection.detector import Detection, Detector
from ..detection.execution import batch_detect
from ..tracking.discriminator import Discriminator
from ..video.repository import VideoRepository
from .chunking import Chunk
from .estimator import ChunkStatistics
from .policies import ChunkPolicy, ThompsonSampling, masked_argmax_rows
from .rng import DecisionRng, gamma_matrices

__all__ = [
    "StepRecord",
    "SamplingHistory",
    "ExSample",
    "plan_many",
    "process_frame",
    "process_frame_detailed",
]


@dataclass(frozen=True)
class StepRecord:
    """One processed frame: where it came from and what it yielded."""

    sample_index: int  # 1-based count of frames processed so far
    chunk: int
    frame_index: int
    d0: int
    d1: int
    results_total: int


class SamplingHistory:
    """Append-only log of a sampling run, shared by all methods.

    Stores the cumulative results curve (distinct results after each
    processed frame), which every figure in the evaluation is drawn from.
    """

    def __init__(self) -> None:
        self._d0: list[int] = []
        self._results: list[int] = []
        self._frames: list[int] = []

    def append(self, frame_index: int, d0: int, results_total: int) -> None:
        self._frames.append(frame_index)
        self._d0.append(d0)
        self._results.append(results_total)

    def __len__(self) -> int:
        return len(self._results)

    @property
    def samples(self):
        """1-based sample counts, aligned with :attr:`results`."""
        return np.arange(1, len(self._results) + 1, dtype=np.int64)

    @property
    def results(self):
        """Cumulative distinct results after each sample."""
        return np.asarray(self._results, dtype=np.int64)

    @property
    def frame_indices(self):
        return np.asarray(self._frames, dtype=np.int64)

    @property
    def d0_counts(self):
        """Per-step count of new results, aligned with :attr:`frame_indices`
        — the decision stream differential tests compare run-for-run."""
        return np.asarray(self._d0, dtype=np.int64)

    @property
    def new_result_frames(self):
        """Frames whose processing yielded at least one *new* result —
        the frames a user would actually open to inspect their results."""
        return self.frame_indices[self.d0_counts > 0]

    def samples_to_reach(self, target_results: int) -> int | None:
        """Frames processed when ``target_results`` was first reached, or
        ``None`` if the run never got there."""
        if target_results <= 0:
            return 0
        for i, total in enumerate(self._results):
            if total >= target_results:
                return i + 1
        return None


def process_frame(
    frame_index: int,
    detector: Detector,
    discriminator: Discriminator,
    repository: VideoRepository | None = None,
) -> tuple[int, int]:
    """Stage 2 of Algorithm 1 for a single frame; returns (|d0|, |d1|)."""
    outcome = process_frame_detailed(frame_index, detector, discriminator, repository)
    return outcome.d0, outcome.d1


def process_frame_detailed(
    frame_index: int,
    detector: Detector,
    discriminator: Discriminator,
    repository: VideoRepository | None = None,
):
    """Stage 2 of Algorithm 1, returning the full
    :class:`~repro.tracking.discriminator.MatchOutcome` (the detection
    identities are needed for the cross-chunk N1 adjustment)."""
    if repository is not None:
        repository.read(frame_index)  # charge the random decode
    detections = detector.detect(frame_index)
    return discriminator.observe(frame_index, detections)


class ExSample:
    """The adaptive sampler of Algorithm 1.

    Parameters
    ----------
    chunks:
        The temporal partition (see :mod:`repro.core.chunking`); each chunk
        carries its own lazy without-replacement frame order.
    detector / discriminator:
        The black-box detector and the distinct-object discriminator.
        ``detector`` may be ``None`` for an engine whose caller always
        commits with detections in hand (the serving layer's coalesced
        tick); :meth:`commit` without them then raises ``ValueError``.
    policy:
        Chunk-selection rule; defaults to Thompson sampling with the
        paper's prior (alpha0 = 0.1, beta0 = 1).
    batch_size:
        Frames per iteration (§III-F batched sampling); 1 reproduces the
        serial Algorithm 1 exactly.
    repository:
        Optional; when given, frame reads are charged to its decode stats.
    cross_chunk_adjustment:
        Footnote-1 / technical-report refinement of Eq. III.1: when a
        second sighting (``d1``) matches a result first found in a
        *different* chunk, decrement that chunk's N1 instead of the
        currently sampled one (the +1 being cancelled lives there).
        Requires detections carrying ``true_instance_id`` provenance;
        detections without it fall back to the sampled chunk.  Off by
        default — Algorithm 1 as printed.
    """

    def __init__(
        self,
        chunks: Sequence[Chunk],
        detector: Detector | None,
        discriminator: Discriminator,
        policy: ChunkPolicy | None = None,
        rng=None,
        batch_size: int = 1,
        repository: VideoRepository | None = None,
        cross_chunk_adjustment: bool = False,
    ):
        # an empty chunk list is legal: a live query admitted over a
        # not-yet-recorded repository starts exhausted and gains its
        # first arms through extend()
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._chunks = list(chunks)
        self._detector = detector
        self._discriminator = discriminator
        self._policy = policy if policy is not None else ThompsonSampling()
        self._rng = rng if rng is not None else DecisionRng()
        self._batch_size = batch_size
        self._repository = repository
        self._cross_chunk = cross_chunk_adjustment
        self._first_chunk: dict[int, int] = {}  # true_instance_id -> chunk
        self._stats = ChunkStatistics(len(self._chunks))
        self._history = SamplingHistory()
        # one byte per chunk (1 = frames left), flat like the belief
        # buffers so the numpy argmax wraps it instead of converting it
        self._available = bytearray(not c.exhausted for c in self._chunks)
        #: wall-clock split of the last :meth:`plan` call — ``draw`` is
        #: the Thompson belief sampling (policy choice), ``score`` the
        #: frame selection that turns chunk picks into concrete frames.
        #: Surfaced by the serving layer as the plan-stage telemetry
        #: split; reading it never affects decisions.
        self.last_plan_timings: dict[str, float] = {"draw": 0.0, "score": 0.0}

    # ------------------------------------------------------------ properties

    @property
    def stats(self) -> ChunkStatistics:
        return self._stats

    @property
    def discriminator(self) -> Discriminator:
        return self._discriminator

    @property
    def chunks(self) -> list[Chunk]:
        return list(self._chunks)

    @property
    def history(self) -> SamplingHistory:
        return self._history

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def results_found(self) -> int:
        return self._discriminator.result_count()

    @property
    def frames_processed(self) -> int:
        return len(self._history)

    @property
    def exhausted(self) -> bool:
        """True once every chunk's frame order is fully consumed."""
        return not any(self._available)

    @property
    def chunk_availability(self):
        """Per-chunk mask of chunks that still have frames to sample.

        Exposed for schedulers that score a whole sampler (e.g. the
        serving layer's Thompson-sum budget allocation) and must ignore
        drained chunks exactly as the policies do.  A bool ndarray copy:
        a view would pin the buffer against extend().
        """
        return np.array(self._available, dtype=bool)

    # ------------------------------------------------------------- ingestion

    def extend(self, new_chunks: Sequence[Chunk]) -> None:
        """Absorb chunks for newly ingested footage mid-query.

        The new arms join with zero counts — every policy's belief over
        them is exactly the prior, as it would have been had they existed
        at construction — and nothing about the existing arms moves: no
        statistics change, no RNG draws are consumed (frame orders are
        lazy), no history entries appear.  A query extended this way and
        then run to completion therefore matches a query built over the
        fully materialized repository up-front, provided the chunk layout
        matches (see :class:`~repro.core.chunking.IncrementalChunker`).
        """
        new_chunks = list(new_chunks)
        if not new_chunks:
            return
        for offset, chunk in enumerate(new_chunks):
            expected = len(self._chunks) + offset
            if chunk.chunk_id != expected:
                raise ValueError(
                    f"new chunk id {chunk.chunk_id} does not continue the "
                    f"sequence (expected {expected}); derive extensions with "
                    "IncrementalChunker"
                )
        self._chunks.extend(new_chunks)
        self._stats.extend(len(new_chunks))
        self._available.extend(not c.exhausted for c in new_chunks)

    # ------------------------------------------------------------- execution

    def step(self) -> list[StepRecord]:
        """Run one iteration (one frame, or one batch when batch_size > 1).

        Equivalent to ``commit(plan())`` — the two-phase form the serving
        layer uses to coalesce detector work across sessions.
        """
        return self.commit(self.plan())

    def plan(
        self, batch_size: int | None = None, draws=None
    ) -> list[tuple[int, int]]:
        """Stage 1 of Algorithm 1 for one iteration: choose the batch.

        Returns the ``(chunk_index, frame_index)`` pairs to process —
        ``batch_size`` of them (defaulting to the sampler's own), fewer
        only when the chunks drain.  The choice consumes the sampler's
        RNG and the chunks' without-replacement orders but needs no
        detections, which is what lets a scheduler gather many sessions'
        plans into one batched detector call before any of them commits.

        ``draws`` is this plan's Thompson matrix when :func:`plan_many`
        has already drawn it (one row per frame): the picks are its
        masked arg-maxes instead of a fresh policy draw.
        """
        batch_size = self._plan_size(batch_size)
        draw_start = time.perf_counter()
        if draws is None:
            picks = self._policy.choose(
                self._stats, self._rng, self._available, batch_size=batch_size
            )
        elif len(draws) != batch_size:
            raise ValueError("draws must hold one row per planned frame")
        else:
            picks = masked_argmax_rows(draws, self._available)
        score_start = time.perf_counter()
        draw_seconds = score_start - draw_start
        redraw_seconds = 0.0
        pending: list[tuple[int, int]] = []  # (chunk, frame)
        for pick in picks:
            chunk_idx = int(pick)
            if not self._available[chunk_idx]:
                # an earlier pick in this batch drained the chunk; re-draw.
                if not any(self._available):
                    break
                redraw_start = time.perf_counter()
                chunk_idx = int(
                    self._policy.choose(
                        self._stats, self._rng, self._available, batch_size=1
                    )[0]
                )
                redraw_seconds += time.perf_counter() - redraw_start
            chunk = self._chunks[chunk_idx]
            frame = chunk.sample()
            if chunk.exhausted:
                self._available[chunk_idx] = False
            pending.append((chunk_idx, frame))
        self.last_plan_timings = {
            "draw": draw_seconds + redraw_seconds,
            "score": (time.perf_counter() - score_start) - redraw_seconds,
        }
        return pending

    def _plan_size(self, batch_size: int | None) -> int:
        """The batch :meth:`plan` would choose, after its checks."""
        if self.exhausted:
            raise RuntimeError("all chunks are exhausted")
        if batch_size is None:
            batch_size = self._batch_size
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return batch_size

    def commit(
        self,
        pending: Sequence[tuple[int, int]],
        detections: Mapping[int, Sequence[Detection]] | None = None,
    ) -> list[StepRecord]:
        """Stages 2+3 of Algorithm 1 for a planned batch.

        With ``detections=None`` the batch goes to the sampler's own
        detector as **one** batched call (:func:`batch_detect` — a
        sequential fallback for plain detectors, a fan-out over worker
        processes for the shard coordinator).  A caller
        that already ran the detector (the serving layer's coalesced
        tick) passes ``detections`` mapping each planned frame to its
        detection list instead.  Either way the frames are matched and
        recorded in plan order, so the result is identical to the
        frame-at-a-time loop; per §III-F the state updates commute.
        An engine built without a detector requires ``detections``.
        """
        if detections is None and self._detector is None:
            raise ValueError("this engine has no detector: commit with detections")
        pending = list(pending)
        frames = [frame for _, frame in pending]
        if self._repository is not None:
            for frame in frames:
                self._repository.read(frame)  # charge the random decodes
        if detections is None:
            per_frame: Sequence[Sequence[Detection]] = batch_detect(
                self._detector, frames
            )
        else:
            per_frame = [detections[frame] for frame in frames]

        records: list[StepRecord] = []
        for (chunk_idx, frame), frame_detections in zip(pending, per_frame):
            outcome = self._discriminator.observe(frame, list(frame_detections))
            d0, d1 = outcome.d0, outcome.d1
            if self._cross_chunk:
                self._record_cross_chunk(chunk_idx, outcome)
            else:
                self._stats.record(chunk_idx, d0, d1)
            total = self._discriminator.result_count()
            self._history.append(frame, d0, total)
            records.append(
                StepRecord(
                    sample_index=len(self._history),
                    chunk=chunk_idx,
                    frame_index=frame,
                    d0=d0,
                    d1=d1,
                    results_total=total,
                )
            )
        return records

    def _record_cross_chunk(self, chunk_idx: int, outcome) -> None:
        """Footnote-1 state update: d0 counts into the sampled chunk as
        usual; each d1 retires a singleton from the chunk that *first*
        found the matched result (falling back to the sampled chunk when
        provenance is unavailable)."""
        self._stats.record(chunk_idx, outcome.d0, 0)
        for det in outcome.new_detections:
            if det.true_instance_id is not None:
                self._first_chunk.setdefault(det.true_instance_id, chunk_idx)
        for det in outcome.second_sightings:
            origin = chunk_idx
            if det.true_instance_id is not None:
                origin = self._first_chunk.get(det.true_instance_id, chunk_idx)
            self._stats.retire(origin)

    def steps(
        self,
        result_limit: int | None = None,
        max_samples: int | None = None,
    ) -> Iterator[StepRecord]:
        """Incremental form of :meth:`run`: a generator of step records.

        The stopping clauses are evaluated between iterations, so the
        generator can be advanced one frame at a time, suspended after any
        yield, and interleaved with other samplers — the resumable engine
        the serving layer (:mod:`repro.serving`) schedules sessions on.
        Exhausting the generator leaves the sampler in exactly the state
        :meth:`run` would.  When ``max_samples`` binds mid-batch, the
        final iteration plans a smaller batch so the budget is honored
        exactly (``result_limit``, like the serial loop, is still only
        checked between iterations).
        """
        if result_limit is not None and result_limit <= 0:
            raise ValueError("result_limit must be positive")
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive")

        def generate() -> Iterator[StepRecord]:
            while not self.exhausted:
                if result_limit is not None and self.results_found >= result_limit:
                    return
                if max_samples is not None and self.frames_processed >= max_samples:
                    return
                size = self._batch_size
                if max_samples is not None:
                    size = min(size, max_samples - self.frames_processed)
                yield from self.commit(self.plan(batch_size=size))

        # validation above fires at call time; only the loop is deferred
        return generate()

    def run(
        self,
        result_limit: int | None = None,
        max_samples: int | None = None,
        callback: Callable[[StepRecord], None] | None = None,
    ) -> SamplingHistory:
        """Run until the limit clause, the sample budget, or exhaustion.

        ``result_limit`` mirrors the query's LIMIT; ``max_samples`` is the
        experimental budget used by the evaluation sweeps.  At least one
        of the two should normally be given; with neither, the run ends
        only when the whole repository has been sampled.  Thin wrapper
        over :meth:`steps`.
        """
        for record in self.steps(result_limit=result_limit, max_samples=max_samples):
            if callback is not None:
                callback(record)
        return self._history


def plan_many(plans) -> list[list[tuple[int, int]]]:
    """:meth:`ExSample.plan` for many samplers, with one Thompson draw.

    ``plans`` is a sequence of ``(engine, batch_size)`` pairs (``None``
    meaning the engine's own batch).  Every Thompson-sampling engine on
    a :class:`DecisionRng` contributes its request to **one**
    :func:`gamma_matrices` call; each engine then plans from its own
    matrix, through ``engine.plan`` (so whatever wraps that method sees
    every plan), in list order.  Other policies plan one at a time.
    The result is exactly what planning the engines one by one in list
    order returns, and every RNG, availability mask and chunk order
    ends where it would have: each engine's op key precedes its own
    chunk draws either way.  That needs one RNG per engine — two
    engines sharing one raise ``ValueError``, since the shared draw
    would reorder its op keys against its chunk draws.

    Each engine's ``last_plan_timings["draw"]`` is charged its element
    share of the shared draw.
    """
    plans = [(engine, engine._plan_size(size)) for engine, size in plans]
    rngs = {id(engine._rng) for engine, _ in plans}
    if len(rngs) != len(plans):
        raise ValueError(
            "engines planned together must not share an rng: one draw "
            "for all of them would reorder its op keys and chunk draws"
        )
    requests = [
        engine._policy.draw_request(
            engine._stats, engine._rng, engine._available, size
        )
        if isinstance(engine._policy, ThompsonSampling)
        and isinstance(engine._rng, DecisionRng)
        else None
        for engine, size in plans
    ]
    batched = [request for request in requests if request is not None]
    start = time.perf_counter()
    draws = iter(gamma_matrices(batched) if batched else ())
    seconds = time.perf_counter() - start
    elements = sum(len(alphas) * rows for _rng, alphas, _betas, rows in batched)
    per_element = seconds / max(elements, 1)
    out = []
    for (engine, size), request in zip(plans, requests):
        if request is None:
            out.append(engine.plan(size))
            continue
        out.append(engine.plan(size, draws=next(draws)))
        engine.last_plan_timings["draw"] += per_element * len(request[1]) * request[3]
    return out
