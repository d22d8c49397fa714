"""Multi-query execution: concurrent searches sharing detector work.

The paper treats queries one at a time, but its cost argument (§I: GPU
time is the budget) makes sharing obvious: an object detector emits
boxes for *all* categories in a frame at the same cost as one, so two
concurrent searches ("find 20 buses" and "find 20 trucks") should share
every processed frame instead of sampling twice.

:class:`MultiQueryExSample` runs one Algorithm-1 loop for several
distinct-object queries at once:

* one detector call per sampled frame, fanned out to one discriminator
  and one per-chunk ``(N1, n)`` table **per query** — each query keeps
  its own Eq. III.1 estimates, so the theory of §III applies per query
  unchanged;
* chunk choice maximizes the *combined* expected yield: each active
  query contributes its own Thompson draw (Eq. III.4) and the sampler
  takes the arg-max of the sum — the natural multi-objective extension
  of line 6, since expectations of new results add across queries;
* a query that reaches its limit drops out of the sum, so remaining
  samples automatically re-focus on the still-active queries' hot
  chunks.

The win over running the queries back-to-back is bounded by the number
of queries (perfect overlap) and floored at ~1x (disjoint hot regions);
`benchmarks/test_bench_multiquery.py` measures it on profile data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from ..detection.detector import Detector
from ..detection.execution import batch_detect
from ..tracking.discriminator import Discriminator
from ..video.repository import VideoRepository
from .belief import DEFAULT_ALPHA0, DEFAULT_BETA0, GammaBelief
from .chunking import Chunk
from .estimator import ChunkStatistics
from .policies import masked_argmax_rows
from .rng import DecisionRng
from .sampler import SamplingHistory

__all__ = ["QueryState", "MultiQueryExSample"]


@dataclass
class QueryState:
    """One query's live state inside the shared loop."""

    category: str
    limit: int
    discriminator: Discriminator
    stats: ChunkStatistics
    history: SamplingHistory

    @property
    def results_found(self) -> int:
        return self.discriminator.result_count()

    @property
    def satisfied(self) -> bool:
        return self.results_found >= self.limit


class MultiQueryExSample:
    """Concurrent distinct-object queries over one chunked repository.

    Parameters
    ----------
    chunks:
        Shared temporal partition (all queries see the same chunks).
    detector:
        Must return detections for **all** queried categories (build it
        with ``category=None`` so nothing is filtered at the source).
    limits:
        Mapping of category -> result limit, one entry per query.
    discriminator_factory:
        Builds a fresh discriminator per category.
    batch_size:
        Frames per iteration (§III-F batched sampling applied to the
        shared loop): each iteration takes ``batch_size`` arg-maxes of
        the summed Thompson draws, issues the whole batch to the
        detector as one call, and applies the per-query updates in batch
        order (they commute).  ``1`` reproduces the serial loop exactly.
    """

    def __init__(
        self,
        chunks: Sequence[Chunk],
        detector: Detector,
        limits: Mapping[str, int],
        discriminator_factory: Callable[[str], Discriminator],
        alpha0: float = DEFAULT_ALPHA0,
        beta0: float = DEFAULT_BETA0,
        rng=None,
        repository: VideoRepository | None = None,
        batch_size: int = 1,
    ):
        if not chunks:
            raise ValueError("need at least one chunk")
        if not limits:
            raise ValueError("need at least one query")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for category, limit in limits.items():
            if limit <= 0:
                raise ValueError(f"limit for {category!r} must be positive")
        self._chunks = list(chunks)
        self._detector = detector
        self._belief = GammaBelief(alpha0, beta0)
        self._rng = rng if rng is not None else DecisionRng()
        self._repository = repository
        self._batch_size = batch_size
        self._queries = {
            category: QueryState(
                category=category,
                limit=limit,
                discriminator=discriminator_factory(category),
                stats=ChunkStatistics(len(self._chunks)),
                history=SamplingHistory(),
            )
            for category, limit in limits.items()
        }
        self._available = [not c.exhausted for c in self._chunks]
        self._frames_processed = 0

    # ------------------------------------------------------------ properties

    @property
    def queries(self) -> dict[str, QueryState]:
        return dict(self._queries)

    @property
    def frames_processed(self) -> int:
        return self._frames_processed

    @property
    def all_satisfied(self) -> bool:
        return all(q.satisfied for q in self._queries.values())

    @property
    def exhausted(self) -> bool:
        return not any(self._available)

    def active_categories(self) -> list[str]:
        return [c for c, q in self._queries.items() if not q.satisfied]

    # ------------------------------------------------------------- ingestion

    def extend(self, new_chunks: Sequence[Chunk]) -> None:
        """Absorb chunks for newly ingested footage into the shared loop.

        Mirrors :meth:`repro.core.sampler.ExSample.extend`: every query's
        per-chunk ``(N1, n)`` table gains zero-count arms, existing arms'
        statistics are untouched, and no RNG draws are consumed — so
        queries already in flight keep their sampling streams while the
        summed-Thompson choice starts exploring the new footage from the
        shared prior.
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
        for query in self._queries.values():
            query.stats.extend(len(new_chunks))
        self._available.extend(not c.exhausted for c in new_chunks)

    # ------------------------------------------------------------- execution

    def step(self) -> int:
        """Process one iteration — one frame per still-active query, or a
        whole §III-F batch when ``batch_size > 1`` — and return the last
        sampled frame index (*the* frame index when ``batch_size == 1``)."""
        return self.step_batch()[-1]

    def step_batch(self, batch_size: int | None = None) -> list[int]:
        """One shared-loop iteration, returning every sampled frame index.

        Stage 1 takes ``batch_size`` arg-maxes (defaulting to the
        engine's own) of the summed per-query Thompson draws (the active
        set is frozen for the iteration); stage 2 issues the whole batch
        to the shared detector as one
        :func:`~repro.detection.execution.batch_detect` call; stage 3
        applies each query's (d0, d1) updates frame-by-frame in batch
        order — commutative per §III-F, so the answer matches sequential
        processing of the same frames.
        """
        if batch_size is None:
            batch_size = self._batch_size
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.exhausted:
            raise RuntimeError("all chunks are exhausted")
        active = [q for q in self._queries.values() if not q.satisfied]
        if not active:
            raise RuntimeError("all queries are satisfied")

        # combined Thompson score: sum of per-query draws per chunk, one
        # independent draw-set per batch slot, the per-query matrices
        # folded left to right.
        draws_per_query = [
            self._belief.sample(query.stats, self._rng, size=batch_size)
            for query in active
        ]
        combined = draws_per_query[0]
        for draws in draws_per_query[1:]:
            combined = combined + draws
        pending: list[tuple[int, int]] = []  # (chunk, frame)
        for r in range(batch_size):
            if not any(self._available):
                break  # the batch drained every chunk
            # re-masked per batch slot: a pick can drain a chunk mid-batch
            chunk_idx = int(
                masked_argmax_rows(combined[r : r + 1], self._available)[0]
            )
            chunk = self._chunks[chunk_idx]
            frame = chunk.sample()
            if chunk.exhausted:
                self._available[chunk_idx] = False
            pending.append((chunk_idx, frame))

        frames = [frame for _, frame in pending]
        if self._repository is not None:
            for frame in frames:
                self._repository.read(frame)
        detections_per_frame = batch_detect(self._detector, frames)
        self._frames_processed += len(frames)

        for (chunk_idx, frame), detections in zip(pending, detections_per_frame):
            for query in active:
                relevant = [d for d in detections if d.category == query.category]
                outcome = query.discriminator.observe(frame, relevant)
                query.stats.record(chunk_idx, outcome.d0, outcome.d1)
                query.history.append(
                    frame, outcome.d0, query.discriminator.result_count()
                )
        return frames

    def steps(self, max_samples: int | None = None) -> Iterator[int]:
        """Incremental form of :meth:`run`: yields each sampled frame index.

        Stopping clauses are re-evaluated between iterations, so the
        shared loop can be suspended after any iteration and interleaved
        with other engines (the serving layer's scheduling seam).
        Exhausting the generator leaves the engine in exactly the state
        :meth:`run` would.  When ``max_samples`` binds mid-batch, the
        final iteration runs a smaller batch so the budget is honored
        exactly.
        """
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive")

        def generate() -> Iterator[int]:
            while not self.exhausted and not self.all_satisfied:
                if max_samples is not None and self._frames_processed >= max_samples:
                    return
                size = self._batch_size
                if max_samples is not None:
                    size = min(size, max_samples - self._frames_processed)
                yield from self.step_batch(batch_size=size)

        # validation above fires at call time; only the loop is deferred
        return generate()

    def run(self, max_samples: int | None = None) -> dict[str, QueryState]:
        """Run until every limit is met, the budget ends, or exhaustion.
        Thin wrapper over :meth:`steps`."""
        for _ in self.steps(max_samples=max_samples):
            pass
        return self.queries
