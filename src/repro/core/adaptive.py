"""Automated chunking — the other §VII future-work direction.

§IV-C shows the chunk count is a delicate external knob: too few chunks
cap the exploitable skew, too many pay an exploration tax (every chunk
must be sampled before it can be ranked).  This module removes the knob:
:class:`AdaptiveExSample` starts from a coarse partition and **splits a
chunk in two once enough samples concentrate in it**, inheriting the
parent's statistics.

Why this preserves the §III machinery:

* each split partitions a chunk's frame range at its midpoint; the
  already-sampled frames are assigned to the side containing them, so
  ``n_child`` stays exactly "frames sampled from that span" — the
  quantity Eq. III.1 needs;
* ``N1`` is attributed **per first-sighting frame**: the sampler records
  where each currently-singleton result was first found, so a split
  hands each side exactly the singletons its span produced.  (A naive
  proportional split would leave *phantom credit* in barren halves —
  inherited N1 that sampling can never decrement because the span yields
  ``d0 = d1 = 0`` — and the belief would keep steering samples there.)
  The same bookkeeping retires a second-sighted result from the chunk
  that first saw it, i.e. the footnote-1 cross-chunk adjustment comes
  for free here;
* exploration cost stays low: with ``initial_chunks = 8`` the cold-start
  tax is 8 samples, yet sustained success in a region keeps halving its
  chunks until ``min_chunk_frames``, approaching the fine-partition
  optimal-allocation ceiling of Fig. 4 without ever ranking 1024 cold
  arms.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..detection.detector import Detector
from ..tracking.discriminator import Discriminator
from ..video.repository import VideoRepository
from .belief import DEFAULT_ALPHA0, DEFAULT_BETA0
from .sampler import SamplingHistory, StepRecord, process_frame_detailed

__all__ = ["AdaptiveChunk", "AdaptiveExSample"]


class AdaptiveChunk:
    """A splittable chunk: a frame span plus its sampling state.

    Tracks its own sampled-frame set (needed to partition correctly on
    split) and the first-sighting frame of every currently-singleton
    result it produced (``singletons``), so N1 can be partitioned
    *exactly* on split.  ``anonymous_n1`` counts singletons without
    result provenance (detections lacking a ``true_instance_id``, e.g.
    tracking-only results); those stay with the chunk that saw them.
    ``n == len(sampled)`` is an invariant: adaptive chunks only ever
    record one sample per draw.
    """

    __slots__ = ("start", "end", "sampled", "singletons", "anonymous_n1")

    def __init__(self, start: int, end: int):
        if end <= start:
            raise ValueError("chunk must contain at least one frame")
        self.start = start
        self.end = end
        self.sampled: set[int] = set()
        self.singletons: dict[int, int] = {}  # result id -> first-sighting frame
        self.anonymous_n1 = 0.0

    @property
    def num_frames(self) -> int:
        return self.end - self.start

    @property
    def n(self) -> int:
        return len(self.sampled)

    @property
    def n1(self) -> float:
        """Results seen exactly once whose first sighting lies here."""
        return len(self.singletons) + self.anonymous_n1

    @property
    def exhausted(self) -> bool:
        return self.n >= self.num_frames

    def draw(self, rng) -> int:
        """One uniform not-yet-sampled frame from the span."""
        free = self.num_frames - self.n
        if free <= 0:
            raise RuntimeError("drawing from an exhausted adaptive chunk")
        if free <= 8 or self.n * 2 >= self.num_frames:
            left = [f for f in range(self.start, self.end) if f not in self.sampled]
            frame = left[int(rng.integers(len(left)))]
        else:
            while True:
                frame = int(rng.integers(self.start, self.end))
                if frame not in self.sampled:
                    break
        self.sampled.add(frame)
        return frame

    def split(self) -> tuple["AdaptiveChunk", "AdaptiveChunk"]:
        """Halve the span; children partition samples and singletons by
        frame position (exact N1 bookkeeping — no phantom credit)."""
        if self.num_frames < 2:
            raise ValueError("cannot split a single-frame chunk")
        mid = self.start + self.num_frames // 2
        left = AdaptiveChunk(self.start, mid)
        right = AdaptiveChunk(mid, self.end)
        left.sampled = {f for f in self.sampled if f < mid}
        right.sampled = self.sampled - left.sampled
        for result_id, frame in self.singletons.items():
            (left if frame < mid else right).singletons[result_id] = frame
        # anonymous singletons carry no location; split by sample counts
        # (they are rare — only provenance-free detections create them).
        if self.n > 0:
            left.anonymous_n1 = self.anonymous_n1 * (left.n / self.n)
            right.anonymous_n1 = self.anonymous_n1 - left.anonymous_n1
        else:
            left.anonymous_n1 = self.anonymous_n1 / 2.0
            right.anonymous_n1 = self.anonymous_n1 - left.anonymous_n1
        return left, right


class AdaptiveExSample:
    """Algorithm 1 with self-refining chunks (§VII "automating chunking").

    The public surface matches :class:`~repro.core.sampler.ExSample`
    (``step`` / ``run`` / ``history`` / ``results_found`` / ...), so the
    experiment runner and metrics treat both identically.

    Parameters
    ----------
    total_frames:
        The repository's frame-index space ``[0, total_frames)``.
    initial_chunks:
        Size of the starting partition; keep it small — splitting supplies
        the resolution later.
    split_after:
        Sample count in one chunk that triggers a split.  Lower values
        refine faster but dilute per-chunk evidence.
    split_min_n1:
        Minimum current N1 for a chunk to be split.  Splitting *cold*
        chunks only multiplies the arms the bandit must keep ranking (the
        Fig. 4 exploration tax, self-inflicted); resolution is only
        useful where results are actually being found.
    min_chunk_frames:
        Never split below this span (≈ the longest expected object
        duration keeps one object in one chunk).
    max_chunks:
        Hard cap on the partition size.
    """

    def __init__(
        self,
        total_frames: int,
        detector: Detector,
        discriminator: Discriminator,
        initial_chunks: int = 8,
        split_after: int = 32,
        split_min_n1: float = 1.0,
        min_chunk_frames: int = 256,
        max_chunks: int = 4096,
        alpha0: float = DEFAULT_ALPHA0,
        beta0: float = DEFAULT_BETA0,
        rng=None,
        repository: VideoRepository | None = None,
    ):
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        if not 1 <= initial_chunks <= total_frames:
            raise ValueError("initial_chunks must lie in [1, total_frames]")
        if split_after <= 0:
            raise ValueError("split_after must be positive")
        if split_min_n1 < 0:
            raise ValueError("split_min_n1 must be non-negative")
        if min_chunk_frames <= 1:
            raise ValueError("min_chunk_frames must exceed one frame")
        if max_chunks < initial_chunks:
            raise ValueError("max_chunks must be >= initial_chunks")
        if alpha0 <= 0 or beta0 <= 0:
            raise ValueError("prior parameters must be positive")
        self._detector = detector
        self._discriminator = discriminator
        self._split_after = split_after
        self._split_min_n1 = split_min_n1
        self._min_chunk_frames = min_chunk_frames
        self._max_chunks = max_chunks
        self._alpha0 = alpha0
        self._beta0 = beta0
        self._rng = rng if rng is not None else np.random.default_rng()
        self._repository = repository
        self._history = SamplingHistory()
        edges = np.linspace(0, total_frames, initial_chunks + 1).round().astype(np.int64)
        self._chunks = [
            AdaptiveChunk(int(edges[k]), int(edges[k + 1]))
            for k in range(initial_chunks)
        ]
        self._splits_performed = 0
        self._singleton_owner: dict[int, AdaptiveChunk] = {}

    # ------------------------------------------------------------ properties

    @property
    def chunks(self) -> list[AdaptiveChunk]:
        return list(self._chunks)

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def splits_performed(self) -> int:
        return self._splits_performed

    @property
    def history(self) -> SamplingHistory:
        return self._history

    @property
    def discriminator(self) -> Discriminator:
        return self._discriminator

    @property
    def results_found(self) -> int:
        return self._discriminator.result_count()

    @property
    def frames_processed(self) -> int:
        return len(self._history)

    @property
    def exhausted(self) -> bool:
        return all(c.exhausted for c in self._chunks)

    # ------------------------------------------------------------- execution

    def step(self) -> list[StepRecord]:
        """One Algorithm-1 iteration over the current (mutable) partition."""
        if self.exhausted:
            raise RuntimeError("all chunks are exhausted")
        idx = self._thompson_pick()
        chunk = self._chunks[idx]
        frame = chunk.draw(self._rng)
        outcome = process_frame_detailed(
            frame, self._detector, self._discriminator, self._repository
        )
        d0, d1 = outcome.d0, outcome.d1
        self._apply_outcome(chunk, frame, outcome)
        total = self._discriminator.result_count()
        self._history.append(frame, d0, total)
        record = StepRecord(
            sample_index=len(self._history),
            chunk=idx,
            frame_index=frame,
            d0=d0,
            d1=d1,
            results_total=total,
        )
        self._maybe_split(idx)
        return [record]

    def run(
        self,
        result_limit: int | None = None,
        max_samples: int | None = None,
        callback: Callable[[StepRecord], None] | None = None,
    ) -> SamplingHistory:
        """Same contract as :meth:`repro.core.sampler.ExSample.run`."""
        if result_limit is not None and result_limit <= 0:
            raise ValueError("result_limit must be positive")
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive")
        while not self.exhausted:
            if result_limit is not None and self.results_found >= result_limit:
                break
            if max_samples is not None and self.frames_processed >= max_samples:
                break
            for record in self.step():
                if callback is not None:
                    callback(record)
        return self._history

    # ------------------------------------------------------------- internals

    def _apply_outcome(self, chunk: AdaptiveChunk, frame: int, outcome) -> None:
        """Exact N1 bookkeeping: new singletons register their
        first-sighting frame here; second sightings retire the singleton
        from whichever chunk currently owns it."""
        for det in outcome.new_detections:
            key = det.true_instance_id
            if key is None:
                chunk.anonymous_n1 += 1.0
            elif key not in self._singleton_owner:
                chunk.singletons[key] = frame
                self._singleton_owner[key] = chunk
        for det in outcome.second_sightings:
            key = det.true_instance_id
            if key is None:
                chunk.anonymous_n1 = max(0.0, chunk.anonymous_n1 - 1.0)
                continue
            owner = self._singleton_owner.pop(key, None)
            if owner is not None:
                owner.singletons.pop(key, None)

    def _thompson_pick(self) -> int:
        """Gamma-Thompson draw over the current partition (Eq. III.4)."""
        alphas = np.array([c.n1 for c in self._chunks]) + self._alpha0
        betas = np.array([float(c.n) for c in self._chunks]) + self._beta0
        draws = self._rng.gamma(shape=alphas, scale=1.0 / betas)
        draws[np.array([c.exhausted for c in self._chunks])] = -np.inf
        return int(np.argmax(draws))

    def _maybe_split(self, idx: int) -> None:
        chunk = self._chunks[idx]
        if (
            len(self._chunks) < self._max_chunks
            and chunk.n >= self._split_after
            and chunk.n1 >= self._split_min_n1
            and chunk.num_frames >= 2 * self._min_chunk_frames
        ):
            left, right = chunk.split()
            self._chunks[idx : idx + 1] = [left, right]
            for child in (left, right):
                for key in child.singletons:
                    self._singleton_owner[key] = child
            self._splits_performed += 1
