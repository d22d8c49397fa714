"""Per-chunk sampling statistics and the N1/n estimator (Eq. III.1).

ExSample's estimate of the expected number of *new* results in the next
frame sampled from chunk *j* is

    R̂_j(n_j + 1) = N1_j / n_j                                 (Eq. III.1)

where ``N1_j`` counts distinct results seen exactly once so far in chunk
*j* and ``n_j`` counts frames sampled from chunk *j*.  This is the only
state Algorithm 1 keeps per chunk; the update after processing a frame is

    N1_j += |d0| - |d1|        n_j += 1                       (Alg. 1, l.11-12)

with ``d0`` the new detections and ``d1`` those whose matched result had
been seen exactly once before.  :class:`ChunkStatistics` is the
bookkeeping for all chunks, shared by every policy in
:mod:`repro.core.policies`.

Storage is a pair of flat parallel buffers (``array('d')`` for N1,
``array('q')`` for n): scalar updates index them directly, and bulk math
wraps the very same memory zero-copy via ``np.frombuffer``.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = ["ChunkStatistics"]


class ChunkStatistics:
    """Flat (N1_j, n_j) state over M chunks.

    Invariants maintained (and asserted in tests):

    * ``n_j`` equals the number of ``record`` calls for chunk *j*;
    * ``N1_j`` never goes negative — a defensive floor, since with a
      *correct* discriminator `|d1|` can only retire results previously
      counted into N1, but a buggy or adversarial discriminator (or
      track-coverage loss) could otherwise drive it below zero;
    * chunk sample counts only grow.
    """

    def __init__(self, num_chunks: int):
        # zero chunks is legal: a live query over an empty repository has
        # no arms until ingestion delivers some (see :meth:`extend`)
        if num_chunks < 0:
            raise ValueError("num_chunks must be non-negative")
        self._n1 = array("d", bytes(8 * num_chunks))
        self._n = array("q", bytes(8 * num_chunks))
        self._total_results = 0

    @property
    def num_chunks(self) -> int:
        return len(self._n)

    # The raw buffers, for bulk consumers (belief, benches).
    # Callers must treat them as read-only; numpy views made over them
    # go stale after :meth:`extend` (the buffer reallocates), so take
    # views per operation, never cache them.

    @property
    def n1_buffer(self) -> array:
        return self._n1

    @property
    def n_buffer(self) -> array:
        return self._n

    @property
    def n1(self):
        """Read-only (locked) numpy view of the per-chunk N1 counts."""
        view = np.frombuffer(self._n1, dtype=np.float64)
        view.flags.writeable = False
        return view

    @property
    def n(self):
        """Read-only view of the per-chunk sample counts."""
        view = np.frombuffer(self._n, dtype=np.int64)
        view.flags.writeable = False
        return view

    @property
    def total_samples(self) -> int:
        return int(sum(self._n))

    @property
    def total_results(self) -> int:
        """Total distinct results recorded across all chunks."""
        return self._total_results

    def record(self, chunk: int, d0: int, d1: int) -> None:
        """Apply Algorithm 1's state update for one processed frame."""
        if d0 < 0 or d1 < 0:
            raise ValueError("d0 and d1 must be non-negative")
        self._check_chunk(chunk)
        self._n1[chunk] = max(0.0, self._n1[chunk] + d0 - d1)
        self._n[chunk] += 1
        self._total_results += d0

    def retire(self, chunk: int) -> None:
        """Retire one singleton result from ``chunk``'s N1 **without**
        charging a sample there.

        This implements the paper's footnote-1 adjustment (detailed in the
        technical report): when an instance spanning multiple chunks is
        re-seen from a *different* chunk than the one that first found it,
        the ``|d1|`` decrement belongs to the first-sighting chunk — its
        N1 holds the +1 being cancelled — while the sampled chunk keeps
        its own statistics clean.  Used by
        :class:`~repro.core.sampler.ExSample` when
        ``cross_chunk_adjustment`` is enabled.
        """
        self._check_chunk(chunk)
        self._n1[chunk] = max(0.0, self._n1[chunk] - 1.0)

    def extend(self, num_new: int) -> None:
        """Add ``num_new`` fresh arms with zero counts (live ingestion).

        New chunks start exactly as they would have at construction — no
        samples, no results — so every belief over them reduces to the
        prior, and the existing arms' statistics are untouched: extending
        mid-query cannot perturb any established estimate.
        """
        if num_new < 0:
            raise ValueError("num_new must be non-negative")
        if num_new == 0:
            return
        self._n1.extend([0.0] * num_new)
        self._n.extend([0] * num_new)

    def point_estimate(self):
        """R̂_j = N1_j / n_j with the 0/0 convention R̂ = 0 (Eq. III.1).

        Chunks never sampled have no data; the *belief* layer, not this
        point estimate, is what keeps them explorable.
        """
        n1 = np.frombuffer(self._n1, dtype=np.float64)
        n = np.frombuffer(self._n, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(n > 0, n1 / np.maximum(n, 1), 0.0)

    def _check_chunk(self, chunk: int) -> None:
        if not 0 <= chunk < self.num_chunks:
            raise IndexError(f"chunk {chunk} out of range [0, {self.num_chunks})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkStatistics(chunks={self.num_chunks}, "
            f"samples={self.total_samples}, results={self._total_results})"
        )
