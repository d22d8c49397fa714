"""Detection-to-track association by greedy IoU matching.

SORT-style trackers associate detections with existing tracks by solving a
bipartite matching on the IoU matrix.  Full Hungarian assignment is
overkill at the densities video queries see; like many SORT
implementations we use the greedy variant: repeatedly take the highest
remaining IoU above threshold and remove its row and column.  For
well-separated objects (the common case) this equals the optimal
assignment.
"""

from __future__ import annotations

import numpy as np

__all__ = ["greedy_match", "MatchResult"]


class MatchResult:
    """Outcome of one association round.

    ``pairs`` maps detection index -> track index for every match made;
    ``unmatched_detections`` and ``unmatched_tracks`` list the leftovers.
    """

    def __init__(
        self,
        pairs: dict[int, int],
        unmatched_detections: list[int],
        unmatched_tracks: list[int],
    ):
        self.pairs = pairs
        self.unmatched_detections = unmatched_detections
        self.unmatched_tracks = unmatched_tracks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchResult(pairs={self.pairs}, "
            f"unmatched_detections={self.unmatched_detections}, "
            f"unmatched_tracks={self.unmatched_tracks})"
        )


def greedy_match(iou: np.ndarray, threshold: float = 0.5) -> MatchResult:
    """Greedily match rows (detections) to columns (tracks).

    ``iou`` is the 2-D ndarray :func:`repro.video.geometry.iou_matrix`
    produces.  Each round takes the *first* maximum in row-major order
    (``np.argmax`` on the flattened matrix), then masks its row and
    column.  Ties below ``threshold`` are never matched.  Complexity is
    O(K · N·M) for K matches, in numpy, which is trivial at per-frame
    scales.
    """
    if iou.ndim != 2:
        raise ValueError("iou must be a 2-D matrix")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    num_dets, num_tracks = (int(n) for n in iou.shape)
    pairs: dict[int, int] = {}
    if num_dets and num_tracks:
        scores = np.array(iou, dtype=np.float64)  # masked as rows/columns match
        while True:
            det, track = divmod(int(np.argmax(scores)), num_tracks)
            best = float(scores[det, track])
            if best < threshold or best <= 0.0:
                break
            pairs[det] = track
            scores[det, :] = -1.0
            scores[:, track] = -1.0

    unmatched_dets = [d for d in range(num_dets) if d not in pairs]
    matched_tracks = set(pairs.values())
    unmatched_tracks = [t for t in range(num_tracks) if t not in matched_tracks]
    return MatchResult(pairs, unmatched_dets, unmatched_tracks)
