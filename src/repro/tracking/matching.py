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


def greedy_match(iou, threshold: float = 0.5) -> MatchResult:
    """Greedily match rows (detections) to columns (tracks).

    ``iou`` may be an ndarray (what :func:`repro.video.geometry.iou_matrix`
    produces) or a list of row lists; matching scans row-major and takes
    the *first* maximum, exactly like ``np.argmax`` on the flattened
    matrix.
    Ties below ``threshold`` are never matched.  Complexity is
    O(K · N·M) for K matches, which is trivial at per-frame scales.
    """
    if hasattr(iou, "ndim"):
        if iou.ndim != 2:
            raise ValueError("iou must be a 2-D matrix")
        num_dets, num_tracks = (int(n) for n in iou.shape)
        rows = [[float(v) for v in row] for row in iou]
    else:
        rows = [list(row) for row in iou]
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("iou must be a 2-D matrix")
        num_dets = len(rows)
        num_tracks = len(rows[0]) if rows else 0
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    pairs: dict[int, int] = {}
    if num_dets and num_tracks:
        while True:
            best = -1.0
            det = track = -1
            for d, row in enumerate(rows):
                for t, v in enumerate(row):
                    if v > best:
                        best = v
                        det, track = d, t
            if best < threshold or best <= 0.0:
                break
            pairs[det] = track
            rows[det] = [-1.0] * num_tracks
            for row in rows:
                row[track] = -1.0

    unmatched_dets = [d for d in range(num_dets) if d not in pairs]
    matched_tracks = set(pairs.values())
    unmatched_tracks = [t for t in range(num_tracks) if t not in matched_tracks]
    return MatchResult(pairs, unmatched_dets, unmatched_tracks)
