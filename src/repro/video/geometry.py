"""Bounding-box geometry for the synthetic video substrate.

The paper treats object detections as axis-aligned boxes and matches them
with Intersection-over-Union (IoU), following SORT [Bewley et al. 2016].
This module provides the box algebra everything else builds on: a small
immutable :class:`Box` value type, vectorized IoU over numpy arrays, and
:class:`Trajectory`, a piecewise-linear motion model that yields a box for
every frame in which an object instance is visible.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Box",
    "iou",
    "iou_matrix",
    "Trajectory",
]


@dataclass(frozen=True, slots=True)
class Box:
    """An axis-aligned bounding box in pixel coordinates.

    Uses the ``(x1, y1, x2, y2)`` corner convention with ``x1 <= x2`` and
    ``y1 <= y2``.  Degenerate (zero-area) boxes are allowed; they arise
    naturally when an object is about to leave the frame.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"box corners out of order: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def intersection(self, other: "Box") -> float:
        """Area of overlap with ``other`` (zero when disjoint)."""
        iw = min(self.x2, other.x2) - max(self.x1, other.x1)
        ih = min(self.y2, other.y2) - max(self.y1, other.y1)
        if iw <= 0.0 or ih <= 0.0:
            return 0.0
        return iw * ih

    def union(self, other: "Box") -> float:
        """Area of the set union with ``other``."""
        return self.area + other.area - self.intersection(other)

    def iou(self, other: "Box") -> float:
        """Intersection over union with ``other``, in [0, 1]."""
        inter = self.intersection(other)
        if inter == 0.0:
            return 0.0
        return inter / (self.area + other.area - inter)

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scale(self, factor: float) -> "Box":
        """Scale about the box center, keeping the center fixed."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        cx, cy = self.center
        hw = self.width * factor / 2.0
        hh = self.height * factor / 2.0
        return Box(cx - hw, cy - hh, cx + hw, cy + hh)

    def clip(self, width: float, height: float) -> "Box":
        """Clip to an image of the given dimensions."""
        x1 = min(max(self.x1, 0.0), width)
        y1 = min(max(self.y1, 0.0), height)
        x2 = min(max(self.x2, 0.0), width)
        y2 = min(max(self.y2, 0.0), height)
        return Box(x1, y1, x2, y2)

    def contains_point(self, x: float, y: float) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def to_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def to_array(self):
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @staticmethod
    def from_array(arr: Sequence[float]) -> "Box":
        if len(arr) != 4:
            raise ValueError("expected 4 coordinates")
        return Box(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]))

    @staticmethod
    def from_center(cx: float, cy: float, width: float, height: float) -> "Box":
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return Box(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)


def iou(a: Box, b: Box) -> float:
    """Convenience wrapper over :meth:`Box.iou`."""
    return a.iou(b)


def iou_matrix(boxes_a, boxes_b):
    """Pairwise IoU between two box collections.

    Accepts sequences of :class:`Box` or ``(N, 4)`` float arrays in
    corner convention.  Returns an ``(len(a), len(b))`` ndarray.  Empty
    inputs yield empty matrices, which keeps tracker code branch-free.
    """
    a = _as_box_array(boxes_a)
    b = _as_box_array(boxes_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)

    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    iw = np.clip(ix2 - ix1, 0.0, None)
    ih = np.clip(iy2 - iy1, 0.0, None)
    inter = iw * ih

    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def _as_box_array(boxes):
    if isinstance(boxes, np.ndarray):
        if boxes.ndim != 2 or boxes.shape[1] != 4:
            raise ValueError("box array must have shape (N, 4)")
        return boxes.astype(np.float64, copy=False)
    return np.array(
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


class Trajectory:
    """A piecewise-linear box trajectory over a frame interval.

    An instance visible from ``start_frame`` (inclusive) to ``end_frame``
    (exclusive) is described by keyframe boxes; boxes for in-between frames
    are linearly interpolated.  This is how the synthetic substrate gives the
    SORT-like discriminator realistic, smoothly-moving detections to match.
    """

    def __init__(self, keyframes: Sequence[tuple[int, Box]]):
        if not keyframes:
            raise ValueError("trajectory needs at least one keyframe")
        ordered = sorted(keyframes, key=lambda kv: kv[0])
        frames = [f for f, _ in ordered]
        if len(set(frames)) != len(frames):
            raise ValueError("duplicate keyframe frame indices")
        # plain lists/tuples: per-frame interpolation over 4 floats gains
        # nothing from vectorization.
        self._frames = frames
        self._coords = [(b.x1, b.y1, b.x2, b.y2) for _, b in ordered]

    @property
    def start_frame(self) -> int:
        """First frame (inclusive) covered by the trajectory."""
        return self._frames[0]

    @property
    def end_frame(self) -> int:
        """One past the last keyframe, so the span is ``[start, end)``."""
        return self._frames[-1] + 1

    @property
    def duration(self) -> int:
        """Number of frames in which the object is visible."""
        return self.end_frame - self.start_frame

    def covers(self, frame: int) -> bool:
        return self.start_frame <= frame < self.end_frame

    def box_at(self, frame: int) -> Box:
        """Interpolated box at ``frame``; raises if outside the span."""
        if not self.covers(frame):
            raise ValueError(
                f"frame {frame} outside trajectory span [{self.start_frame}, {self.end_frame})"
            )
        idx = bisect.bisect_right(self._frames, frame) - 1
        f0 = self._frames[idx]
        if f0 == frame or idx == len(self._frames) - 1:
            return Box.from_array(self._coords[idx])
        f1 = self._frames[idx + 1]
        t = (frame - f0) / (f1 - f0)
        c0 = self._coords[idx]
        c1 = self._coords[idx + 1]
        coords = tuple((1.0 - t) * p0 + t * p1 for p0, p1 in zip(c0, c1))
        return Box.from_array(coords)

    @staticmethod
    def linear(start_frame: int, duration: int, start_box: Box, end_box: Box) -> "Trajectory":
        """Straight-line motion from ``start_box`` to ``end_box``.

        ``duration`` counts frames; a duration of 1 produces a single
        stationary keyframe.
        """
        if duration < 1:
            raise ValueError("duration must be >= 1")
        if duration == 1:
            return Trajectory([(start_frame, start_box)])
        return Trajectory([(start_frame, start_box), (start_frame + duration - 1, end_box)])

    @staticmethod
    def stationary(start_frame: int, duration: int, box: Box) -> "Trajectory":
        """An object that does not move (static-camera parked car, etc.)."""
        return Trajectory.linear(start_frame, duration, box, box)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trajectory(span=[{self.start_frame}, {self.end_frame}), "
            f"keyframes={len(self._frames)})"
        )
