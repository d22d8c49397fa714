"""Object instances: the ground-truth unit of a distinct object query.

The paper's queries count *distinct object instances*, not detections.  An
:class:`ObjectInstance` records everything the substrate knows about one
physical object: its class label, the frames where it is visible, and its
box trajectory.  The per-instance sampling probability ``p_i`` of §III-A is
simply its visible duration divided by the number of frames in scope.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from .geometry import Box, Trajectory

__all__ = ["ObjectInstance", "InstanceSet"]


@dataclass(frozen=True)
class ObjectInstance:
    """One distinct object with a single contiguous visibility interval.

    The evaluation datasets in the paper overwhelmingly feature objects with
    one contiguous appearance (a traffic light passed once, a parked car).
    Objects that reappear are modelled as separate instances with a shared
    ``group_id``, mirroring how the paper's ground truth (IoU tracking) would
    also split them.
    """

    instance_id: int
    category: str
    trajectory: Trajectory
    group_id: int | None = None

    @property
    def start_frame(self) -> int:
        return self.trajectory.start_frame

    @property
    def end_frame(self) -> int:
        return self.trajectory.end_frame

    @property
    def duration(self) -> int:
        return self.trajectory.duration

    def visible_at(self, frame: int) -> bool:
        return self.trajectory.covers(frame)

    def box_at(self, frame: int) -> Box:
        return self.trajectory.box_at(frame)

    def probability(self, total_frames: int) -> float:
        """The ``p_i`` of §III-A relative to a scope of ``total_frames``."""
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        return self.duration / total_frames


class InstanceSet:
    """An indexed collection of instances supporting fast frame lookup.

    ``visible_in(frame)`` is the hot path: the simulated detector calls it
    once per sampled frame.  We build an interval index (sorted starts plus a
    running maximum of ends) so lookup cost is ``O(log N + K)`` for K visible
    instances rather than a scan of all N.
    """

    def __init__(self, instances: Iterable[ObjectInstance]):
        self._instances: list[ObjectInstance] = sorted(
            instances, key=lambda inst: (inst.start_frame, inst.instance_id)
        )
        ids = [inst.instance_id for inst in self._instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate instance ids")
        self._by_id = {inst.instance_id: inst for inst in self._instances}
        self._starts = [inst.start_frame for inst in self._instances]
        ends = [inst.end_frame for inst in self._instances]
        # prefix maximum of end frames enables pruning the backward scan:
        # all instances before index k have ended once max_end[:k] <= frame.
        self._prefix_max_end = list(accumulate(ends, max))

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[ObjectInstance]:
        return iter(self._instances)

    def __getitem__(self, instance_id: int) -> ObjectInstance:
        return self._by_id[instance_id]

    def __contains__(self, instance_id: int) -> bool:
        return instance_id in self._by_id

    @property
    def categories(self) -> list[str]:
        """Sorted unique category labels present in the set."""
        return sorted({inst.category for inst in self._instances})

    def of_category(self, category: str) -> "InstanceSet":
        return InstanceSet(inst for inst in self._instances if inst.category == category)

    def visible_in(self, frame: int, category: str | None = None) -> list[ObjectInstance]:
        """All instances visible in ``frame``, optionally of one category."""
        if not self._instances:
            return []
        # candidates: instances starting at or before `frame`
        hi = bisect.bisect_right(self._starts, frame)
        visible = []
        for idx in range(hi - 1, -1, -1):
            if self._prefix_max_end[idx] <= frame:
                break  # nothing earlier can still be live
            inst = self._instances[idx]
            if inst.end_frame > frame:
                if category is None or inst.category == category:
                    visible.append(inst)
        visible.reverse()
        return visible

    def durations(self):
        """Per-instance visible durations."""
        return np.asarray([inst.duration for inst in self._instances], dtype=np.int64)

    def probabilities(self, total_frames: int):
        """Vector of ``p_i`` for all instances relative to ``total_frames``."""
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        return self.durations() / float(total_frames)

    def count_in_range(self, start: int, end: int) -> int:
        """Instances whose midpoint falls in ``[start, end)``.

        Midpoint assignment gives each instance exactly one home chunk,
        which is how Fig. 6 histograms assign instances to chunks.
        """
        count = 0
        for inst in self._instances:
            mid = (inst.start_frame + inst.end_frame) // 2
            if start <= mid < end:
                count += 1
        return count

    def ids(self) -> list[int]:
        return [inst.instance_id for inst in self._instances]
