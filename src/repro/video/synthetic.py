"""Generative models for synthetic video workloads.

The paper evaluates ExSample both on simulations (§III-D, §IV) and on six
real video corpora (§V).  Neither the corpora nor a GPU detector are
available here, so this module provides the generative machinery that stands
in for them:

* :func:`lognormal_probabilities` — the heavy-tailed per-instance frame
  probabilities ``p_i`` used in the §III-D estimator validation.
* :func:`lognormal_durations` — skewed instance durations with a target
  mean, as in §IV-B ("LogNormal distribution with a target mean of 700
  frames ... shortest around 50 frames, longest around 5000").
* :func:`place_instances` — drops N instances into a frame range with
  controllable *instance skew*: positions are normal-distributed so that
  95% of instances fall inside a chosen central fraction of the data
  (§IV-B's "skewed toward 1/4, 1/32, 1/256 of dataset").
* :class:`OccupancySchedule` — a fast interval index answering "which
  instances are visible in frame f", the only question the simulated
  detector ever asks.
* :func:`first_second_appearance` — exact sampling of the first and second
  appearance times of every instance under independent-presence sampling,
  which reproduces the §III-D histograms (Fig. 2) without simulating every
  frame draw.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.rng import DecisionRng
from .geometry import Box, Trajectory
from .instances import InstanceSet, ObjectInstance

__all__ = [
    "lognormal_probabilities",
    "lognormal_durations",
    "skew_fraction_to_std",
    "place_instances",
    "OccupancySchedule",
    "first_second_appearance",
    "FRAME_WIDTH",
    "FRAME_HEIGHT",
]

# Synthetic image plane dimensions (1080p, matching the paper's footage).
FRAME_WIDTH = 1920
FRAME_HEIGHT = 1080


def lognormal_probabilities(
    num_instances: int,
    rng,
    mean_p: float = 3e-3,
    sigma_log: float = 1.75,
    max_p: float = 0.5,
):
    """Heavy-tailed per-instance presence probabilities ``p_i``.

    Defaults reproduce the §III-D simulation scale: with 1000 instances the
    paper reports min ``p`` ≈ 3e-6, max ``p`` ≈ 0.15, µ_p ≈ 3e-3 and
    σ_p ≈ 8e-3.  The lognormal ``mu`` parameter is solved from the target
    mean so ``E[p] = mean_p`` regardless of ``sigma_log``.
    """
    if num_instances <= 0:
        raise ValueError("num_instances must be positive")
    if not 0.0 < mean_p < 1.0:
        raise ValueError("mean_p must lie in (0, 1)")
    mu = math.log(mean_p) - sigma_log**2 / 2.0
    if isinstance(rng, DecisionRng):
        return [
            min(max(rng.lognormal(mu, sigma_log), 1e-12), max_p)
            for _ in range(num_instances)
        ]
    p = rng.lognormal(mean=mu, sigma=sigma_log, size=num_instances)
    return np.clip(p, 1e-12, max_p)


def lognormal_durations(
    num_instances: int,
    mean_duration: float,
    rng,
    sigma_log: float = 0.8,
    min_duration: int = 1,
):
    """Instance durations (frames) with a target mean and lognormal skew.

    With the default shape the ratio max/min over ~2000 draws is roughly
    100x, matching §IV-B's 50..5000-frame range around a mean of 700.
    """
    if mean_duration <= 0:
        raise ValueError("mean_duration must be positive")
    mu = math.log(mean_duration) - sigma_log**2 / 2.0
    if isinstance(rng, DecisionRng):
        return [
            max(round(rng.lognormal(mu, sigma_log)), min_duration)
            for _ in range(num_instances)
        ]
    durations = rng.lognormal(mean=mu, sigma=sigma_log, size=num_instances)
    return np.maximum(np.round(durations).astype(np.int64), min_duration)


def skew_fraction_to_std(total_frames: int, skew_fraction: float | None) -> float | None:
    """Convert the paper's skew notion into a placement standard deviation.

    ``skew_fraction = 1/32`` means 95% of instances land in the central
    1/32 of the dataset; a two-sided 95% normal interval spans ±1.96σ, so
    σ = (fraction · F) / (2 · 1.96).  ``None`` requests uniform placement.
    """
    if skew_fraction is None:
        return None
    if not 0.0 < skew_fraction <= 1.0:
        raise ValueError("skew_fraction must lie in (0, 1]")
    return skew_fraction * total_frames / (2.0 * 1.959963984540054)


@dataclass(frozen=True)
class _PlacementSpec:
    """Internal record of how a batch of instances was placed."""

    total_frames: int
    skew_fraction: float | None
    mean_duration: float


def place_instances(
    num_instances: int,
    total_frames: int,
    rng,
    mean_duration: float = 700.0,
    skew_fraction: float | None = None,
    category: str = "object",
    duration_sigma_log: float = 0.8,
    start_id: int = 0,
    center_fraction: float = 0.5,
    with_boxes: bool = True,
    boundaries: Sequence[int] | None = None,
    frame_offset: int = 0,
) -> list[ObjectInstance]:
    """Place instances into ``[0, total_frames)`` with optional skew.

    Positions follow §IV-B: a normal distribution centered at
    ``center_fraction · total_frames`` whose standard deviation puts 95% of
    instances inside the central ``skew_fraction`` of the data; ``None``
    gives uniform placement ("no instance skew").  Durations are lognormal
    around ``mean_duration``.  Intervals are clipped to the dataset bounds.

    When ``with_boxes`` is false, trajectories degenerate to a unit
    stationary box — cheaper, and sufficient for interval-level simulations
    that use the oracle discriminator.

    ``boundaries``, when given, is a sorted sequence of segment edges
    (starting at 0 and ending at ``total_frames``).  Instances are clamped
    to the segment containing their midpoint: an object in one dashcam
    drive or one BDD clip cannot spill into the next file.

    ``frame_offset`` shifts every placed interval by a constant after
    placement (skew and boundaries are interpreted in the local
    ``[0, total_frames)`` coordinates first) — how live ingestion drops a
    freshly synthesized clip's ground truth at the repository's current
    horizon instead of at frame zero.
    """
    if num_instances <= 0:
        raise ValueError("num_instances must be positive")
    if total_frames <= 0:
        raise ValueError("total_frames must be positive")
    if frame_offset < 0:
        raise ValueError("frame_offset must be non-negative")

    durations = lognormal_durations(
        num_instances, mean_duration, rng, sigma_log=duration_sigma_log
    )
    std = skew_fraction_to_std(total_frames, skew_fraction)
    center = center_fraction * total_frames

    if isinstance(rng, DecisionRng):
        # scalar path on the decision RNG: same block draw order as the vectorized path (all durations,
        # then all midpoints, then per-instance trajectories).
        durations = [min(d, total_frames) for d in durations]
        if std is None:
            midpoints = [rng.uniform(0, total_frames) for _ in range(num_instances)]
        else:
            midpoints = [
                min(max(rng.normal(center, std), 0.0), float(total_frames - 1))
                for _ in range(num_instances)
            ]
        starts = [
            max(round(m - d / 2.0), 0) for m, d in zip(midpoints, durations)
        ]
        ends = [min(s + d, total_frames) for s, d in zip(starts, durations)]
        starts = [min(s, e - 1) for s, e in zip(starts, ends)]

        if boundaries is not None:
            edges = sorted(int(e) for e in boundaries)
            if edges[0] != 0 or edges[-1] != total_frames:
                raise ValueError("boundaries must start at 0 and end at total_frames")
            for k in range(num_instances):
                mid = (starts[k] + ends[k]) // 2
                seg = min(max(bisect.bisect_right(edges, mid) - 1, 0), len(edges) - 2)
                starts[k] = max(starts[k], edges[seg])
                ends[k] = min(ends[k], edges[seg + 1])
                starts[k] = min(starts[k], ends[k] - 1)

        if frame_offset:
            starts = [s + frame_offset for s in starts]
            ends = [e + frame_offset for e in ends]
    else:
        durations = np.minimum(durations, total_frames)
        if std is None:
            midpoints = rng.uniform(0, total_frames, size=num_instances)
        else:
            midpoints = rng.normal(loc=center, scale=std, size=num_instances)
            midpoints = np.clip(midpoints, 0, total_frames - 1)

        starts = np.clip(
            np.round(midpoints - durations / 2.0).astype(np.int64),
            0,
            None,
        )
        ends = np.minimum(starts + durations, total_frames)
        starts = np.minimum(starts, ends - 1)  # keep at least one frame

        if boundaries is not None:
            edges = np.asarray(sorted(boundaries), dtype=np.int64)
            if edges[0] != 0 or edges[-1] != total_frames:
                raise ValueError("boundaries must start at 0 and end at total_frames")
            mids = ((starts + ends) // 2).astype(np.int64)
            seg = np.clip(
                np.searchsorted(edges, mids, side="right") - 1, 0, len(edges) - 2
            )
            starts = np.maximum(starts, edges[seg])
            ends = np.minimum(ends, edges[seg + 1])
            starts = np.minimum(starts, ends - 1)

        if frame_offset:
            starts = starts + frame_offset
            ends = ends + frame_offset

    instances = []
    for k in range(num_instances):
        duration = int(ends[k] - starts[k])
        if with_boxes:
            trajectory = _random_trajectory(int(starts[k]), duration, rng)
        else:
            unit = Box(0.0, 0.0, 1.0, 1.0)
            trajectory = Trajectory.stationary(int(starts[k]), duration, unit)
        instances.append(
            ObjectInstance(
                instance_id=start_id + k,
                category=category,
                trajectory=trajectory,
            )
        )
    return instances


def _random_trajectory(start_frame: int, duration: int, rng) -> Trajectory:
    """A plausible straight-line object track inside the image plane.

    Box sizes are drawn from a wide range (distant pedestrian to close
    truck) and motion is a random linear drift; enough structure for the
    IoU discriminator to behave as it would on real detections.
    """
    w = float(rng.uniform(30, 400))
    h = float(rng.uniform(30, 300))
    cx = float(rng.uniform(w / 2, FRAME_WIDTH - w / 2))
    cy = float(rng.uniform(h / 2, FRAME_HEIGHT - h / 2))
    start_box = Box.from_center(cx, cy, w, h)
    # drift at most ~1/4 of the frame over the whole visibility window so
    # adjacent-frame IoU stays high, as it does for real video objects.
    dx = float(rng.uniform(-FRAME_WIDTH / 4, FRAME_WIDTH / 4))
    dy = float(rng.uniform(-FRAME_HEIGHT / 8, FRAME_HEIGHT / 8))
    end_box = start_box.translate(dx, dy).clip(FRAME_WIDTH, FRAME_HEIGHT)
    if end_box.area <= 0.0:
        end_box = start_box
    return Trajectory.linear(start_frame, duration, start_box, end_box)


class OccupancySchedule:
    """Time-bucketed interval index: which instances cover frame ``f``?

    This is the hot path of every simulation — the detector asks it once
    per sampled frame.  Instances register in every fixed-width time
    bucket their interval touches, so a query inspects only its own
    bucket's (short) candidate list: O(1) expected per lookup even at the
    16-million-frame scale of §IV's simulations, at the cost of
    ~(duration / bucket_width + 1) index entries per instance.
    """

    def __init__(
        self,
        instances: Sequence[ObjectInstance] | InstanceSet,
        bucket_frames: int | None = None,
    ):
        insts = sorted(instances, key=lambda i: (i.start_frame, i.instance_id))
        self._instances = insts
        if bucket_frames is None:
            span = max((i.end_frame for i in insts), default=1)
            # ~16k buckets balances entry count against candidate-list size
            bucket_frames = max(64, span // 16384)
        if bucket_frames <= 0:
            raise ValueError("bucket_frames must be positive")
        self._bucket_frames = bucket_frames
        self._buckets: dict[int, list[ObjectInstance]] = {}
        for inst in insts:
            first = inst.start_frame // bucket_frames
            last = (inst.end_frame - 1) // bucket_frames
            for bucket in range(first, last + 1):
                self._buckets.setdefault(bucket, []).append(inst)

    def __len__(self) -> int:
        return len(self._instances)

    def visible_ids(self, frame: int) -> list[int]:
        """Instance ids visible at ``frame``, in start order."""
        return [inst.instance_id for inst in self.visible(frame)]

    def visible(self, frame: int) -> list[ObjectInstance]:
        bucket = self._buckets.get(frame // self._bucket_frames)
        if not bucket:
            return []
        return [
            inst
            for inst in bucket
            if inst.start_frame <= frame < inst.end_frame
        ]

    def count_visible(self, frame: int) -> int:
        return len(self.visible(frame))


def first_second_appearance(p, rng):
    """First and second appearance sample-counts under independent presence.

    Under the §III-D model a random frame shows instance *i* independently
    with probability ``p_i``, so the sample index of its first appearance is
    Geometric(``p_i``) and the gap until the second is an independent
    Geometric(``p_i``).  Returning ``(t1, t2)`` lets callers reconstruct the
    exact ``N1(n)`` and ``R(n+1)`` trajectories in O(N) per run:

    * ``N1(n)   = #{i : t1_i <= n < t2_i}``
    * ``R(n+1)  = Σ_i p_i · [t1_i > n]``

    This is equivalent to (but ~1000x cheaper than) tossing every coin for
    every sampled frame as the paper's simulation describes.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0) | (p > 1)):
        raise ValueError("probabilities must lie in (0, 1]")
    t1 = rng.geometric(p).astype(np.int64)
    gap = rng.geometric(p).astype(np.int64)
    return t1, t1 + gap
