"""Profiles of the paper's six evaluation datasets (§V-A), synthesized.

The paper evaluates on dashcam, BDD-1k, BDD-MOT, amsterdam, archie and
night-street.  None of these corpora can be shipped here, so each is
replaced by a calibrated synthetic profile:

* **Frame counts** are derived from the published proxy scan times in
  Table I at the measured 100 fps scoring throughput (e.g. BDD-MOT: 53 min
  → ≈318 k frames, which matches the stated 1600 clips × ≈200 frames).
* **Clip/chunk structure** follows §V-A: 20-minute chunks for dashcam and
  the static cameras (≈30 and ≈60 chunks respectively), one chunk per clip
  for the BDD datasets (1000 and 1600 chunks).
* **Per-category mean durations** are calibrated from each query's
  90%-recall time in Table I under the random-sampling relation
  ``n_90 ≈ ln(10)/p_i``: longer-lived objects are found sooner.
* **Instance counts** use the values the paper publishes in Fig. 6 where
  available (dashcam/bicycle N=249, bdd1k/motor N=509, night-street/person
  N=2078, archie/car N=33546, amsterdam/boat N=588) and class-commonness
  estimates elsewhere.
* **Skew fractions** encode Fig. 6's skew metric S via
  ``S ≈ 1.45 / skew_fraction`` (half the normal mass lies within ±0.674σ).

Everything downstream (Table I, Figs. 5–6 benches) consumes these profiles
through :func:`build_dataset`, which materializes a
:class:`~repro.video.repository.VideoRepository` with ground truth.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .instances import InstanceSet, ObjectInstance
from .repository import VideoClip, VideoRepository
from .synthetic import place_instances

__all__ = [
    "CategoryProfile",
    "DatasetProfile",
    "DATASETS",
    "dataset_names",
    "get_profile",
    "build_dataset",
    "all_queries",
]


@dataclass(frozen=True)
class CategoryProfile:
    """Calibrated generation parameters for one (dataset, category) query."""

    category: str
    num_instances: int
    mean_duration: float  # frames
    skew_fraction: float | None  # None = uniform placement ("no skew")
    duration_sigma_log: float = 0.8


@dataclass(frozen=True)
class DatasetProfile:
    """Structure and content of one synthetic evaluation dataset."""

    name: str
    fps: float
    clip_frames: tuple[int, ...]  # frame count per clip, in order
    chunk_frames: int | None  # fixed chunk size; None = one chunk per clip
    categories: tuple[CategoryProfile, ...]

    @property
    def total_frames(self) -> int:
        return sum(self.clip_frames)

    @property
    def num_clips(self) -> int:
        return len(self.clip_frames)

    @property
    def num_chunks(self) -> int:
        if self.chunk_frames is None:
            return self.num_clips
        # ceil division: a trailing partial chunk still counts
        return -(-self.total_frames // self.chunk_frames)

    def category_names(self) -> list[str]:
        return [c.category for c in self.categories]

    def category(self, name: str) -> CategoryProfile:
        for prof in self.categories:
            if prof.category == name:
                return prof
        raise KeyError(f"{self.name} has no category {name!r}")


def _uniform_clips(num_clips: int, frames_per_clip: int) -> tuple[int, ...]:
    return tuple([frames_per_clip] * num_clips)


# --------------------------------------------------------------------------
# The six profiles.  See the module docstring for the calibration recipe.
# --------------------------------------------------------------------------

_DASHCAM = DatasetProfile(
    name="dashcam",
    fps=29.0,
    # Eight drives (20 min – 3 h) totalling 10 h / 1.044 M frames, split into
    # 20-minute chunks (34 800 frames) downstream => 30 chunks.
    clip_frames=(313200, 208800, 156600, 104400, 104400, 69600, 52200, 34800),
    chunk_frames=34800,
    categories=(
        CategoryProfile("bicycle", 249, 33.0, 0.10),
        CategoryProfile("bus", 400, 18.0, 0.30),
        CategoryProfile("fire hydrant", 300, 27.0, 0.25),
        CategoryProfile("person", 1500, 30.0, 0.30),
        CategoryProfile("stop sign", 600, 14.0, 0.25),
        CategoryProfile("traffic light", 2000, 25.0, 0.30),
        CategoryProfile("truck", 1800, 17.0, 0.40),
    ),
)

_BDD1K = DatasetProfile(
    name="bdd1k",
    fps=30.0,
    # 1000 sub-minute clips; each clip is its own chunk (§V-A), a stress
    # case for ExSample per §IV-C.
    clip_frames=_uniform_clips(1000, 324),
    chunk_frames=None,
    categories=(
        CategoryProfile("bike", 800, 15.0, 0.25),
        CategoryProfile("bus", 1200, 28.0, 0.25),
        CategoryProfile("motor", 509, 13.0, 0.08),
        CategoryProfile("person", 8000, 17.0, 0.30),
        CategoryProfile("rider", 700, 14.0, 0.20),
        CategoryProfile("traffic light", 4000, 12.0, 0.30),
        CategoryProfile("traffic sign", 6000, 11.0, 0.35),
        CategoryProfile("truck", 3000, 12.0, 0.30),
    ),
)

_BDD_MOT = DatasetProfile(
    name="bdd_mot",
    fps=30.0,
    clip_frames=_uniform_clips(1600, 199),
    chunk_frames=None,
    categories=(
        CategoryProfile("bicycle", 600, 34.0, 0.25),
        CategoryProfile("bus", 800, 29.0, 0.25),
        CategoryProfile("car", 20000, 20.0, 0.45),
        CategoryProfile("motorcycle", 300, 52.0, 0.15),
        CategoryProfile("pedestrian", 8000, 26.0, 0.30),
        CategoryProfile("rider", 500, 19.0, 0.20),
        CategoryProfile("trailer", 100, 42.0, 0.15),
        CategoryProfile("train", 40, 30.0, 0.15),
        CategoryProfile("truck", 3000, 30.0, 0.35),
    ),
)

_AMSTERDAM = DatasetProfile(
    name="amsterdam",
    fps=49.2,
    # 20 hours from one fixed camera; 20 one-hour files, 60 20-min chunks.
    clip_frames=_uniform_clips(20, 177000),
    chunk_frames=59000,
    categories=(
        CategoryProfile("bicycle", 8000, 174.0, 0.35),
        CategoryProfile("boat", 588, 2700.0, None),
        CategoryProfile("car", 10000, 288.0, 0.50),
        CategoryProfile("dog", 400, 62.0, 0.15),
        CategoryProfile("motorcycle", 500, 49.0, 0.20),
        CategoryProfile("person", 15000, 314.0, 0.40),
        CategoryProfile("truck", 2000, 174.0, 0.35),
    ),
)

_ARCHIE = DatasetProfile(
    name="archie",
    fps=49.1,
    clip_frames=_uniform_clips(20, 176700),
    chunk_frames=58900,
    categories=(
        CategoryProfile("bicycle", 3000, 158.0, 0.25),
        CategoryProfile("bus", 1500, 117.0, 0.25),
        CategoryProfile("car", 33546, 641.0, None),
        CategoryProfile("motorcycle", 600, 58.0, 0.20),
        CategoryProfile("person", 20000, 136.0, 0.35),
        CategoryProfile("truck", 4000, 84.0, 0.25),
    ),
)

_NIGHT_STREET = DatasetProfile(
    name="night_street",
    fps=40.0,
    clip_frames=_uniform_clips(20, 144000),
    chunk_frames=48000,
    categories=(
        CategoryProfile("bus", 800, 106.0, 0.35),
        CategoryProfile("car", 15000, 502.0, 0.50),
        CategoryProfile("dog", 150, 85.0, 0.20),
        CategoryProfile("motorcycle", 200, 28.0, 0.20),
        CategoryProfile("person", 2078, 368.0, 0.32),
        CategoryProfile("truck", 2500, 86.0, 0.40),
    ),
)

DATASETS: dict[str, DatasetProfile] = {
    profile.name: profile
    for profile in (_DASHCAM, _BDD1K, _BDD_MOT, _AMSTERDAM, _ARCHIE, _NIGHT_STREET)
}


def dataset_names() -> list[str]:
    return sorted(DATASETS)


def get_profile(name: str) -> DatasetProfile:
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; options: {dataset_names()}") from None


def all_queries() -> list[tuple[str, str]]:
    """All (dataset, category) pairs of the evaluation — Table I's rows."""
    return [
        (profile.name, cat.category)
        for profile in DATASETS.values()
        for cat in profile.categories
    ]


def build_dataset(
    name: str,
    categories: Sequence[str] | None = None,
    seed: int = 0,
    scale: float = 1.0,
    with_boxes: bool = False,
) -> VideoRepository:
    """Materialize a profile into a ground-truth-bearing repository.

    ``scale`` shrinks the dataset proportionally (frames and instance
    counts scale together; durations do not), preserving per-instance
    probabilities up to the 1/scale factor and therefore the relative
    comparisons between methods.  For datasets chunked per clip (the BDD
    profiles) the *number of clips* scales and clip lengths stay fixed, so
    the duration-to-clip ratio — which drives the discriminator — is
    untouched; for span-chunked datasets the clip lengths scale.  Tests
    and benchmarks use ``scale`` ≈ 0.02–0.1 to stay fast; the CLI can run
    at 1.0.

    ``with_boxes=False`` (the default) builds interval-only trajectories
    for use with the oracle discriminator; pass True for the full IoU
    tracking pipeline (slower to generate for the biggest categories).
    """
    profile = get_profile(name)
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    wanted = list(categories) if categories is not None else profile.category_names()
    for cat in wanted:
        profile.category(cat)  # raises on typos before any work happens

    if profile.chunk_frames is None:
        keep = max(2, int(round(profile.num_clips * scale)))
        clip_frames = list(profile.clip_frames[:keep])
    else:
        clip_frames = [max(2, int(round(f * scale))) for f in profile.clip_frames]
    offsets = [0, *accumulate(clip_frames)]
    total = int(offsets[-1])
    clips = [
        VideoClip(
            clip_id=k,
            name=f"{name}-{k:04d}",
            start_frame=int(offsets[k]),
            num_frames=clip_frames[k],
            fps=profile.fps,
        )
        for k in range(len(clip_frames))
    ]

    instances: list[ObjectInstance] = []
    next_id = 0
    for cat in profile.categories:
        if cat.category not in wanted:
            continue
        count = max(4, int(round(cat.num_instances * scale)))
        # calibrated profiles keep their historical numpy streams so the
        # published per-seed ground truth is unchanged.
        rng = np.random.default_rng(_category_seed(seed, name, cat.category))
        placed = place_instances(
            count,
            total,
            rng,
            mean_duration=min(cat.mean_duration, total / 2),
            skew_fraction=cat.skew_fraction,
            category=cat.category,
            duration_sigma_log=cat.duration_sigma_log,
            start_id=next_id,
            with_boxes=with_boxes,
            boundaries=list(offsets),
        )
        instances.extend(placed)
        next_id += count

    return VideoRepository(clips, InstanceSet(instances), name=name)


def scaled_chunk_frames(name: str, scale: float) -> int | None:
    """The chunk size (frames) matching :func:`build_dataset` at ``scale``.

    Returns ``None`` for datasets chunked per clip (the BDD profiles).
    """
    profile = get_profile(name)
    if profile.chunk_frames is None:
        return None
    return max(2, int(round(profile.chunk_frames * scale)))


def _category_seed(seed: int, dataset: str, category: str) -> int:
    """Stable per-(dataset, category) substream so queries are reproducible
    independently of which other categories get built.

    Uses CRC32 rather than ``hash()`` because the latter is salted per
    process and would break run-to-run reproducibility.
    """
    mix = zlib.crc32(f"{dataset}/{category}".encode("utf-8")) & 0x7FFFFFFF
    return (seed * 1_000_003 + mix) & 0x7FFFFFFF
