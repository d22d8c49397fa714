"""A BlazeIt-style proxy-model baseline (§II-B, §V-B).

Proxy methods train a cheap per-query model, run it over **every** frame
of the dataset (an upfront scan at io/decode-bound throughput), then
process frames through the expensive detector in descending proxy-score
order.  Two structural properties drive the paper's comparison, and both
are reproduced here:

* **Upfront scan cost** — no result can be returned before the whole
  dataset has been scored; Table I charges this as
  ``total_frames / scan_fps`` seconds.
* **Score-ordered processing with duplicate avoidance** — the highest
  scoring frames tend to contain objects, but not necessarily *new*
  objects; the common mitigation (also granted to the baseline in §III's
  comparison) is skipping frames that are temporally close to already
  processed ones.

The proxy itself is simulated: a frame's score is a monotone function of
how many query-relevant objects ground truth places in it, corrupted by
Gaussian noise whose magnitude sets the proxy's quality.  ``noise=0``
yields a *perfect* proxy — the strongest possible version of the baseline,
which is the right comparison for the structural argument the paper makes
(even a perfect proxy pays the scan).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..detection.detector import Detector
from ..tracking.discriminator import Discriminator
from ..video.instances import InstanceSet
from ..video.repository import VideoRepository
from .base import FrameSequenceSampler

__all__ = ["ProxyModel", "BlazeItSampler", "score_ordered_frames"]


class ProxyModel:
    """A simulated cheap scoring model over the whole frame range.

    Scores are computed vectorized from ground-truth occupancy: the
    per-frame count of visible relevant instances passes through
    ``tanh`` (saturating, like a classifier confidence) plus noise.
    """

    def __init__(
        self,
        instances: InstanceSet,
        total_frames: int,
        noise: float = 0.1,
        seed: int = 0,
    ):
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self._total_frames = total_frames
        self._noise = noise
        self._seed = seed
        self._instances = instances
        self._scores = None

    @property
    def total_frames(self) -> int:
        return self._total_frames

    def scores(self):
        """Score every frame (the 'scan'); cached after the first call."""
        if self._scores is None:
            occupancy = np.zeros(self._total_frames + 1, dtype=np.float64)
            for inst in self._instances:
                occupancy[inst.start_frame] += 1.0
                occupancy[inst.end_frame] -= 1.0
            counts = np.cumsum(occupancy[:-1])
            rng = np.random.default_rng(self._seed)
            clean = np.tanh(counts)
            noisy = clean + rng.normal(0.0, self._noise, size=self._total_frames)
            self._scores = noisy
        return self._scores

    def auc_proxy_quality(self) -> float:
        """Probability a random positive frame outscores a random negative
        frame (AUC) — a diagnostic for how good the simulated proxy is."""
        scores = self.scores()
        occupancy = np.zeros(self._total_frames + 1, dtype=np.int64)
        for inst in self._instances:
            occupancy[inst.start_frame] += 1
            occupancy[inst.end_frame] -= 1
        positive = np.cumsum(occupancy[:-1]) > 0
        pos = scores[positive]
        neg = scores[~positive]
        if len(pos) == 0 or len(neg) == 0:
            return float("nan")
        # exact AUC via rank statistics
        order = np.argsort(np.concatenate([neg, pos]), kind="stable")
        ranks = np.empty(len(order), dtype=np.float64)
        ranks[order] = np.arange(1, len(order) + 1)
        pos_ranks = ranks[len(neg):]
        auc = (pos_ranks.sum() - len(pos) * (len(pos) + 1) / 2) / (len(pos) * len(neg))
        return float(auc)


def score_ordered_frames(scores, min_gap: int = 0) -> Iterator[int]:
    """Frames in descending score order, skipping near-duplicates.

    ``min_gap`` implements the duplicate-avoidance heuristic: once a frame
    is emitted, frames within ``min_gap`` frames of it are suppressed
    (they would almost certainly show the same objects).  Suppressed
    frames are *not* revisited — the scan already spent their budget.
    """
    if min_gap < 0:
        raise ValueError("min_gap must be non-negative")
    order = np.argsort(-scores, kind="stable")
    if min_gap == 0:
        yield from (int(f) for f in order)
        return
    emitted_blocks: set[int] = set()
    block = 2 * min_gap + 1
    for frame in order:
        frame = int(frame)
        b = frame // block
        # a frame conflicts if any emitted frame lies within min_gap; with
        # block size 2*min_gap+1 it suffices to check the 3 nearby blocks.
        if any(nb in emitted_blocks for nb in (b - 1, b, b + 1)):
            continue
        emitted_blocks.add(b)
        yield frame


class BlazeItSampler(FrameSequenceSampler):
    """Proxy-score-ordered limit-query processing with upfront scan.

    ``scan_frames_charged`` exposes the frames the proxy had to score —
    the quantity Table I converts to time at 100 fps.  Frame processing
    after the scan proceeds exactly like every other baseline.
    """

    def __init__(
        self,
        repository: VideoRepository,
        detector: Detector,
        discriminator: Discriminator,
        category: str | None = None,
        noise: float = 0.1,
        min_gap: int = 0,
        seed: int = 0,
        charge_decode: bool = True,
    ):
        instances = (
            repository.instances
            if category is None
            else repository.instances_of(category)
        )
        self.proxy = ProxyModel(
            instances, repository.total_frames, noise=noise, seed=seed
        )
        self.scan_frames_charged = repository.total_frames
        super().__init__(
            frames=score_ordered_frames(self.proxy.scores(), min_gap=min_gap),
            detector=detector,
            discriminator=discriminator,
            repository=repository if charge_decode else None,
        )
