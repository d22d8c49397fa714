"""Batched detection execution and the simulated per-call cost.

The paper treats the detector as a black box whose *runtime* dominates
query cost (§I); once a sampling policy has chosen a batch of frames
(§III-F), how those frames are pushed through the detector is purely an
execution-layer concern.  Two pieces live here:

* :func:`batch_detect` — the dispatch seam every engine calls: uses the
  detector's native ``detect_many`` when it has one and falls back to a
  sequential per-frame loop otherwise, so third-party detectors that
  only implement ``detect`` keep working unchanged;
* :func:`with_latency` — the one place the simulated per-invocation
  overhead of a remote/accelerator detector (dispatch, transfer, kernel
  launch) is charged: a sequential sleep-then-detect wrapper.  Local
  engines and shard workers both build their detector through it, so
  the sequential reference and the fleet pay the same per-call cost by
  construction; keeping several of those calls in flight is the shard
  coordinator's job (:mod:`repro.distributed`), the one parallel
  substrate.

The cardinal rule of this layer: **every execution mode is score
equivalent to the sequential reference.**  For any deterministic wrapped
detector, ``detect_many(frames)`` returns exactly what per-frame
``detect`` calls would, in input order — so batching, latency and
sharding can never change a query's answer, only its wall-clock time.
"""

from __future__ import annotations

import time
from typing import Sequence

from .detector import Detection, Detector

__all__ = ["batch_detect", "with_latency"]


def batch_detect(detector: Detector, frame_indices: Sequence[int]) -> list[list[Detection]]:
    """Run ``detector`` over a batch of frames, one result list per frame.

    Dispatches to the detector's native ``detect_many`` when available
    (one amortized call) and falls back to sequential per-frame
    ``detect`` calls otherwise.  Either way the results align with
    ``frame_indices`` in order, and are identical to the per-frame path.
    """
    native = getattr(detector, "detect_many", None)
    if native is None:
        return [detector.detect(int(f)) for f in frame_indices]
    return native(list(frame_indices))


def with_latency(detector: Detector, seconds: float) -> Detector:
    """``detector`` charged ``seconds`` of simulated overhead per call;
    the detector itself at 0, so the default path is unwrapped."""
    if seconds < 0.0:
        raise ValueError("latency must be non-negative")
    return _Delayed(detector, seconds) if seconds > 0.0 else detector


class _Delayed:
    """Sleep, then detect, one frame at a time; shares the wrapped
    detector's ``stats`` (it never skips or duplicates a call)."""

    def __init__(self, detector: Detector, seconds: float):
        self._detector = detector
        self._seconds = seconds
        self.stats = detector.stats

    def detect(self, frame_index: int) -> list[Detection]:
        time.sleep(self._seconds)  # the per-call cost --shards overlaps
        return self._detector.detect(int(frame_index))

    def detect_many(self, frame_indices: Sequence[int]) -> list[list[Detection]]:
        return [self.detect(f) for f in frame_indices]
