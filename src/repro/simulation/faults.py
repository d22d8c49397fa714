"""Fault-injection seams for the simulation harness.

The faults a deployed service actually sees fall into two groups.
*Process-level* faults — crash-restart, cache loss, torn journal writes —
are injected by the runner directly against the service and its state
directory (they need no hooks).  *Detector-level* faults — transient
errors and latency spikes — need a seam inside the detection stack;
:class:`FlakyDetector` is that seam, installed by the runner's detector
factory so it sits **inside** the service's
:class:`~repro.detection.cache.CachingDetector`, exactly where a real
GPU detector would fail.

All faults are armed from the scenario's deterministic fault plan, never
from ambient randomness, so an injected failure strikes the same
detector call in every replay of the same seed.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..detection.detector import Detection, Detector

__all__ = ["FaultError", "FaultController", "FlakyDetector"]


class FaultError(RuntimeError):
    """The injected transient detector failure.

    Deliberately *not* a subclass of any domain error: the serving layer
    promises containment for arbitrary detector exceptions (a failed
    tick loses nothing but the tick in flight), and an exotic type is the
    honest test of that promise.
    """


class FaultController:
    """Shared mutable fault state, flipped by the runner's fault plan.

    ``fail_next(n)`` arms the next ``n`` real detector calls to raise
    :class:`FaultError`; ``latency`` adds a per-call sleep (a simulated
    overload spike).  One controller serves every dataset's detector so
    a fault plan needs no per-dataset bookkeeping.
    """

    def __init__(self) -> None:
        self.latency = 0.0
        self._fail_remaining = 0
        self.faults_raised = 0

    def fail_next(self, calls: int) -> None:
        if calls < 0:
            raise ValueError("calls must be non-negative")
        self._fail_remaining += int(calls)

    @property
    def armed_failures(self) -> int:
        return self._fail_remaining

    def before_detect(self, frame_index: int) -> None:
        """Called by :class:`FlakyDetector` ahead of every real call."""
        if self._fail_remaining > 0:
            self._fail_remaining -= 1
            self.faults_raised += 1
            raise FaultError(f"injected detector failure at frame {frame_index}")
        if self.latency > 0.0:
            time.sleep(self.latency)


class FlakyDetector:
    """A detector wrapper that consults a :class:`FaultController`.

    Shares the wrapped detector's ``stats`` object, so invocation
    accounting (the paper's cost metric) keeps counting only calls that
    actually executed — an injected failure charges nothing, exactly
    like a real failed RPC.
    """

    def __init__(self, detector: Detector, controller: FaultController):
        self._detector = detector
        self._controller = controller
        self.stats = detector.stats

    @property
    def wrapped(self) -> Detector:
        return self._detector

    def detect(self, frame_index: int) -> list[Detection]:
        self._controller.before_detect(int(frame_index))
        return self._detector.detect(int(frame_index))

    def detect_many(self, frame_indices: Sequence[int]) -> list[list[Detection]]:
        return [self.detect(int(f)) for f in frame_indices]
