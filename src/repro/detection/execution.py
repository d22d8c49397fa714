"""Batched + parallel detection execution.

The paper treats the detector as a black box whose *runtime* dominates
query cost (§I); once a sampling policy has chosen a batch of frames
(§III-F), how those frames are pushed through the detector is purely an
execution-layer concern.  Real GPU detectors amortize per-call overhead
by batching inference and by keeping several requests in flight; this
module reproduces both levers over the simulated substrate:

* :func:`batch_detect` — the dispatch seam every engine calls: uses the
  detector's native ``detect_many`` when it has one and falls back to a
  sequential per-frame loop otherwise, so third-party detectors that
  only implement ``detect`` keep working unchanged;
* :class:`ParallelDetector` — services a batch over a thread worker
  pool with configurable ``workers`` and a simulated per-call
  ``latency``.  The latency models the fixed per-invocation overhead of
  a remote/accelerator detector (dispatch, transfer, kernel launch);
  it is what parallelism actually hides, and what the throughput
  benchmark (``benchmarks/test_bench_parallel.py``) measures.

The cardinal rule of this layer: **every execution mode is score
equivalent to the sequential reference.**  For any deterministic wrapped
detector, ``detect_many(frames)`` returns exactly what per-frame
``detect`` calls would, in input order, no matter how many workers
serviced the batch — so batching and parallelism can never change a
query's answer, only its wall-clock time.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from .. import telemetry
from ..telemetry import FRAMES_BUCKETS
from .detector import Detection, Detector, DetectorStats

__all__ = ["batch_detect", "wrap_parallel", "ParallelDetector"]


def batch_detect(
    detector: Detector, frame_indices: Sequence[int], while_waiting=None
) -> list[list[Detection]]:
    """Run ``detector`` over a batch of frames, one result list per frame.

    Dispatches to the detector's native ``detect_many`` when available
    (one amortized call) and falls back to sequential per-frame
    ``detect`` calls otherwise.  Either way the results align with
    ``frame_indices`` in order, and are identical to the per-frame path.

    ``while_waiting`` is work the caller can do while the batch is out
    of process; it reaches a detector that declares ``overlaps_wait``
    (the shard coordinator, whose ``detect_many`` documents the hook)
    and is dropped, never called, for every other.
    """
    native = getattr(detector, "detect_many", None)
    if native is None:
        return [detector.detect(int(f)) for f in frame_indices]
    if while_waiting is not None and getattr(detector, "overlaps_wait", False):
        return native(list(frame_indices), while_waiting)
    return native(list(frame_indices))


def wrap_parallel(detector: Detector, workers: int, latency: float) -> Detector:
    """Wrap ``detector`` in a :class:`ParallelDetector` when the
    execution knobs ask for one; the identity otherwise.

    The single policy for every construction site (`QueryEngine`,
    `QueryService`): a lone worker with no simulated latency adds
    nothing, so the detector is returned untouched.
    """
    if workers > 1 or latency > 0.0:
        return ParallelDetector(detector, workers=workers, latency=latency)
    return detector


class ParallelDetector:
    """A detector that services batches concurrently over a worker pool.

    Parameters
    ----------
    detector:
        The wrapped black-box detector.  It is *not* assumed
        thread-safe: the actual ``detect`` body runs under a lock, and
        only the simulated per-call latency overlaps across workers —
        exactly the regime of a GPU detector, where the accelerator
        serializes kernels while dispatch overhead overlaps.
    workers:
        Pool size; ``1`` degenerates to sequential execution (no pool is
        ever created).
    latency:
        Simulated fixed per-invocation overhead in seconds, paid by
        every call on both the single-frame and the batch path so that
        sequential and parallel execution are charged identically per
        frame.  ``0.0`` (the default) adds no sleep at all.

    ``stats`` counts frames served by *this* wrapper; the wrapped
    detector's own stats keep counting real invocations (the two match,
    since this layer never skips or duplicates work).
    """

    def __init__(self, detector: Detector, workers: int = 4, latency: float = 0.0):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if latency < 0.0:
            raise ValueError("latency must be non-negative")
        self._detector = detector
        self._workers = workers
        self._latency = latency
        self._lock = threading.Lock()
        self._tel_lock = threading.Lock()  # guards the in-flight tally
        self._inflight = 0
        self._pool: ThreadPoolExecutor | None = None
        self.stats = DetectorStats()

    # ------------------------------------------------------------ properties

    @property
    def wrapped(self) -> Detector:
        return self._detector

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def latency(self) -> float:
        return self._latency

    # ------------------------------------------------------------- execution

    def _call(self, frame_index: int) -> list[Detection]:
        tel = telemetry.get()
        if tel.enabled:
            with self._tel_lock:
                self._inflight += 1
                depth = self._inflight
            tel.gauge("repro_exec_inflight_calls").set(depth)
            tel.gauge("repro_exec_inflight_peak_calls").set_max(depth)
            busy_start = time.perf_counter()
        try:
            if self._latency > 0.0:
                time.sleep(self._latency)  # overlappable per-call overhead
            with self._lock:  # the wrapped detector is not assumed thread-safe
                return self._detector.detect(frame_index)
        finally:
            if tel.enabled:
                tel.counter("repro_exec_busy_seconds_total").inc(
                    time.perf_counter() - busy_start
                )
                with self._tel_lock:
                    self._inflight -= 1
                    depth = self._inflight
                tel.gauge("repro_exec_inflight_calls").set(depth)

    def detect(self, frame_index: int) -> list[Detection]:
        detections = self._call(int(frame_index))
        self.stats.frames_processed += 1
        self.stats.detections_emitted += len(detections)
        tel = telemetry.get()
        if tel.enabled:
            tel.counter("repro_exec_frames_total").inc()
        return detections

    def detect_many(self, frame_indices: Sequence[int]) -> list[list[Detection]]:
        frames = [int(f) for f in frame_indices]
        tel = telemetry.get()
        if tel.enabled:
            # queue depth: the whole batch is enqueued at once, so its
            # size is what the pool sees waiting at submit time
            tel.gauge("repro_exec_queue_depth_frames").set(len(frames))
            tel.gauge("repro_exec_queue_depth_peak_frames").set_max(len(frames))
            tel.gauge("repro_exec_workers").set(self._workers)
            batch_start = time.perf_counter()
        if len(frames) <= 1 or self._workers == 1:
            results = [self._call(f) for f in frames]
        else:
            results = list(self._ensure_pool().map(self._call, frames))
        self.stats.frames_processed += len(frames)
        self.stats.detections_emitted += sum(len(r) for r in results)
        if tel.enabled:
            elapsed = time.perf_counter() - batch_start
            tel.counter("repro_exec_batches_total").inc()
            tel.counter("repro_exec_frames_total").inc(len(frames))
            tel.histogram("repro_exec_batch_frames", buckets=FRAMES_BUCKETS).observe(
                len(frames)
            )
            tel.histogram("repro_exec_batch_seconds").observe(elapsed)
            tel.gauge("repro_exec_queue_depth_frames").set(0)
            # worker utilization numerator: busy seconds accumulate in
            # _call; utilization = busy / (batch_seconds × workers)
        return results

    # -------------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the detector remains
        usable afterwards — a new pool is created on demand)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelDetector":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
