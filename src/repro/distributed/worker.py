"""The per-shard worker: a detector behind a message loop.

A worker is one of N interchangeable replicas the coordinator deals
slices of each batch to; it owns no part of the repository.  It is
deliberately **stateless**: everything it holds — a replica of the repository's
ground truth and a detector built from a :class:`DetectorSpec` — can be
rebuilt from its spec at any time, which is what lets the coordinator
treat a dead worker as a respawn, not a recovery problem.  Detection
content is a pure function of ``(detector spec, frame, ground truth)``,
so a fresh replacement returns byte-identical rows and nothing is lost
with the old one.  Paying each frame once is the job of the service's
:class:`~repro.detection.cache.DetectionCache`, which sits in front of
the coordinator and only ever forwards misses; a worker runs its
detector on every frame it is sent (a repeat inside one batch aside).

The wire format is deliberately plain: requests are
``(op, request_id, payload)`` tuples, responses ``("ok", request_id,
payload)`` or ``("error", request_id, message)``.  A ``detect`` payload
is always ``{"frames": [...]}`` and its reply always ``{"rows": [...],
"span": {"duration_seconds", "frames", "detector_calls"}}`` — one shape
each way, traced or not.  Detections cross
the wire as the same JSON-able rows the
:class:`~repro.detection.cache.DetectionCache` stores (float-exact under
encode/decode, so the parent reconstructs detections bit-identical to an
in-process detector's output).  Responses echo the request id, and a
worker answers requests strictly in arrival order — the coordinator's
order-preserving merge needs nothing more.

:class:`ShardWorker` is the testable in-process core (one ``handle``
call per message); :func:`worker_main` is the thin process entry point
that loops it over a :mod:`multiprocessing` pipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..detection.cache import _decode, _encode
from ..detection.detector import Detector, OracleDetector, SimulatedDetector
from ..detection.execution import with_latency
from ..video.instances import ObjectInstance
from ..video.repository import VideoRepository

__all__ = ["DetectorSpec", "WorkerSpec", "ShardWorker", "worker_main"]


@dataclass(frozen=True)
class DetectorSpec:
    """A picklable recipe for the worker-side detector.

    Sharded execution cannot ship a live detector object across a process
    boundary (and must not: a worker rebuilt after a crash needs to
    construct an *identical* one from scratch), so the detector is
    described by this spec and built inside the worker.  Defaults mirror
    :class:`~repro.detection.detector.SimulatedDetector`'s; ``kind`` is
    ``"oracle"`` (noise-free ground truth) or ``"simulated"``.
    """

    kind: str = "oracle"
    category: str | None = None
    miss_rate: float = 0.1
    false_positive_rate: float = 0.02
    jitter: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("oracle", "simulated"):
            raise ValueError(
                f"unknown detector kind {self.kind!r}; options: oracle, simulated"
            )

    def build(self, repository: VideoRepository) -> Detector:
        if self.kind == "oracle":
            return OracleDetector(repository, category=self.category)
        return SimulatedDetector(
            repository,
            category=self.category,
            miss_rate=self.miss_rate,
            false_positive_rate=self.false_positive_rate,
            jitter=self.jitter,
            seed=self.seed,
        )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs besides the repository replica.

    ``latency`` is the simulated fixed per-detection overhead in seconds
    (charged by :func:`~repro.detection.execution.with_latency`, exactly
    as a local engine charges it); each worker pays it serially for its
    own frames while other shards' workers pay theirs concurrently — the
    lever the throughput benchmarks measure.

    ``telemetry`` mirrors the parent's pipeline state at spawn time:
    when true, :func:`worker_main` enables a *fresh* pipeline in the
    child (under ``fork`` the child would otherwise share a copy of the
    parent's half-filled registry and double-count on collection), and
    the ``telemetry`` wire op returns the worker's registry body for
    the coordinator's fleet merge.
    """

    shard_id: int
    dataset: str
    detector: DetectorSpec = DetectorSpec()
    latency: float = 0.0
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.latency < 0.0:
            raise ValueError("latency must be non-negative")


class ShardWorker:
    """The in-process core of a worker: state + one ``handle`` per message.

    Kept separate from the process loop so the whole request surface is
    unit-testable without spawning anything.
    """

    def __init__(self, spec: WorkerSpec, repository: VideoRepository):
        self._spec = spec
        self._repository = repository
        self._detector = with_latency(spec.detector.build(repository), spec.latency)
        self._served = 0

    @property
    def spec(self) -> WorkerSpec:
        return self._spec

    @property
    def repository(self) -> VideoRepository:
        return self._repository

    @property
    def detector_calls(self) -> int:
        """Real detector invocations."""
        return self._detector.stats.frames_processed

    # -------------------------------------------------------------- handlers

    def _detect(self, payload: dict) -> dict:
        # one shape each way: ``{"frames": [...]}`` in, ``{"rows", "span"}``
        # out.  The span is what this side measured (two clock reads per
        # batch); the coordinator files it when a trace rides the batch.
        started = time.perf_counter()
        frames = [int(f) for f in payload["frames"]]
        horizon = self._repository.horizon
        for frame in frames:
            if not 0 <= frame < horizon:
                raise IndexError(
                    f"shard {self._spec.shard_id} asked for frame {frame} "
                    f"outside its replica's frame space [0, {horizon})"
                )
        rows_by_frame: dict[int, list[dict]] = {}
        for frame in frames:
            if frame in rows_by_frame:  # a repeat within the batch
                continue
            rows_by_frame[frame] = _encode(self._detector.detect(frame))
        self._served += len(frames)
        tel = telemetry.get()
        tel.counter("repro_detector_batches_total").inc()
        tel.counter("repro_detector_frames_total").inc(len(frames))
        tel.counter("repro_detector_calls_total").inc(len(rows_by_frame))
        return {
            "rows": [rows_by_frame[frame] for frame in frames],
            "span": {
                "duration_seconds": time.perf_counter() - started,
                "frames": len(frames),
                "detector_calls": len(rows_by_frame),
            },
        }

    def _append(self, payload: dict) -> dict:
        instances = payload.get("instances", ())
        clip = self._repository.append_clip(
            int(payload["num_frames"]),
            [inst for inst in instances if isinstance(inst, ObjectInstance)],
            name=payload.get("name"),
            fps=payload.get("fps"),
        )
        return {"horizon": self._repository.horizon, "clip_id": clip.clip_id}

    def _stats(self) -> dict:
        return {
            "shard": self._spec.shard_id,
            "dataset": self._spec.dataset,
            "served": self._served,
            "detector_calls": self.detector_calls,
            "horizon": self._repository.horizon,
            "clips": self._repository.num_clips,
        }

    def _telemetry(self) -> dict:
        """The worker's registry body for the coordinator's fleet merge."""
        tel = telemetry.get()
        if not tel.enabled:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        return tel.registry.snapshot()

    # ------------------------------------------------------------ dispatch

    def handle(self, message: tuple) -> tuple:
        """Answer one ``(op, request_id, payload)`` request.

        Never raises: every failure becomes an ``("error", id, message)``
        response, so a malformed request cannot take the worker down
        with it.
        """
        try:
            op, request_id, payload = message
        except (TypeError, ValueError):
            return ("error", None, f"malformed request: {message!r}")
        try:
            if op == "detect":
                return ("ok", request_id, self._detect(payload))
            if op == "append":
                return ("ok", request_id, self._append(payload))
            if op == "stats":
                return ("ok", request_id, self._stats())
            if op == "telemetry":
                return ("ok", request_id, self._telemetry())
            if op == "ping":
                return ("ok", request_id, {"shard": self._spec.shard_id})
            if op == "shutdown":
                return ("ok", request_id, {})
            return ("error", request_id, f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — the seam must not die
            return ("error", request_id, f"{type(exc).__name__}: {exc}")


def decode_rows(rows: Sequence[dict]) -> list:
    """Rebuild :class:`~repro.detection.detector.Detection` values from
    wire rows — the parent-side half of the wire format."""
    return list(_decode(rows))


def worker_main(conn, spec: WorkerSpec, repository: VideoRepository) -> None:
    """Process entry point: loop a :class:`ShardWorker` over ``conn``.

    Exits when the pipe closes (coordinator died) or on ``shutdown``.
    Kept to a bare receive/handle/send loop so everything interesting is
    covered in-process through :class:`ShardWorker`.
    """
    if spec.telemetry:
        # always a *fresh* pipeline: under fork the child inherits a
        # copy of the parent's registry, and reporting those inherited
        # counts back would double-count them at the fleet merge
        telemetry.enable()
    else:
        telemetry.disable()
    worker = ShardWorker(spec, repository)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            response = worker.handle(message)
            conn.send(response)
            if isinstance(message, tuple) and message and message[0] == "shutdown":
                break
    finally:
        conn.close()
