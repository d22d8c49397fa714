"""The shard coordinator: one detector facade over N worker processes.

The coordinator is the parent-side half of the distributed execution
backend.  To the serving stack it *is* a detector — it conforms to the
:class:`~repro.detection.detector.Detector` protocol and slots under the
service's shared :class:`~repro.detection.cache.CachingDetector` exactly
where a local detector would — but inside, each batch is deduplicated,
cut into ``num_shards`` even slices, fanned out to the worker
processes, and merged back **in input order**.

The design carries the same theorem the whole serving layer rests on:
sampling decisions live entirely in the coordinator's process (the
ExSample engines, their RNGs, the belief state), and workers compute
*only* detection content, which is a pure function of the frame.  So the
number of shards, which worker detects which frame, worker deaths,
respawns, and every other execution detail are invisible to a query's
answer — a sharded run returns byte-identical matches and per-chunk
sample counts to a single-process run, footage ingested mid-run
included (asserted over a seed matrix in
``tests/test_distributed_parity.py``).

It is also why there is no routing: every worker holds a full replica
and keeps nothing between requests, so a batch is split by *count*
alone — every worker equally busy however hard the sampler concentrates
on one clip.

Fault handling: a worker is a spec plus a replica, so the coordinator's
response to a dead worker is to rebuild it — spawn a fresh process from
the current repository and the same :class:`WorkerSpec`, re-issue the
in-flight request, and carry on.  A kill therefore costs a respawn,
never a wrong (or lost) answer.

Workers are spawned lazily: a shard that never receives a slice (a
dataset nobody queries) never costs a process.
"""

from __future__ import annotations

import multiprocessing
from typing import Sequence

from .. import telemetry
from ..detection.detector import Detection, DetectorStats
from ..video.repository import VideoRepository
from .worker import DetectorSpec, WorkerSpec, decode_rows, worker_main

__all__ = ["WorkerHandle", "ShardCoordinator"]

# pipe failures that mean "the worker is gone", triggering a respawn
_DEAD_WORKER_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


def _start_method() -> str:
    """``fork`` where available (fast, and the replica needs no pickling),
    else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerHandle:
    """One live worker process and its pipe.

    ``clips_shipped`` records how much of the repository the worker's
    replica covers — the coordinator forwards only clips appended after
    that point, and a freshly spawned worker starts fully caught up
    (its replica is a copy of the repository at spawn time).
    """

    def __init__(self, ctx, spec: WorkerSpec, repository: VideoRepository):
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self.spec = spec
        self.clips_shipped = repository.num_clips
        self._process = ctx.Process(
            target=worker_main,
            args=(child_conn, spec, repository),
            daemon=True,
            name=f"repro-shard-{spec.dataset}-{spec.shard_id}",
        )
        self._process.start()
        child_conn.close()  # the child's end lives in the child now

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def send(self, message: tuple) -> None:
        self._conn.send(message)

    def recv(self) -> tuple:
        return self._conn.recv()

    def kill(self) -> None:
        """Hard-kill the process (the crash the fault injector simulates)."""
        self._process.terminate()
        self._process.join(timeout=5.0)
        self._conn.close()

    def close(self) -> None:
        """Graceful shutdown: ask, wait briefly, then insist."""
        if self._process.is_alive():
            try:
                self._conn.send(("shutdown", -1, None))
                self._conn.recv()  # the acknowledgement, best effort
            except _DEAD_WORKER_ERRORS:
                pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()


class ShardCoordinator:
    """Shard-parallel detection behind the ``Detector`` protocol.

    Parameters
    ----------
    repository:
        The live repository (the coordinator tracks its growth and
        forwards appended clips to worker replicas before sending any
        frame beyond their horizon).
    num_shards:
        Worker-process count; ``1`` is a legal degenerate deployment
        (one worker, still out of process) used by the parity matrix.
    detector_spec:
        The :class:`DetectorSpec` every worker builds its detector from;
        defaults to the noise-free oracle.
    latency:
        Simulated per-detection overhead paid inside each worker (see
        :class:`WorkerSpec`).

    ``stats`` counts frames *served by this coordinator* — with the
    service's shared cache in front (it forwards only deduplicated
    misses), that is exactly the real detection work the paper's cost
    model charges: it matches what a local detector's ``stats`` would
    read and, until a respawn restarts a worker's counters, the sum of
    :meth:`worker_stats`' ``detector_calls``.
    """

    def __init__(
        self,
        repository: VideoRepository,
        num_shards: int,
        detector_spec: DetectorSpec | None = None,
        latency: float = 0.0,
        dataset: str | None = None,
        start_method: str | None = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if latency < 0.0:
            raise ValueError("latency must be non-negative")
        self._repository = repository
        self._detector_spec = (
            detector_spec if detector_spec is not None else DetectorSpec()
        )
        self._latency = latency
        self._dataset = dataset if dataset is not None else repository.name
        self._ctx = multiprocessing.get_context(
            start_method if start_method is not None else _start_method()
        )
        self._handles: list[WorkerHandle | None] = [None] * num_shards
        self._cursor = 0  # the shard the next batch's first slice goes to
        self._next_request = 0
        self._closed = False
        self.restarts = 0  # respawns forced by dead workers
        self.stats = DetectorStats()

    # ------------------------------------------------------------ properties

    @property
    def num_shards(self) -> int:
        return len(self._handles)

    @property
    def dataset(self) -> str:
        return self._dataset

    @property
    def detector_spec(self) -> DetectorSpec:
        return self._detector_spec

    def workers_alive(self) -> list[int]:
        """Shard ids with a currently live worker process."""
        return [
            shard_id
            for shard_id, handle in enumerate(self._handles)
            if handle is not None and handle.alive
        ]

    # ------------------------------------------------------------- plumbing

    def _worker_spec(self, shard_id: int) -> WorkerSpec:
        return WorkerSpec(
            shard_id=shard_id,
            dataset=self._dataset,
            detector=self._detector_spec,
            latency=self._latency,
            # mirror the parent's pipeline state at spawn time, so worker
            # registries exist exactly when there is a fleet to merge into
            telemetry=telemetry.get().enabled,
        )

    def _spawn(self, shard_id: int) -> WorkerHandle:
        handle = WorkerHandle(
            self._ctx, self._worker_spec(shard_id), self._repository
        )
        self._handles[shard_id] = handle
        return handle

    def _ensure_worker(self, shard_id: int) -> WorkerHandle:
        if self._closed:
            raise RuntimeError("coordinator is closed")
        handle = self._handles[shard_id]
        if handle is None:
            return self._spawn(shard_id)
        return handle

    def _respawn(self, shard_id: int) -> WorkerHandle:
        """Rebuild a dead worker from its spec — the crash-recovery path.

        The replacement's replica is the *current* repository, so it is
        born fully caught up."""
        handle = self._handles[shard_id]
        if handle is not None:
            handle.kill()  # reap whatever is left; idempotent on the dead
        self.restarts += 1
        telemetry.get().counter("repro_shard_respawns_total", {"shard": shard_id}).inc()
        return self._spawn(shard_id)

    def _request(self, shard_id: int, op: str, payload) -> object:
        """One full round-trip to a shard, respawning on a dead worker.

        Retries the request at most twice against fresh workers; a spec
        that cannot survive two respawns is a real bug, not a crash."""
        attempts = 0
        while True:
            handle = self._ensure_worker(shard_id)
            request_id = self._next_request
            self._next_request += 1
            try:
                handle.send((op, request_id, payload))
                response = handle.recv()
            except _DEAD_WORKER_ERRORS:
                attempts += 1
                if attempts > 2:
                    raise RuntimeError(
                        f"shard {shard_id} worker died {attempts} times in a "
                        f"row serving {op!r}"
                    )
                self._respawn(shard_id)
                continue
            return self._check(response, request_id, shard_id)

    @staticmethod
    def _check(response: tuple, request_id: int, shard_id: int):
        status, echoed, payload = response
        if echoed != request_id:  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"shard {shard_id} answered request {echoed}, expected "
                f"{request_id} (wire protocol violation)"
            )
        if status != "ok":
            raise RuntimeError(f"shard {shard_id} failed: {payload}")
        return payload

    def _append_payload(self, clip) -> dict:
        """The ``append`` request that grows a replica by ``clip`` — one
        pass over the repository's instances, so built once per clip and
        shared by every worker it is shipped to."""
        return {
            "num_frames": clip.num_frames,
            "name": clip.name,
            "fps": clip.fps,
            "instances": [
                inst
                for inst in self._repository.instances
                if clip.start_frame <= inst.start_frame
                and inst.end_frame <= clip.end_frame
            ],
        }

    def _sync(self) -> None:
        """Bring worker replicas up to the repository horizon.

        Newly appended clips are forwarded to every *live* worker whose
        replica predates them; a lazily (re)spawned one copies the
        current repository at spawn time and starts caught up.
        """
        clips = self._repository.clips
        payloads: dict[int, dict] = {}  # clip id -> payload, built once
        for shard_id, handle in enumerate(self._handles):
            if handle is None or handle.clips_shipped >= len(clips) or not handle.alive:
                continue
            while handle.clips_shipped < len(clips):
                clip = clips[handle.clips_shipped]
                payload = payloads.get(clip.clip_id)
                if payload is None:
                    payload = payloads[clip.clip_id] = self._append_payload(clip)
                request_id = self._next_request
                self._next_request += 1
                try:
                    handle.send(("append", request_id, payload))
                    self._check(handle.recv(), request_id, shard_id)
                except _DEAD_WORKER_ERRORS:
                    # append must NOT be blindly retried: the replacement's
                    # replica copies the *current* repository, so it is born
                    # caught up and re-appending would duplicate the clip
                    self._respawn(shard_id)
                    break
                handle.clips_shipped = clip.clip_id + 1

    # ------------------------------------------------------------- detection

    def detect_many(self, frame_indices: Sequence[int]) -> list[list[Detection]]:
        """Split a batch evenly over the shards, fan out, merge in input
        order: *send* every slice, then *collect* the replies.

        All requests are sent before any response is awaited, so workers
        overlap their detection work — with an even split that overlap
        is the whole throughput story
        (``benchmarks/test_bench_distributed.py``).  What the batch
        reports goes through
        :class:`~repro.telemetry.observers.DispatchObserver`.
        """
        frames = [int(f) for f in frame_indices]
        if not frames:
            return []
        obs = telemetry.get().dispatch_observer
        obs.begin()
        in_flight = self._send(list(dict.fromkeys(frames)), obs)
        by_frame = self._collect(in_flight, obs)
        out = [list(by_frame[frame]) for frame in frames]
        self.stats.frames_processed += len(frames)
        self.stats.detections_emitted += sum(len(d) for d in out)
        obs.finish(len(frames))
        return out

    def _send(self, distinct: list[int], obs) -> list[tuple[int, int, dict]]:
        """The non-blocking half: deal ``distinct`` frames into contiguous
        slices, one per shard, sizes differing by at most one, and send
        each as one request.

        Slices start at a cursor that advances by the frames dealt, so
        the larger slices of an uneven batch — and single frames — keep
        moving round the shards instead of piling on shard 0.  Returns
        the in-flight ``(shard, request id, payload)`` list; id ``-1``
        marks a worker found dead at send (re-issued on collect).
        """
        self._sync()
        shards = self.num_shards
        size, larger = divmod(len(distinct), shards)
        in_flight: list[tuple[int, int, dict]] = []
        start = 0
        for k in range(min(shards, len(distinct))):
            shard_id = (self._cursor + k) % shards
            stop = start + size + (1 if k < larger else 0)
            payload = {"frames": distinct[start:stop]}
            start = stop
            handle = self._ensure_worker(shard_id)
            request_id = self._next_request
            self._next_request += 1
            obs.sent(shard_id)
            try:
                handle.send(("detect", request_id, payload))
            except _DEAD_WORKER_ERRORS:
                self._respawn(shard_id)
                request_id = -1
            in_flight.append((shard_id, request_id, payload))
        self._cursor = (self._cursor + len(distinct)) % shards
        obs.in_flight(len(in_flight))
        return in_flight

    def _collect(self, in_flight, obs) -> dict[int, list[Detection]]:
        """The blocking half: one reply per in-flight request, re-issued
        against a fresh worker when one died mid-flight.

        Every in-flight request is drained before any failure
        propagates: a worker answers exactly once per request, so
        abandoning a healthy shard's queued response here would
        desynchronize its wire stream for every later batch.
        """
        by_frame: dict[int, list[Detection]] = {}
        failures: list[Exception] = []
        for shard_id, request_id, payload in in_flight:
            reply = None
            try:
                if request_id >= 0:
                    try:
                        response = self._handles[shard_id].recv()
                        reply = self._check(response, request_id, shard_id)
                    except _DEAD_WORKER_ERRORS:
                        self._respawn(shard_id)
                if reply is None:  # the synchronous retry path
                    reply = self._request(shard_id, "detect", payload)
            except RuntimeError as exc:  # a shard failed; keep draining
                failures.append(exc)
                continue
            obs.answered(shard_id, len(payload["frames"]), reply["span"])
            for frame, rows in zip(payload["frames"], reply["rows"]):
                by_frame[frame] = decode_rows(rows)
        obs.in_flight(0)
        if failures:
            raise failures[0]
        return by_frame

    def detect(self, frame_index: int) -> list[Detection]:
        return self.detect_many([int(frame_index)])[0]

    # ------------------------------------------------------------- lifecycle

    def warm_up(self) -> list[int]:
        """Spawn and ping every shard's worker up front.

        Purely a latency lever: lazily spawned workers would otherwise
        pay their startup cost inside the first detection batches.
        Returns the shard ids pinged.  The benchmark calls this so
        measured throughput is steady-state, as a long-lived
        deployment's would be.
        """
        self._sync()
        pinged = list(range(self.num_shards))
        for shard_id in pinged:
            self._request(shard_id, "ping", None)
        return pinged

    def kill_worker(self, shard_id: int) -> bool:
        """Hard-kill one worker (the fault injector's seam); returns
        whether there was a live worker to kill.  The next request sent
        to the shard respawns it transparently."""
        if not 0 <= shard_id < self.num_shards:
            raise IndexError(f"no shard {shard_id} (shards: {self.num_shards})")
        handle = self._handles[shard_id]
        if handle is None or not handle.alive:
            return False
        handle.kill()
        return True

    def worker_stats(self) -> dict[int, dict]:
        """Per-shard worker accounting (spawned workers only)."""
        out: dict[int, dict] = {}
        for shard_id, handle in enumerate(self._handles):
            if handle is None:
                continue
            out[shard_id] = self._request(shard_id, "stats", None)
        return out

    def collect_telemetry(self) -> int:
        """Harvest every live worker's registry into the parent pipeline.

        Each body lands in the fleet view under ``shard_id``/``dataset``
        labels (see :meth:`Telemetry.ingest_external`); re-collection
        replaces a shard's previous body, so this is safe to call
        periodically *and* at close.  Returns the number of workers
        collected.  Dead workers are skipped rather than respawned —
        telemetry must never be the reason a process exists.
        """
        tel = telemetry.get()
        if not tel.enabled or self._closed:
            return 0
        collected = 0
        for shard_id, handle in enumerate(self._handles):
            if handle is None or not handle.alive:
                continue
            request_id = self._next_request
            self._next_request += 1
            try:
                # a direct round-trip, NOT ``_request``: a worker that
                # dies mid-harvest is skipped, never respawned for this
                handle.send(("telemetry", request_id, None))
                body = self._check(handle.recv(), request_id, shard_id)
            except _DEAD_WORKER_ERRORS + (RuntimeError,):
                continue
            tel.ingest_external(
                body,
                {"shard_id": str(shard_id), "dataset": self._dataset},
            )
            collected += 1
        return collected

    def close(self) -> None:
        """Shut every worker down; idempotent, safe on dead workers.

        The final telemetry harvest happens here, before any shutdown is
        sent — the last chance to fold worker-side series (detector
        calls) into the snapshot ``--metrics-out`` writes."""
        if self._closed:
            return
        self.collect_telemetry()
        self._closed = True
        for handle in self._handles:
            if handle is not None:
                handle.close()
        self._handles = [None] * self.num_shards

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
