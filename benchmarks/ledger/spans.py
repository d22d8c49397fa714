"""Span recorder for the ledger's traced runs.

The ledger measures layers *from outside*: nothing under ``src/`` knows
about it.  ``install()`` replaces a fixed list of repro's public
callables (:data:`TARGETS`) with wrappers that record one span per call
— name, start, end, parent span, trace id (the root span a call nests
under) — into an in-memory list, written as JSONL once, at exit.  The
wrappers only ever read their arguments and results, so a traced run
makes exactly the decisions the timed run makes; the harness checks
that by comparing result digests.

A span name is ``<layer>.<operation>`` where the layer is the repro
sub-package that owns the callable.  ``metrics.py`` turns the spans into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

_clock = time.perf_counter  # CLOCK_MONOTONIC: one timeline across processes


class Recorder:
    """Spans of one process: ``(id, parent, trace, name, start, end, attrs)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))

    def reset(self) -> None:
        self.spans = []
        self._local = threading.local()

    def add(self, name: str, start: float, end: float) -> None:
        """File a root span measured by the caller (e.g. an import)."""
        span_id = next(self._ids)
        self.spans.append((span_id, 0, span_id, name, start, end, None))

    def wrap(self, name: str, fn, note=None):
        """``fn`` with one span recorded per call; ``note(args, result)``
        supplies the span's attributes after a successful call."""
        recorder = self
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # attributes are read through ``recorder`` at call time: a
            # forked worker reset()s and must file into its own list
            local = recorder._local
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent, trace = stack[-1]
            else:
                parent, trace = 0, span_id
            stack.append((span_id, trace))
            attrs = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs = note(args, result)
                return result
            finally:
                end = _clock()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, trace, name, start, end, attrs)
                )

        return traced

    def dump(self, path: str, role: str) -> None:
        """Write the header and every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"pid": os.getpid(), "role": role}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


# ------------------------------------------------------------------ notes
# A note reads (args, result) after a successful call and returns the
# span's attributes.  ``args[0]`` is ``self`` for methods.

def _frames_out(args, result):
    return {"frames": len(result)}


def _frames_arg1(args, result):
    return {"frames": len(args[1])}


def _tick(args, result):
    return {"frames": sum(result.values()), "sessions": len(result)}


def _session_out(args, result):
    return {"session": result}


def _restore(args, result):
    return {"session": result, "steps": int(args[1].steps_taken)}


def _cache_get_many(args, result):
    stats = args[0].stats
    return {"frames": len(args[2]), "hits": stats.hits, "misses": stats.misses}


def _frames_arg2(args, result):
    return {"frames": len(args[2])}


def _tier_get_many(args, result):
    tier = args[0].tier_stats
    return {"hits": tier.hits, "misses": tier.misses, "evictions": tier.evictions}


def _coordinator(args, result):
    return {"frames": len(args[1]), "restarts": args[0].restarts}


def _worker_handle(args, result):
    message = args[1]
    op, payload = message[0], message[2]
    if op != "detect":
        return {"op": op}
    frames = payload["frames"] if isinstance(payload, dict) else payload
    return {"op": op, "frames": len(frames)}


#: (span name, module, dotted attribute, note).  All public names; the
#: layer is the first component of the span name.
TARGETS = (
    ("core.plan", "repro.core.sampler", "ExSample.plan", _frames_out),
    ("core.draw", "repro.core.belief", "GammaBelief.sample", None),
    ("core.commit", "repro.core.sampler", "ExSample.commit", _frames_out),
    ("serving.tick", "repro.serving.service", "QueryService.tick", _tick),
    ("serving.allocate", "repro.serving.scheduler", "RoundRobinScheduler.allocate", None),
    ("serving.schedulable_scan", "repro.serving.service",
     "QueryService.schedulable_sessions", None),
    ("serving.submit", "repro.serving.service", "QueryService.submit", _session_out),
    ("serving.status", "repro.serving.service", "QueryService.status", None),
    ("serving.status", "repro.serving.service", "QueryService.statuses", None),
    ("serving.results", "repro.serving.service", "QueryService.results", None),
    ("serving.save_sessions", "repro.serving.state", "save_sessions", None),
    ("serving.restore_state", "repro.server.app", "restore_state", None),
    ("serving.restore", "repro.serving.service", "QueryService.restore", _restore),
    ("server.parse_request", "repro.server.protocol", "parse_request", None),
    ("server.encode", "repro.server.protocol", "encode", None),
    ("detection.cache.get_many", "repro.detection.cache",
     "DetectionCache.get_many", _cache_get_many),
    ("detection.cache.put_many", "repro.detection.cache",
     "DetectionCache.put_many", _frames_arg2),
    ("detection.cache.flush", "repro.detection.cache", "DetectionCache.flush", None),
    ("detection.tier.get_many", "repro.detection.cache",
     "TieredBackend.get_many", _tier_get_many),
    ("detection.caching_detect_many", "repro.detection.cache",
     "CachingDetector.detect_many", _frames_arg1),
    ("detection.detect", "repro.detection.detector", "OracleDetector.detect", None),
    ("distributed.detect_many", "repro.distributed.coordinator",
     "ShardCoordinator.detect_many", _coordinator),
    ("distributed.worker_handle", "repro.distributed.worker",
     "ShardWorker.handle", _worker_handle),
    ("distributed.decode_rows", "repro.distributed.worker", "decode_rows", None),
    ("video.build_dataset", "repro.video.datasets", "build_dataset", None),
)


def _replace_everywhere(original, replacement) -> list[tuple]:
    """Rebind a module-level function in every loaded ``repro`` module
    that imported it by name; returns ``(module, name, original)`` undo
    records."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(recorder: Recorder, spans_dir: str | None = None) -> list[tuple]:
    """Wrap every target; returns undo records for :func:`uninstall`.

    With ``spans_dir``, shard worker processes (which inherit the
    wrappers under ``fork``) start from an empty span list and write
    ``spans-<pid>.jsonl`` when their loop ends.
    """
    importlib.import_module("repro.cli")  # load every module that imports by name
    undo: list[tuple] = []
    for name, mod_name, path, note in TARGETS:
        module = importlib.import_module(mod_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(name, original, note))
            undo.append((owner, attr, original))
        else:
            original = getattr(module, path)
            undo += _replace_everywhere(original, recorder.wrap(name, original, note))
    if spans_dir is not None:
        worker = importlib.import_module("repro.distributed.worker")
        original_main = worker.worker_main

        @functools.wraps(original_main)
        def worker_main(*args, **kwargs):
            recorder.reset()  # drop the spans inherited from the parent
            try:
                return original_main(*args, **kwargs)
            finally:
                recorder.dump(
                    os.path.join(spans_dir, f"spans-{os.getpid()}.jsonl"), "worker"
                )

        undo += _replace_everywhere(original_main, worker_main)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def load_files(paths) -> list[tuple[str, list]]:
    """Read dumped span files back: ``(role, spans)`` per process."""
    processes = []
    for path in paths:
        with open(path, encoding="utf-8") as lines:
            header = json.loads(next(lines))
            processes.append((header["role"], [json.loads(line) for line in lines]))
    return processes
