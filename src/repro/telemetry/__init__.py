"""Telemetry: the measurement plane under every serving-stack layer.

The paper's core claim is *economic* — more instances found per detector
invocation — so the system must be able to report its own spend while it
runs: detector calls, cache savings, scheduler fairness, tick latency.
This package is that measurement plane, and the substrate every later
performance PR cites its deltas from.

Four pieces:

* :mod:`~repro.telemetry.registry` — counters, gauges, and fixed-bucket
  histograms behind a get-or-create registry (deterministic snapshot
  structure, thread-safe mutation, stdlib only);
* :mod:`~repro.telemetry.trace` — the one span model: per-query causal
  traces (opt-in) and per-tick traces, slow ones kept in bounded rings;
* :mod:`~repro.telemetry.observers` — the seam the tick loop and the
  shard coordinator report through, each with a null twin;
* the surfaces — a stable JSON snapshot (``--metrics-out``, validated
  against :mod:`~repro.telemetry.schema` in CI), the Prometheus text
  format (:mod:`~repro.telemetry.prometheus`), and the ``repro stats``
  CLI renderer.

**The off switch is the design.**  The module-level default is a
:class:`NullTelemetry` whose instruments are shared, allocation-free
no-ops, so an uninstrumented-feeling hot path costs one attribute lookup
and an empty method call per metric site — and because telemetry only
ever *observes* (it never touches an RNG, a schedule, or a decision),
decision streams are bit-identical with telemetry enabled or disabled
(asserted across a seed matrix in ``tests/test_telemetry.py``).

Usage::

    from repro import telemetry

    telemetry.enable()                 # install a live pipeline
    ... run a service ...
    snap = telemetry.get().snapshot()  # stable JSON-able dict
    telemetry.disable()                # back to the no-op default

Metric names follow ``repro_<layer>_<name>_<unit>`` (see
CONTRIBUTING.md); layers in the catalog today: ``serving``, ``cache``,
``exec``, ``shard``, ``ingest``, ``server``.
"""

from __future__ import annotations

import os
import pathlib
import threading
from typing import Mapping, Sequence

from .registry import (
    FRAMES_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshot_bodies,
    null_twin,
    parse_series_key,
    series_key,
)
from .observers import NULL_DISPATCH_OBSERVER, NULL_TICK_OBSERVER, DispatchObserver, TickObserver
from .trace import NULL_TRACER, SlowRing, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "NullTelemetry",
    "Tracer",
    "SECONDS_BUCKETS",
    "FRAMES_BUCKETS",
    "series_key",
    "parse_series_key",
    "get",
    "enable",
    "disable",
    "render_prometheus",
    "atomic_write_text",
]

SNAPSHOT_VERSION = 1

# worker-process series are re-published under this prefix in the fleet
# snapshot: ``repro_detector_calls_total`` measured inside shard 2's
# worker becomes ``repro_worker_detector_calls_total{shard_id="2",...}``
# in the coordinator's merged view — same catalog grammar, one new layer
WORKER_PREFIX = "repro_worker_"


class Telemetry:
    """A live telemetry pipeline: one registry, the slow-tick ring, the
    tick/dispatch observers, and (opt-in) one query tracer plus
    externally ingested worker bodies."""

    enabled = True

    def __init__(
        self,
        slow_tick_threshold: float = 0.1,
        slow_tick_capacity: int = 32,
        trace: bool = False,
        slow_query_threshold: float = 0.25,
        trace_capacity: int = 8192,
    ):
        self.registry = MetricsRegistry()
        self.slow_ticks = SlowRing(slow_tick_threshold, slow_tick_capacity, "slow_tick")
        self.tick_observer = TickObserver(self)
        self.dispatch_observer = DispatchObserver(self)
        self.tracer = (
            Tracer(
                capacity=trace_capacity,
                slow_query_threshold=slow_query_threshold,
            )
            if trace
            else NULL_TRACER
        )
        # registry bodies ingested from other processes (shard workers),
        # keyed by source so re-collection replaces instead of
        # double-counting; folded into every snapshot
        self._external: dict[tuple, dict] = {}
        self._external_lock = threading.Lock()

    # ---------------------------------------------------- fleet aggregation

    def ingest_external(
        self,
        body: Mapping[str, object],
        labels: Mapping[str, object],
        prefix: str = WORKER_PREFIX,
    ) -> None:
        """Fold another process's registry snapshot into this pipeline's
        fleet view.  Every series is renamed under ``prefix`` (its own
        ``repro_`` prefix stripped) and stamped with ``labels`` (e.g.
        ``shard_id``); ingesting again from the same ``labels`` source
        *replaces* the previous body, so periodic collection stays
        idempotent."""
        source = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        transformed: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for kind in transformed:
            for key, value in dict(body.get(kind, {})).items():
                name, series_labels = parse_series_key(key)
                if name.startswith("repro_"):
                    name = prefix + name[len("repro_"):]
                else:
                    name = prefix + name
                merged_labels = {**series_labels, **dict(labels)}
                transformed[kind][series_key(name, merged_labels)] = value
        with self._external_lock:
            self._external[source] = transformed

    def external_sources(self) -> int:
        """How many distinct processes have been ingested (tests/UI)."""
        with self._external_lock:
            return len(self._external)

    # -------------------------------------------------------- instruments

    def counter(self, name: str, labels: Mapping[str, object] | None = None) -> Counter:
        return self.registry.counter(name, labels)

    def gauge(self, name: str, labels: Mapping[str, object] | None = None) -> Gauge:
        return self.registry.gauge(name, labels)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, object] | None = None,
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> Histogram:
        return self.registry.histogram(name, labels, buckets)

    # ------------------------------------------------------------ output

    def snapshot(self) -> dict:
        """The stable JSON body: registry series (sorted) merged with
        every ingested worker body, plus slow ticks and slow queries."""
        body = self.registry.snapshot()
        with self._external_lock:
            externals = [self._external[src] for src in sorted(self._external)]
        for external in externals:
            body = merge_snapshot_bodies(body, external)
        return {
            "version": SNAPSHOT_VERSION,
            "enabled": True,
            **body,
            "slow_ticks": self.slow_ticks.entries(),
            "slow_queries": self.tracer.slow_queries(),
        }


# one shared object standing in for every disabled instrument
_NULL_INSTRUMENT = null_twin(Counter, Gauge, Histogram)


class NullTelemetry:
    """The module default: every operation is a shared no-op.

    ``counter``/``gauge``/``histogram`` hand back one preallocated
    instrument and the observers are preallocated null twins, so the
    disabled path allocates nothing and branches nowhere — the property
    the overhead benchmark (``test_bench_telemetry_overhead``) holds the
    *enabled* path to within 3% of.
    """

    enabled = False
    tracer = NULL_TRACER
    tick_observer = NULL_TICK_OBSERVER
    dispatch_observer = NULL_DISPATCH_OBSERVER

    def counter(self, name, labels=None):
        return _NULL_INSTRUMENT

    def gauge(self, name, labels=None):
        return _NULL_INSTRUMENT

    def histogram(self, name, labels=None, buckets=SECONDS_BUCKETS):
        return _NULL_INSTRUMENT

    def ingest_external(self, body, labels, prefix=WORKER_PREFIX) -> None:
        pass

    def external_sources(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            "enabled": False,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "slow_ticks": [],
            "slow_queries": [],
        }


_NULL = NullTelemetry()
_active: Telemetry | NullTelemetry = _NULL


def get() -> Telemetry | NullTelemetry:
    """The active pipeline — the one call every instrumented site makes."""
    return _active


def enable(
    slow_tick_threshold: float = 0.1,
    slow_tick_capacity: int = 32,
    trace: bool = False,
    slow_query_threshold: float = 0.25,
) -> Telemetry:
    """Install (and return) a fresh live pipeline.

    Always fresh: enabling twice starts clean rather than accumulating
    across runs, so a snapshot always describes exactly one enablement
    window.  ``trace=True`` additionally attaches a query
    :class:`~repro.telemetry.trace.Tracer`; the default keeps tracing
    off so metrics-only runs pay nothing for the span plumbing.
    """
    global _active
    _active = Telemetry(
        slow_tick_threshold=slow_tick_threshold,
        slow_tick_capacity=slow_tick_capacity,
        trace=trace,
        slow_query_threshold=slow_query_threshold,
    )
    return _active


def disable() -> None:
    """Reinstall the shared no-op default."""
    global _active
    _active = _NULL


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: tmp file in the same
    directory, fsync, then ``os.replace``.  Every observability sink
    (``--metrics-out``, ``--trace-out``, exported trace documents) goes
    through this, so a reader — ``repro stats --watch`` polling the
    file, CI picking up an artifact — sees either the previous complete
    document or the new one, never a torn write, even if the writer is
    SIGKILLed mid-dump."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if tmp.exists():  # an exception left the partial tmp behind
            try:
                tmp.unlink()
            except OSError:
                pass


def render_prometheus(snapshot: dict | None = None) -> str:
    """The snapshot (default: the active pipeline's) as Prometheus text."""
    from .prometheus import render

    return render(snapshot if snapshot is not None else _active.snapshot())
