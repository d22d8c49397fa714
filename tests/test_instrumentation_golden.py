"""Instrumentation golden: what one fixed workload is seen to emit.

A fixed-seed sharded, traced, two-session ``warm_start=False`` run is
snapshotted mid-run (one session finished, one still active) and must
emit exactly the series *names* and the ``(span name, parent span name,
sorted arg keys)`` triples listed here.  Values and counts are measured
and free to move; the names are the interface dashboards, the ledger
and ``repro stats`` read, so a refactor of the instrumentation seam has
to leave them alone.  The lists were recorded at the commit before the
observers replaced the inline instrumentation.
"""

import pytest
from contracts import small_world

from repro import telemetry
from repro.serving import QueryService
from repro.telemetry.registry import parse_series_key
from repro.telemetry.schema import validate
from repro.telemetry.trace import derive_span_id

SERIES_NAMES = [
    "repro_cache_backend_roundtrips_total",
    "repro_cache_hits_total",
    "repro_cache_inserts_total",
    "repro_cache_misses_total",
    "repro_exec_batch_frames",
    "repro_exec_batch_seconds",
    "repro_exec_batches_total",
    "repro_exec_frames_total",
    "repro_serving_frames_total",
    "repro_serving_plan_seconds",
    "repro_serving_session_deficit_frames",
    "repro_serving_session_grant_frames",
    "repro_serving_sessions_schedulable",
    "repro_serving_stage_seconds",
    "repro_serving_tick_frames",
    "repro_serving_tick_seconds",
    "repro_serving_ticks_total",
    "repro_shard_busy_seconds_total",
    "repro_shard_frames_total",
    "repro_shard_inflight_peak_requests",
    "repro_shard_inflight_requests",
    "repro_shard_request_seconds",
    "repro_shard_requests_total",
    "repro_worker_detector_batches_total",
    "repro_worker_detector_calls_total",
    "repro_worker_detector_frames_total",
]

# query traces: (span, parent span, arg keys without the id triple every
# event carries)
QUERY_SPANS = [
    ("admission", "session", ["category", "dataset", "warm_frames"]),
    ("commit", "session", ["frames", "tick"]),
    ("plan", "session", ["frames", "tick"]),
    ("session", None, ["session", "state"]),
    ("shard-dispatch", "session", ["frames", "shard"]),
    ("worker-detect", "shard-dispatch", ["detector_calls", "frames", "shard"]),
]

# tick traces, read from the slow-tick trees
TICK_SPANS = [
    ("coalesce", "tick", ["rounds"]),
    ("commit", "tick", ["rounds"]),
    ("detect", "tick", ["frames", "rounds"]),
    ("plan", "tick", ["rounds"]),
    ("sync", "tick", []),
    ("tick", None, ["frames", "sessions", "tick"]),
]

_ID_KEYS = {"trace_id", "span_id", "parent_id"}


@pytest.fixture(autouse=True)
def _clean_global_pipeline():
    telemetry.disable()
    yield
    telemetry.disable()


def _observe():
    """Run the workload; return (snapshot, trace events) taken mid-run."""
    tel = telemetry.enable(
        slow_tick_threshold=0.0, trace=True, slow_query_threshold=0.0
    )
    service = QueryService(
        small_world(0),
        frames_per_tick=16,
        chunk_frames=50,
        execution="sharded",
        shards=2,
        seed=5,
    )
    try:
        short = service.submit("cam0", "bus", max_samples=16, warm_start=False)
        long = service.submit("cam0", "car", max_samples=200, warm_start=False)
        for _ in range(4):
            service.tick()
        assert service.status(short).state == "exhausted"
        assert service.status(long).state == "active"
        service.collect_worker_telemetry()
        return tel.snapshot(), tel.tracer.events()
    finally:
        service.close()


def _tree_triples(node, parent=None):
    args = node.get("args", node.get("meta", {}))
    yield (node["name"], parent, sorted(args))
    for child in node.get("children", []):
        yield from _tree_triples(child, node["name"])


def test_series_and_span_names_are_unchanged():
    snapshot, events = _observe()
    validate(snapshot)
    assert snapshot["slow_ticks"] and snapshot["slow_queries"]

    names = {
        parse_series_key(key)[0]
        for kind in ("counters", "gauges", "histograms")
        for key in snapshot[kind]
    }
    assert sorted(names) == SERIES_NAMES

    span_names = {e["args"]["span_id"]: e["name"] for e in events}
    query = set()
    for event in events:
        args = event["args"]
        parent_id = args["parent_id"]
        if parent_id == derive_span_id(args["trace_id"], 0):
            parent = "session"  # the root of a still-open trace is not out yet
        else:
            parent = span_names.get(parent_id)
        query.add((event["name"], parent, tuple(sorted(set(args) - _ID_KEYS))))
    assert sorted(query, key=repr) == [
        (name, parent, tuple(keys)) for name, parent, keys in QUERY_SPANS
    ]

    ticks = {
        (name, parent, tuple(keys))
        for tick in snapshot["slow_ticks"]
        for name, parent, keys in _tree_triples(tick)
    }
    assert sorted(ticks, key=repr) == [
        (name, parent, tuple(keys)) for name, parent, keys in TICK_SPANS
    ]
