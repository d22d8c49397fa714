"""Causal query tracing tests: deterministic id derivation, the span
ring and slow-query retention, the Chrome trace-event export and its
shipped validator — and the acceptance contract: one traced sharded run
produces admission -> plan -> shard-dispatch -> worker-detect -> commit
spans parented under one trace id, while the decision stream stays
byte-identical tracing on or off."""

import time

import pytest
from contracts import clip_repository, stationary_instance

from repro import telemetry
from repro.serving import QueryService
from repro.telemetry.trace import (
    NULL_TRACER,
    Tracer,
    derive_span_id,
    derive_trace_id,
    trace_document,
    validate_trace,
)


@pytest.fixture(autouse=True)
def _clean_global_pipeline():
    telemetry.disable()
    yield
    telemetry.disable()


# ------------------------------------------------------------------- ids

def test_trace_ids_are_derived_and_stable():
    """No clock, no RNG: the same session id names the same trace in
    every process and every replay."""
    a = derive_trace_id("s1")
    assert a == derive_trace_id("s1")
    assert a != derive_trace_id("s2")
    assert len(a) == 16 and set(a) <= set("0123456789abcdef")
    s0 = derive_span_id(a, 0)
    assert s0 == derive_span_id(a, 0)
    assert s0 != derive_span_id(a, 1)
    assert s0 != derive_span_id(derive_trace_id("s2"), 0)


def test_span_numbering_is_a_counter_not_a_clock():
    tracer = Tracer()
    trace_id = tracer.begin_trace("s1")
    assert trace_id == derive_trace_id("s1")
    # seq 0 is reserved for the synthesized root "session" span
    assert tracer.root_span_id(trace_id) == derive_span_id(trace_id, 0)
    t0 = time.perf_counter()
    first = tracer.record_span(trace_id, "plan", t0, 0.001)
    second = tracer.record_span(trace_id, "commit", t0, 0.001)
    assert first == derive_span_id(trace_id, 1)
    assert second == derive_span_id(trace_id, 2)
    # idempotent registration never restarts the counter
    assert tracer.begin_trace("s1") == trace_id
    assert tracer.record_span(trace_id, "plan", t0, 0.0) == derive_span_id(
        trace_id, 3
    )


def test_unregistered_trace_drops_spans():
    """A span for a trace nobody began (e.g. a warm-up detect) is
    dropped rather than inventing structure a replay could not name."""
    tracer = Tracer()
    assert tracer.record_span("0" * 16, "plan", time.perf_counter(), 0.0) == ""
    assert tracer.events() == []


# ------------------------------------------------------- lifecycle/export

def _traced_pair(tracer):
    trace_id = tracer.begin_trace("s1")
    t0 = time.perf_counter()
    plan = tracer.record_span(trace_id, "plan", t0, 0.01, tick=1)
    tracer.record_span(
        trace_id, "worker-detect", t0 + 0.002, 0.005, parent_id=plan, tid=2
    )
    return trace_id, t0


def test_finish_trace_synthesizes_one_valid_root():
    tracer = Tracer(slow_query_threshold=1e9)
    trace_id, _t0 = _traced_pair(tracer)
    tracer.finish_trace(trace_id, "completed")
    events = tracer.events()
    assert [e["name"] for e in events] == ["plan", "worker-detect", "session"]
    assert validate_trace(events) == []
    root = events[-1]
    assert root["args"]["parent_id"] == ""
    assert root["args"]["span_id"] == derive_span_id(trace_id, 0)
    assert root["args"]["session"] == "s1"
    assert root["args"]["state"] == "completed"
    # the root spans the extent of its children
    assert root["dur"] >= events[0]["dur"]
    # nothing retained: the extent is far below the slow threshold
    assert tracer.slow_queries() == []
    # finishing again is a no-op, not a duplicate root
    tracer.finish_trace(trace_id)
    assert len(tracer.events()) == 3


def test_slow_query_threshold_is_inclusive_and_retains_trees():
    """The >= boundary: an extent exactly at the threshold is retained,
    as a nested span tree rooted at the session span."""
    tracer = Tracer(slow_query_threshold=0.5)
    trace_id = tracer.begin_trace("s1")
    t0 = time.perf_counter()
    plan = tracer.record_span(trace_id, "plan", t0, 0.5)  # extent == 0.5
    tracer.record_span(trace_id, "worker-detect", t0, 0.25, parent_id=plan)
    tracer.finish_trace(trace_id, "exhausted")
    retained = tracer.slow_queries()
    assert len(retained) == 1
    entry = retained[0]
    assert entry["session"] == "s1" and entry["trace_id"] == trace_id
    assert entry["duration_seconds"] == pytest.approx(0.5)
    tree = entry["spans"]
    assert tree["name"] == "session"
    assert [c["name"] for c in tree["children"]] == ["plan"]
    assert [c["name"] for c in tree["children"][0]["children"]] == [
        "worker-detect"
    ]
    # one tick below the boundary is not retained
    quiet = Tracer(slow_query_threshold=0.5)
    tid2 = quiet.begin_trace("s2")
    quiet.record_span(tid2, "plan", time.perf_counter(), 0.499)
    quiet.finish_trace(tid2)
    assert quiet.slow_queries() == []


def test_slow_query_ring_is_bounded_and_evicts_oldest():
    tracer = Tracer(slow_query_threshold=0.0, slow_query_capacity=2)
    for i in range(4):
        trace_id = tracer.begin_trace(f"s{i}")
        tracer.record_span(trace_id, "plan", time.perf_counter(), 0.001)
        tracer.finish_trace(trace_id)
    assert [q["session"] for q in tracer.slow_queries()] == ["s2", "s3"]


def test_per_trace_span_cap_counts_drops():
    from repro.telemetry.trace import _MAX_SPANS_PER_TRACE

    tracer = Tracer(capacity=_MAX_SPANS_PER_TRACE + 64, slow_query_threshold=0.0)
    trace_id = tracer.begin_trace("s1")
    t0 = time.perf_counter()
    for i in range(_MAX_SPANS_PER_TRACE + 5):
        tracer.record_span(trace_id, "plan", t0, 0.0)
    tracer.finish_trace(trace_id)
    root = tracer.events()[-1]
    assert root["name"] == "session"
    assert root["args"]["dropped_spans"] == 5
    assert len(tracer.slow_queries()[0]["spans"]["children"]) == (
        _MAX_SPANS_PER_TRACE
    )


def test_finish_all_closes_every_open_trace_with_states():
    tracer = Tracer(slow_query_threshold=1e9)
    a = tracer.begin_trace("s1")
    b = tracer.begin_trace("s2")
    t0 = time.perf_counter()
    tracer.record_span(a, "plan", t0, 0.001)
    tracer.record_span(b, "plan", t0, 0.001)
    tracer.finish_all({"s1": "active"})
    events = tracer.events()
    assert validate_trace(events) == []
    roots = {e["args"]["trace_id"]: e for e in events if e["name"] == "session"}
    assert set(roots) == {a, b}
    assert roots[a]["args"]["state"] == "active"
    assert "state" not in roots[b]["args"]


def test_dispatch_context_handoff():
    """The tick loop declares which traces ride a coalesced detect call;
    the coordinator reads them; the finally always clears."""
    tracer = Tracer()
    assert tracer.dispatch_contexts() == ()
    tracer.begin_dispatch([("t1", "p1"), ("t2", "p2")])
    assert tracer.dispatch_contexts() == (("t1", "p1"), ("t2", "p2"))
    tracer.end_dispatch()
    assert tracer.dispatch_contexts() == ()


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.begin_trace("s1") == ""
    assert NULL_TRACER.record_span("t", "plan", 0.0, 0.0) == ""
    assert NULL_TRACER.root_span_id("t") == ""
    NULL_TRACER.begin_dispatch([("t", "p")])
    assert NULL_TRACER.dispatch_contexts() == ()
    NULL_TRACER.finish_trace("t")
    NULL_TRACER.finish_all()
    assert NULL_TRACER.events() == [] and NULL_TRACER.slow_queries() == []


def test_tracer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
    with pytest.raises(ValueError):
        Tracer(slow_query_threshold=-0.1)
    with pytest.raises(ValueError):
        Tracer(slow_query_capacity=0)


# -------------------------------------------------------------- validator

def _valid_events():
    tracer = Tracer(slow_query_threshold=1e9)
    trace_id, _ = _traced_pair(tracer)
    tracer.finish_trace(trace_id)
    return tracer.events()


def test_validator_accepts_real_output_and_documents():
    events = _valid_events()
    assert validate_trace(events) == []
    document = trace_document(events)
    assert document["traceEvents"] == events
    assert validate_trace(document) == []
    # wrapping a document again is a no-op
    assert trace_document(document) is document


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda e: e[0].pop("ts"), "missing keys"),
        (lambda e: e[0].update(ph="B"), "ph must be 'X'"),
        (lambda e: e[0].update(ts=-5.0), "negative"),
        (lambda e: e[0].update(dur="fast"), "must be a number"),
        (lambda e: e[0]["args"].update(trace_id="xyz"), "bad trace_id"),
        (lambda e: e[0]["args"].update(span_id="XYZ"), "bad span_id"),
        (
            lambda e: e[0]["args"].update(parent_id="f" * 16),
            "parent f" + "f" * 15 + " not found",
        ),
        (
            lambda e: e[1]["args"].update(
                span_id=e[0]["args"]["span_id"]
            ),
            "duplicate span_id",
        ),
        (lambda e: e.pop(), "no root span"),
        (lambda e: e.append(dict(e[-1])), "2 root spans"),
        (lambda e: e[-1].update(name="wrong"), "root span must be named"),
    ],
)
def test_validator_catches_each_contract_violation(mutate, fragment):
    events = [dict(e, args=dict(e["args"])) for e in _valid_events()]
    mutate(events)
    errors = validate_trace(events)
    assert errors, "validator accepted a broken trace"
    assert any(fragment in error for error in errors), errors


def test_validator_rejects_non_trace_shapes():
    assert validate_trace({"events": []}) == ["document missing 'traceEvents'"]
    assert validate_trace("nope") == ["trace must be a list of events"]
    assert validate_trace([42]) == ["event[0]: not an object"]


# ------------------------------------------------- end-to-end causal chain

def _world():
    return clip_repository(
        "cam0", (80, 70, 90, 60),
        [stationary_instance(i, (20 + 61 * i) % 270, 25) for i in range(4)],
    )


def test_sharded_run_exports_full_causal_chain():
    """The acceptance criterion, in-process: one traced session on a
    2-shard service exports a valid Chrome trace whose admission ->
    plan -> shard-dispatch -> worker-detect -> commit spans all hang
    under that session's one trace id, worker spans parented under
    their dispatch spans."""
    telemetry.enable(trace=True)
    service = QueryService(
        _world(),
        frames_per_tick=16,
        chunk_frames=50,
        execution="sharded",
        shards=2,
        seed=0,
    )
    try:
        sid = service.submit("cam0", "bus", max_samples=40)
        service.run_until_idle(max_ticks=30)
    finally:
        service.close()
    events = telemetry.get().tracer.events()
    assert validate_trace(events) == []
    trace_id = derive_trace_id(sid)
    mine = [e for e in events if e["args"]["trace_id"] == trace_id]
    assert mine and mine == events  # one session => one trace
    names = {e["name"] for e in mine}
    assert {
        "admission", "plan", "shard-dispatch", "worker-detect", "commit",
        "session",
    } <= names
    # causal parenting: worker-detect hangs under a shard-dispatch span,
    # shard-dispatch/admission/plan/commit under the session root
    by_id = {e["args"]["span_id"]: e for e in mine}
    root_id = derive_span_id(trace_id, 0)
    for event in mine:
        parent = event["args"]["parent_id"]
        if event["name"] == "worker-detect":
            assert by_id[parent]["name"] == "shard-dispatch"
            assert event["tid"] == by_id[parent]["args"]["shard"] + 1
        elif event["name"] == "session":
            assert parent == ""
        else:
            assert parent == root_id
    # dispatch spans carry their shard and the frame count they routed
    dispatches = [e for e in mine if e["name"] == "shard-dispatch"]
    assert {e["args"]["shard"] for e in dispatches} == {0, 1}
    assert all(e["args"]["frames"] >= 1 for e in dispatches)


def test_tracing_keeps_local_run_chain_without_shard_spans():
    telemetry.enable(trace=True)
    service = QueryService(_world(), frames_per_tick=16, chunk_frames=50, seed=0)
    try:
        service.submit("cam0", "bus", max_samples=30)
        service.run_until_idle(max_ticks=30)
    finally:
        service.close()
    events = telemetry.get().tracer.events()
    assert validate_trace(events) == []
    names = {e["name"] for e in events}
    assert {"admission", "plan", "commit", "session"} <= names
    assert "shard-dispatch" not in names and "worker-detect" not in names


def test_sessions_turning_terminal_outside_a_commit_close_their_traces():
    """The open-trace leak: a session satisfied by the warm start alone,
    cancelled, or found exhausted at plan time used to keep its trace
    open (and out of the export) until ``service.close()``.  Each must
    leave the open-trace map and file exactly one root event."""
    tel = telemetry.enable(trace=True)
    repo = _world()
    service = QueryService(repo, frames_per_tick=16, chunk_frames=50, seed=0)
    try:
        first = service.submit("cam0", "bus", limit=2, warm_start=False)
        service.run_until_idle()
        # every later limit-2 query is answered from the warm cache at admission
        warm = [service.submit("cam0", "bus", limit=2) for _ in range(20)]
        assert all(service.status(sid).state == "completed" for sid in warm)
        cancelled = service.submit("cam0", "bus", max_samples=40, warm_start=False)
        service.tick()
        service.cancel(cancelled)
        service.cancel(cancelled)  # closing twice files nothing twice
        never_ran = service.submit("cam0", "bus", max_samples=40, warm_start=False)
        service.cancel(never_ran)
        assert tel.tracer._traces == {}
        events = tel.tracer.events()
        assert validate_trace(events) == []
        roots = [e["args"] for e in events if e["name"] == "session"]
        assert sorted(r["session"] for r in roots) == sorted(
            [first, cancelled, never_ran, *warm]
        )
        states = {r["session"]: r["state"] for r in roots}
        assert states[cancelled] == states[never_ran] == "cancelled"
        assert {states[sid] for sid in warm} == {"completed"}
    finally:
        service.close()
