"""Telemetry subsystem tests: registry semantics, snapshot determinism,
the no-op default, the slow-tick ring, renderers, schema validation — and the
contract that matters most: decision streams are bit-identical with
telemetry enabled or disabled."""

import inspect
import json
import threading

import pytest
from contracts import (
    clip_repository,
    fingerprint,
    parity_service,
    small_world,
    stationary_instance,
)

from repro import telemetry
from repro.cli import main
from repro.detection.cache import CachingDetector, DetectionCache
from repro.detection.detector import OracleDetector
from repro.serving import ingest as serving_ingest
from repro.serving import (
    PriorityScheduler,
    QueryService,
    RoundRobinScheduler,
    ThompsonSumScheduler,
)
from repro.serving.ingest import IngestEntry
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    series_key,
)
from repro.telemetry.observers import DispatchObserver, TickObserver
from repro.telemetry.trace import SlowRing, tick_tree
from repro.telemetry.prometheus import render
from repro.telemetry.schema import load_schema, validate, validation_errors

SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "priority": PriorityScheduler,
    "thompson": ThompsonSumScheduler,
}


@pytest.fixture(autouse=True)
def _clean_global_pipeline():
    """Telemetry is module-global state; no test may leak an enabled
    pipeline into the next (or the parity contract itself is void)."""
    telemetry.disable()
    yield
    telemetry.disable()


# ---------------------------------------------------------------- registry

def test_series_key_sorts_labels():
    assert series_key("m") == "m"
    assert series_key("m", {"b": 1, "a": "x"}) == 'm{a="x",b="1"}'
    # call-site dict order never matters
    assert series_key("m", {"a": "x", "b": 1}) == series_key("m", {"b": 1, "a": "x"})


def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_operations():
    gauge = Gauge("g")
    gauge.set(7)
    gauge.inc(3)
    gauge.dec()
    assert gauge.value == 9
    gauge.set_max(5)  # ratchet: lower values never win
    assert gauge.value == 9
    gauge.set_max(12)
    assert gauge.value == 12


def test_histogram_buckets_fixed_and_exact():
    hist = Histogram("h", (1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 3.0, 100.0):
        hist.observe(value)
    # upper-inclusive bounds plus one overflow bucket
    assert hist.counts == [2, 1, 1, 1]
    assert hist.count == 5
    assert hist.sum == pytest.approx(106.0)
    body = hist.to_dict()
    assert body["buckets"] == [1.0, 2.0, 4.0]
    assert body["counts"] == [2, 1, 1, 1]


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", ())
    with pytest.raises(ValueError):
        Histogram("h", (1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("h", (2.0, 1.0))


def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    a = registry.counter("repro_x_total", {"k": "v"})
    b = registry.counter("repro_x_total", {"k": "v"})
    assert a is b
    assert registry.counter("repro_x_total") is not a  # different series


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("repro_x_total")
    with pytest.raises(ValueError):
        registry.gauge("repro_x_total")
    with pytest.raises(ValueError):
        registry.histogram("repro_x_total")


def test_registry_thread_safety():
    registry = MetricsRegistry()
    counter = registry.counter("repro_x_total")

    def work():
        for _ in range(5000):
            counter.inc()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 40_000


def test_snapshot_is_sorted_and_structurally_deterministic():
    def build():
        registry = MetricsRegistry()
        # scrambled creation order must not show in the snapshot
        registry.counter("repro_z_total").inc(3)
        registry.counter("repro_a_total").inc(1)
        registry.gauge("repro_m_depth", {"b": 2}).set(5)
        registry.gauge("repro_m_depth", {"a": 1}).set(4)
        registry.histogram("repro_h_seconds", buckets=(1.0, 2.0)).observe(1.5)
        return registry.snapshot()

    first, second = build(), build()
    assert list(first["counters"]) == ["repro_a_total", "repro_z_total"]
    assert list(first["gauges"]) == ['repro_m_depth{a="1"}', 'repro_m_depth{b="2"}']
    # identical work => byte-identical serialized snapshots
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ------------------------------------------------------------ no-op default

def test_default_pipeline_is_noop():
    tel = telemetry.get()
    assert isinstance(tel, NullTelemetry)
    assert not tel.enabled
    # every instrument is one shared object: nothing allocates per call
    assert tel.counter("a") is tel.counter("b")
    assert tel.counter("a") is tel.gauge("g") is tel.histogram("h")
    tel.counter("a").inc(5)
    tel.gauge("g").set(3)
    tel.histogram("h").observe(1.0)
    snap = tel.snapshot()
    assert snap["enabled"] is False
    assert snap["counters"] == {} and snap["slow_ticks"] == []


def test_enable_disable_lifecycle():
    live = telemetry.enable()
    assert telemetry.get() is live
    assert isinstance(live, Telemetry) and live.enabled
    live.counter("repro_x_total").inc()
    # enabling again starts a fresh window, never accumulates
    fresh = telemetry.enable()
    assert fresh is not live
    assert fresh.snapshot()["counters"] == {}
    telemetry.disable()
    assert isinstance(telemetry.get(), NullTelemetry)


# ---------------------------------------------------------- observer twins

@pytest.mark.parametrize(
    "live, null_name",
    [(TickObserver, "tick_observer"), (DispatchObserver, "dispatch_observer")],
)
def test_null_observers_mirror_the_live_ones(live, null_name):
    """Every public method of a live observer exists on the shared null
    twin, takes the same arguments, and does nothing."""
    null = getattr(NullTelemetry(), null_name)
    assert null is getattr(telemetry.get(), null_name)  # one shared object
    assert isinstance(getattr(Telemetry(), null_name), live)
    methods = [
        name for name, member in vars(live).items()
        if inspect.isfunction(member) and not name.startswith("_")
    ]
    assert methods
    for name in methods:
        arity = len(inspect.signature(getattr(live, name)).parameters) - 1
        assert getattr(null, name)(*[None] * arity) is None


# ---------------------------------------------------------------- slow ring

def _offer_tick(ring, number, duration=0.001):
    ring.offer(duration, lambda: tick_tree(number, duration, [], tick=number))


def test_tick_tree_is_a_trace_with_stage_children():
    stages = [("sync", 0.1, {}), ("detect", 0.3, {"rounds": 2, "frames": 8})]
    tree = tick_tree(3, 0.5, stages, tick=3, frames=8)
    assert tree["name"] == "tick" and tree["duration_seconds"] == 0.5
    assert tree["args"] == {"frames": 8, "tick": 3}
    assert [c["name"] for c in tree["children"]] == ["sync", "detect"]
    assert "args" not in tree["children"][0]
    assert tree["children"][1]["args"] == {"frames": 8, "rounds": 2}
    # ids are derived from the tick number: replayable, distinct per span
    assert tree == tick_tree(3, 0.5, stages, tick=3, frames=8)
    ids = {tree["span_id"], *(c["span_id"] for c in tree["children"])}
    assert len(ids) == 3
    assert tree["span_id"] != tick_tree(4, 0.5, [])["span_id"]


def test_slow_tick_ring_buffer_bounds_and_filters():
    ring = SlowRing(0.0, 2, "slow_tick")
    for i in range(4):
        _offer_tick(ring, i)
    retained = ring.entries()
    assert len(retained) == 2  # capped: new slow ticks evict the oldest
    assert [t["args"]["tick"] for t in retained] == [2, 3]
    # a high threshold filters everything out, without building the entry
    quiet = SlowRing(10.0, 32, "slow_tick")
    quiet.offer(0.5, lambda: pytest.fail("built an entry it would not keep"))
    assert quiet.entries() == []
    with pytest.raises(ValueError, match="slow_tick_threshold"):
        Telemetry(slow_tick_threshold=-1.0)
    with pytest.raises(ValueError, match="slow_tick_capacity"):
        Telemetry(slow_tick_capacity=0)


def test_slow_tick_ring_evicts_in_strict_fifo_order_at_capacity():
    """At capacity the ring is a sliding window: after N insertions with
    capacity C, exactly the last C survive, oldest first — never a
    reordering, never a skip."""
    capacity = 5
    ring = SlowRing(0.0, capacity, "slow_tick")
    for i in range(17):
        _offer_tick(ring, i)
    assert [t["args"]["tick"] for t in ring.entries()] == list(range(12, 17))
    # one more evicts exactly the oldest retained entry
    _offer_tick(ring, 17)
    assert [t["args"]["tick"] for t in ring.entries()] == list(range(13, 18))


def test_slow_tick_threshold_boundary_is_inclusive():
    """``>=`` semantics: a tick exactly at the threshold is slow; one
    strictly below is not.  Durations are offered pre-timed, so the
    boundary is testable without sleeping."""
    ring = SlowRing(0.1, 32, "slow_tick")
    _offer_tick(ring, 0, duration=0.1)      # == threshold: kept
    _offer_tick(ring, 1, duration=0.0999)   # below: dropped
    _offer_tick(ring, 2, duration=0.1001)   # above: kept
    assert [t["args"]["tick"] for t in ring.entries()] == [0, 2]


# --------------------------------------------------------------- prometheus

def test_prometheus_rendering():
    tel = Telemetry()
    tel.counter("repro_x_total", {"shard": 0}).inc(3)
    tel.gauge("repro_depth").set(2)
    hist = tel.histogram("repro_h_seconds", buckets=(1.0, 2.0))
    hist.observe(0.5)
    hist.observe(1.5)
    hist.observe(9.0)
    text = render(tel.snapshot())
    assert '# TYPE repro_x_total counter' in text
    assert 'repro_x_total{shard="0"} 3' in text
    assert "repro_depth 2" in text
    # cumulative buckets with the implicit +Inf
    assert 'repro_h_seconds_bucket{le="1"} 1' in text
    assert 'repro_h_seconds_bucket{le="2"} 2' in text
    assert 'repro_h_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_h_seconds_count 3" in text


# ------------------------------------------------------------------- schema

def test_schema_accepts_real_snapshots():
    tel = Telemetry(slow_tick_threshold=0.0)
    tel.counter("repro_x_total").inc()
    tel.histogram("repro_h_seconds").observe(0.01)
    _offer_tick(tel.slow_ticks, 1)
    validate(tel.snapshot())  # must not raise
    validate(NullTelemetry().snapshot())


def test_schema_rejects_malformed_snapshots():
    good = Telemetry().snapshot()
    assert validation_errors(good) == []
    assert validation_errors({}) != []  # every top-level key required
    bad_counter = dict(good, counters={"repro_x_total": "three"})
    assert any("counters" in e for e in validation_errors(bad_counter))
    bad_bool = dict(good, counters={"repro_x_total": True})
    assert validation_errors(bad_bool)  # bool must not pass as a number
    with pytest.raises(ValueError):
        validate(dict(good, version=99))


def test_schema_validator_refuses_unsupported_keywords():
    with pytest.raises(ValueError, match="unsupported"):
        validation_errors({}, schema={"type": "object", "patternProperties": {}})
    assert load_schema()["properties"]["version"]["enum"] == [1]


# ------------------------------------------------- cache satellite fixes

def _oracle_world():
    return clip_repository("cam0", (100,), [stationary_instance(0, 10, 30)])


def test_get_many_reports_exact_per_batch_split():
    cache = DetectionCache()
    cache.put_many("cam0", [(1, [])])
    cache.put_many("cam0", [(3, [])])
    out = cache.get_many("cam0", [1, 2, 3, 4, 1])
    assert [o is not None for o in out] == [True, False, True, False, True]
    assert cache.stats.batches == 1
    assert cache.stats.last_batch_hits == 3
    assert cache.stats.last_batch_misses == 2
    assert cache.stats.hits == 3 and cache.stats.misses == 2
    cache.get_many("cam0", [1])
    assert cache.stats.batches == 2
    assert (cache.stats.last_batch_hits, cache.stats.last_batch_misses) == (1, 0)
    assert cache.stats.hits == 4  # totals keep accumulating


def test_clear_resets_accounting():
    cache = DetectionCache()
    cache.put_many("cam0", [(1, [])])
    cache.get_many("cam0", [1])
    cache.get_many("cam0", [2])
    assert cache.stats.lookups == 2
    cache.clear()
    assert cache.stats.lookups == 0 and cache.stats.inserts == 0
    assert cache.stats.hit_rate == 0.0
    # post-clear rates describe only the post-clear population
    cache.get_many("cam0", [1])
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)


def test_dedup_savings_counted_once_per_duplicate_miss():
    telemetry.enable()
    repo = _oracle_world()
    caching = CachingDetector(OracleDetector(repo), DetectionCache(), "cam0")
    caching.detect_many([5, 5, 5, 7])  # four misses, two duplicate
    caching.cache.flush()  # cache counters drain at durability points
    snap = telemetry.get().snapshot()
    assert snap["counters"]["repro_cache_dedup_saved_total"] == 2
    assert snap["counters"]["repro_cache_misses_total"] == 4
    assert snap["counters"]["repro_cache_inserts_total"] == 2


# --------------------------------------------------- parity: on == off

def _decision_stream(seed, scheduler, shards=1, enabled=False, trace=False):
    """Run a fixed workload and return the canonical decision bytes."""
    if enabled or trace:
        telemetry.enable(slow_tick_threshold=0.0, trace=trace)
    else:
        telemetry.disable()
    service = parity_service(
        small_world(seed), seed, "sharded" if shards > 1 else "local", shards,
        scheduler=SCHEDULERS[scheduler](),
    )
    try:
        a = service.submit("cam0", "bus", limit=3, max_samples=40, priority=2.0)
        b = service.submit("cam0", "car", max_samples=30)
        service.run_until_idle(max_ticks=50)
        if trace:  # the traced leg must actually trace, or parity is vacuous
            assert telemetry.get().tracer.events()
        return fingerprint(service, (a, b))
    finally:
        service.close()
        telemetry.disable()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decision_streams_identical_telemetry_on_or_off(seed, scheduler):
    """The acceptance contract: telemetry only observes.  Same seed, same
    workload => byte-identical decision streams whether the pipeline is
    the live registry or the no-op default."""
    off = _decision_stream(seed, scheduler, enabled=False)
    on = _decision_stream(seed, scheduler, enabled=True)
    assert on == off


def test_parity_holds_under_sharded_execution():
    off = _decision_stream(3, "round-robin", shards=2, enabled=False)
    on = _decision_stream(3, "round-robin", shards=2, enabled=True)
    assert on == off


@pytest.mark.parametrize("scheduler", ["round-robin", "priority"])
@pytest.mark.parametrize("shards", [1, 4])
def test_decision_streams_identical_tracing_on_or_off(shards, scheduler):
    """The tracing acceptance matrix: causal span recording — including
    the dispatch-context handoff into shard workers and back — observes
    only.  Same seed, same workload => byte-identical decision streams
    with tracing fully on versus telemetry fully off, across shard
    counts and scheduler policies."""
    off = _decision_stream(7, scheduler, shards=shards, enabled=False)
    on = _decision_stream(7, scheduler, shards=shards, trace=True)
    assert on == off
    # metrics-only (tracing off) sits between the two and matches both
    assert _decision_stream(7, scheduler, shards=shards, enabled=True) == off


# --------------------------------------- five-layer coverage + surfaces

def test_sharded_run_covers_all_five_layers(tmp_path):
    """One sharded serving run must land series under every layer prefix
    — serving ticks, cache, exec batches, shards, ingest — plus span
    trees in the slow-tick log (threshold 0 retains every tick)."""
    telemetry.enable(slow_tick_threshold=0.0)
    repo = small_world(0)
    service = QueryService(
        repo,
        frames_per_tick=16,
        chunk_frames=50,
        execution="sharded",
        shards=2,
        seed=0,
    )
    try:
        serving_ingest.append_entry(
            tmp_path, IngestEntry(dataset="cam0", frames=60)
        )
        serving_ingest.apply_journal(service, tmp_path)
        service.submit("cam0", "bus", max_samples=30)
        for _ in range(4):
            service.tick()
        snap = telemetry.get().snapshot()
    finally:
        service.close()
    validate(snap)
    series = (
        list(snap["counters"]) + list(snap["gauges"]) + list(snap["histograms"])
    )
    for layer in ("serving", "cache", "exec", "shard", "ingest"):
        assert any(key.startswith(f"repro_{layer}_") for key in series), layer
    # idle rounds (session budget drained) do no work, count no tick and
    # file no tick: the slow-tick log holds exactly the working ticks,
    # numbered as the counter counts them
    worked = snap["counters"]["repro_serving_ticks_total"]
    assert 1 <= worked < 4
    assert [t["args"]["tick"] for t in snap["slow_ticks"]] == list(
        range(1, worked + 1)
    )
    # span trees: every retained tick carries every stage child
    for tick in snap["slow_ticks"]:
        assert [c["name"] for c in tick["children"]] == [
            "sync", "plan", "coalesce", "detect", "commit",
        ]


def test_idle_rounds_file_no_tick():
    """An idle ``tick()`` advances nothing: it is not counted, and it
    must not file a tick record numbered like the next working tick."""
    tel = telemetry.enable(slow_tick_threshold=0.0)
    service = QueryService(
        small_world(0), frames_per_tick=16, chunk_frames=50, seed=0
    )
    try:
        assert service.tick() == {}  # nothing submitted yet
        service.submit("cam0", "bus", max_samples=20)
        worked = service.run_until_idle()
        for _ in range(3):
            assert service.tick() == {}
        snap = tel.snapshot()
    finally:
        service.close()
    assert worked == service.ticks == snap["counters"]["repro_serving_ticks_total"]
    assert [t["args"]["tick"] for t in snap["slow_ticks"]] == list(
        range(1, worked + 1)
    )


def test_per_session_gauges_end_with_their_session():
    """A long-lived server must not keep two gauge series (and their
    handles) per session it ever served: terminal sessions retire
    theirs, live and paused ones keep them."""
    tel = telemetry.enable()
    service = QueryService(
        small_world(0), frames_per_tick=64, chunk_frames=50, batch_size=4,
        seed=0,
    )

    def session_series():
        return [
            key for key in tel.snapshot()["gauges"] if "{session=" in key
        ]

    try:
        for _ in range(200):  # one-batch sessions, a few alive per tick
            service.submit("cam0", "car", max_samples=4, warm_start=False)
            if len(service.schedulable_sessions()) >= 8:
                service.tick()
        service.run_until_idle()
        assert all(s.state.terminal for s in service.sessions.values())
        assert tel.snapshot()["counters"]["repro_serving_frames_total"] == 800
        assert session_series() == []
        assert tel.tick_observer.session_gauges == {}
        # live sessions are still reported; pausing keeps, cancelling retires
        paused = service.submit("cam0", "bus", max_samples=400, warm_start=False)
        gone = service.submit("cam0", "bus", max_samples=400, warm_start=False)
        service.tick()
        assert len(session_series()) == 4
        service.pause(paused)
        service.cancel(gone)
        assert session_series() == [
            f'repro_serving_session_deficit_frames{{session="{paused}"}}',
            f'repro_serving_session_grant_frames{{session="{paused}"}}',
        ]
        assert set(tel.tick_observer.session_gauges) == {paused}
    finally:
        service.close()


def test_a_session_cancelled_behind_the_service_retires_its_gauges():
    """``session.cancel()`` called on the session object, not through
    :meth:`QueryService.cancel`: the service learns of it only when its
    ready index retires the session, and the gauges must end there."""
    tel = telemetry.enable()
    service = QueryService(small_world(0), frames_per_tick=8, chunk_frames=50, seed=0)
    try:
        kept = service.submit("cam0", "bus", max_samples=400, warm_start=False)
        gone = service.submit("cam0", "car", max_samples=400, warm_start=False)
        service.tick()
        assert set(tel.tick_observer.session_gauges) == {kept, gone}
        service.sessions[gone].cancel()
        for _ in range(3):
            service.tick()
        series = [key for key in tel.snapshot()["gauges"] if "{session=" in key]
        assert series == [
            f'repro_serving_session_deficit_frames{{session="{kept}"}}',
            f'repro_serving_session_grant_frames{{session="{kept}"}}',
        ]
        assert set(tel.tick_observer.session_gauges) == {kept}
    finally:
        service.close()


def test_registry_drop_forgets_one_series():
    registry = MetricsRegistry()
    registry.gauge("repro_g_frames", {"session": "s1"}).set(3)
    registry.gauge("repro_g_frames", {"session": "s2"}).set(4)
    registry.counter("repro_c_total").inc()
    registry.drop("repro_g_frames", {"session": "s1"})
    registry.drop("repro_g_frames", {"session": "s1"})  # absent is fine
    registry.drop("repro_c_total")
    snap = registry.snapshot()
    assert snap["gauges"] == {'repro_g_frames{session="s2"}': 4}
    assert snap["counters"] == {}
    # a dropped name is free to come back, as any kind
    registry.gauge("repro_c_total").set(1)


def test_torn_tail_repair_is_counted(tmp_path):
    telemetry.enable()
    serving_ingest.append_entry(tmp_path, IngestEntry(dataset="cam0", frames=10))
    with open(serving_ingest.journal_path(tmp_path), "a", encoding="utf-8") as fh:
        fh.write('{"dataset": "torn')  # a crash mid-append
    serving_ingest.append_entry(tmp_path, IngestEntry(dataset="cam0", frames=10))
    snap = telemetry.get().snapshot()
    assert snap["counters"]["repro_ingest_torn_tail_repairs_total"] == 1
    assert snap["counters"]["repro_ingest_entries_total"] == 2
    assert len(serving_ingest.load_entries(tmp_path)) == 2


# ---------------------------------------------------------------- CLI

def test_metrics_out_writes_valid_stable_snapshot(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main(
        [
            "simulate", "--seed", "11", "--scenarios", "1", "--quiet",
            "--metrics-out", str(out),
        ]
    )
    assert code == 0
    snapshot = json.loads(out.read_text(encoding="utf-8"))
    validate(snapshot)
    assert snapshot["enabled"] is True
    assert snapshot["counters"]  # a simulation always does cache work
    # the flag never leaks an enabled pipeline past the command
    assert isinstance(telemetry.get(), NullTelemetry)
    capsys.readouterr()
    # the stats surface renders and validates the same file
    assert main(["stats", "--metrics", str(out), "--validate"]) == 0
    table = capsys.readouterr().out
    assert "repro_cache_misses_total" in table
    assert main(["stats", "--metrics", str(out), "--format", "prometheus"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE repro_cache_misses_total counter" in prom


def test_stats_validate_rejects_bad_snapshot(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1}), encoding="utf-8")
    assert main(["stats", "--metrics", str(bad), "--validate"]) == 1
    assert "fails schema validation" in capsys.readouterr().err
    assert main(["stats", "--metrics", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_simulate_json_carries_metrics_block(capsys):
    assert main(["simulate", "--seed", "5", "--scenarios", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    metrics = payload["results"][0]["metrics"]
    for key in (
        "ticks_run", "steps_committed", "detector_calls",
        "cache_hits", "cache_misses", "cache_inserts", "cache_batches",
        "crashes", "detector_errors",
    ):
        assert key in metrics
    assert metrics["detector_calls"] >= 0


def test_plan_seconds_split_draw_vs_score_reaches_stats(tmp_path, capsys):
    """The vectorized hot path's instrumentation: every working tick
    files ``repro_serving_plan_seconds`` histograms for both stages of
    plan() — the Thompson draw and the frame scoring/pick — and the
    ``stats`` surface renders them."""
    telemetry.enable()
    service = QueryService(
        small_world(0), frames_per_tick=16, chunk_frames=50, seed=0
    )
    try:
        service.submit("cam0", "bus", max_samples=30)
        for _ in range(3):
            service.tick()
        snap = telemetry.get().snapshot()
    finally:
        service.close()
        telemetry.disable()
    validate(snap)
    draw_key = 'repro_serving_plan_seconds{stage="draw"}'
    score_key = 'repro_serving_plan_seconds{stage="score"}'
    assert draw_key in snap["histograms"], sorted(snap["histograms"])
    assert score_key in snap["histograms"]
    draw = snap["histograms"][draw_key]
    score = snap["histograms"][score_key]
    # one observation per worked tick, and drawing took measurable time
    assert draw["count"] >= 1 and draw["count"] == score["count"]
    assert draw["sum"] > 0.0
    # both are wall-clock durations: a negative sum means the split
    # double-counted the draw window against the score window
    assert score["sum"] >= 0.0
    # the split is visible through the stats CLI
    out = tmp_path / "metrics.json"
    out.write_text(json.dumps(snap), encoding="utf-8")
    assert main(["stats", "--metrics", str(out)]) == 0
    table = capsys.readouterr().out
    assert "repro_serving_plan_seconds" in table
    assert 'stage="draw"' in table and 'stage="score"' in table
