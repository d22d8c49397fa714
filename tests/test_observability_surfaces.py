"""Cross-process observability surfaces: fleet aggregation of worker
registries under ``shard_id`` labels, label-value escaping and the
Prometheus round trip, snapshot history delta/rate derivation, the
server ``watch`` op, ``repro top`` / ``repro trace`` / ``stats
--watch``, and the atomic-write guarantee every sink shares (including
the SIGKILL-mid-write regression)."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest
from contracts import clip_repository, stationary_instance

import repro
from repro import telemetry
from repro.cli import main
from repro.server import AsyncQueryServer, ServerConfig, ServerThread
from repro.serving import QueryService
from repro.serving.client import ServingClient
from repro.telemetry import Telemetry, atomic_write_text
from repro.telemetry.history import SnapshotHistory
from repro.telemetry.prometheus import parse_sample, render
from repro.telemetry.registry import (
    MetricsRegistry,
    escape_label_value,
    merge_histogram_dicts,
    merge_snapshot_bodies,
    parse_series_key,
    series_key,
    unescape_label_value,
)
from repro.telemetry.schema import validate
from repro.telemetry.trace import Tracer, validate_trace

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(autouse=True)
def _clean_global_pipeline():
    telemetry.disable()
    yield
    telemetry.disable()


def _world():
    return clip_repository(
        "cam0", (80, 70, 90, 60),
        [stationary_instance(i, (20 + 61 * i) % 270, 25) for i in range(4)],
    )


# ------------------------------------------------------- label escaping

HOSTILE_VALUES = [
    'quote " inside',
    "back\\slash",
    "new\nline",
    "\\n",  # literal backslash-n must NOT round-trip as a newline
    'all \\ of " them\ntogether\\',
    "",
]


@pytest.mark.parametrize("value", HOSTILE_VALUES)
def test_escape_unescape_are_exact_inverses(value):
    escaped = escape_label_value(value)
    assert "\n" not in escaped  # exposition samples must stay one line
    assert unescape_label_value(escaped) == value


@pytest.mark.parametrize("value", HOSTILE_VALUES)
def test_series_key_round_trips_hostile_values(value):
    key = series_key("repro_x_total", {"path": value, "shard_id": "0"})
    name, labels = parse_series_key(key)
    assert name == "repro_x_total"
    assert labels == {"path": value, "shard_id": "0"}


def test_hostile_values_cannot_forge_series_identity():
    """The classic injection: without escaping these two collide."""
    a = series_key("m", {"k": 'x",evil="1'})
    b = series_key("m", {"k": "x", "evil": "1"})
    assert a != b
    assert parse_series_key(a)[1] == {"k": 'x",evil="1'}


@pytest.mark.parametrize(
    "key",
    ['m{a="x"', 'm{a=x}', 'm{a="x"b="y"}', 'm{a="x}', 'm{a="x\\"}'],
)
def test_parse_series_key_rejects_malformed(key):
    with pytest.raises(ValueError):
        parse_series_key(key)


@pytest.mark.parametrize("value", HOSTILE_VALUES)
def test_prometheus_sample_round_trip(value):
    """Render a snapshot whose labels carry hostile values, then parse
    the emitted sample line back: same name, same labels, same value."""
    registry = MetricsRegistry()
    registry.counter("repro_x_total", {"path": value}).inc(7)
    text = render(
        {
            "counters": registry.snapshot()["counters"],
            "gauges": {},
            "histograms": {},
        }
    )
    samples = [
        line for line in text.splitlines() if line and not line.startswith("#")
    ]
    assert len(samples) == 1  # newlines in values never split a sample
    name, labels, parsed = parse_sample(samples[0])
    assert name == "repro_x_total"
    assert labels == {"path": value}
    assert parsed == 7.0


def test_parse_sample_rejects_comments_and_garbage():
    with pytest.raises(ValueError):
        parse_sample("# TYPE repro_x_total counter")
    with pytest.raises(ValueError):
        parse_sample("lonely-token")


# ------------------------------------------------------------ merge math

def test_merge_histogram_dicts_adds_elementwise():
    a = {"buckets": [1.0, 2.0], "counts": [1, 2, 3], "sum": 4.0, "count": 6}
    b = {"buckets": [1.0, 2.0], "counts": [10, 0, 1], "sum": 2.5, "count": 11}
    merged = merge_histogram_dicts(a, b)
    assert merged == {
        "buckets": [1.0, 2.0],
        "counts": [11, 2, 4],
        "sum": 6.5,
        "count": 17,
    }
    with pytest.raises(ValueError, match="different buckets"):
        merge_histogram_dicts(a, {**b, "buckets": [1.0, 4.0]})


def test_merge_snapshot_bodies_semantics():
    base = {
        "counters": {"c": 3, "only_base": 1},
        "gauges": {"g": 5},
        "histograms": {
            "h": {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
        },
    }
    other = {
        "counters": {"c": 4, "a_first": 2},
        "gauges": {"g": 9, "g2": 1},
        "histograms": {
            "h": {"buckets": [1.0], "counts": [0, 2], "sum": 6.0, "count": 2}
        },
    }
    before = json.dumps([base, other], sort_keys=True)
    merged = merge_snapshot_bodies(base, other)
    # counter-sum, gauge-last (other wins), histogram-bucket-merge
    assert merged["counters"] == {"a_first": 2, "c": 7, "only_base": 1}
    assert list(merged["counters"]) == ["a_first", "c", "only_base"]  # sorted
    assert merged["gauges"] == {"g": 9, "g2": 1}
    assert merged["histograms"]["h"]["counts"] == [1, 2]
    assert merged["histograms"]["h"]["count"] == 3
    # pure function: inputs unmutated
    assert json.dumps([base, other], sort_keys=True) == before


# ------------------------------------------------------ fleet aggregation

def _worker_body(hits):
    registry = MetricsRegistry()
    registry.counter("repro_cache_hits_total").inc(hits)
    registry.gauge("repro_cache_tier_entries").set(hits * 10)
    return registry.snapshot()


def test_ingest_external_renames_labels_and_replaces():
    tel = Telemetry()
    tel.counter("repro_serving_ticks_total").inc(2)
    tel.ingest_external(_worker_body(3), {"shard_id": "0"})
    tel.ingest_external(_worker_body(5), {"shard_id": "1"})
    snap = tel.snapshot()
    validate(snap)
    assert snap["counters"]["repro_serving_ticks_total"] == 2  # local intact
    assert snap["counters"]['repro_worker_cache_hits_total{shard_id="0"}'] == 3
    assert snap["counters"]['repro_worker_cache_hits_total{shard_id="1"}'] == 5
    assert snap["gauges"]['repro_worker_cache_tier_entries{shard_id="0"}'] == 30
    assert tel.external_sources() == 2
    # re-collection from the same source replaces — never double-counts
    tel.ingest_external(_worker_body(4), {"shard_id": "0"})
    snap = tel.snapshot()
    assert snap["counters"]['repro_worker_cache_hits_total{shard_id="0"}'] == 4
    assert tel.external_sources() == 2


def test_ingest_external_prefixes_nonconforming_names():
    tel = Telemetry()
    registry = MetricsRegistry()
    registry.counter("custom_total", {"op": "get"}).inc(1)
    tel.ingest_external(registry.snapshot(), {"shard_id": "2"})
    key = series_key("repro_worker_custom_total", {"op": "get", "shard_id": "2"})
    assert tel.snapshot()["counters"][key] == 1


def test_sharded_service_fleet_snapshot_covers_every_shard():
    """The acceptance criterion's aggregation half: one snapshot from a
    sharded run carries worker-process detector series for every
    shard, labeled by ``shard_id`` — and harvesting twice after
    the run changes nothing (replacement, not accumulation)."""
    telemetry.enable()
    service = QueryService(
        _world(),
        frames_per_tick=16,
        chunk_frames=50,
        execution="sharded",
        shards=2,
        seed=0,
    )
    try:
        service.submit("cam0", "bus", max_samples=40)
        service.run_until_idle(max_ticks=30)
        assert service.collect_worker_telemetry() == 2
        first = telemetry.get().snapshot()
        assert service.collect_worker_telemetry() == 2
        second = telemetry.get().snapshot()
    finally:
        service.close()
    validate(first)
    worker_counters = {
        key: value
        for key, value in first["counters"].items()
        if key.startswith("repro_worker_")
    }
    for shard in ("0", "1"):
        for family in ("detector_batches", "detector_calls", "detector_frames"):
            matching = [
                key
                for key in worker_counters
                if key.startswith(f"repro_worker_{family}_total")
                and parse_series_key(key)[1].get("shard_id") == shard
            ]
            assert matching, f"no repro_worker_{family} series for shard {shard}"
    second_workers = {
        key: value
        for key, value in second["counters"].items()
        if key.startswith("repro_worker_")
    }
    assert second_workers == worker_counters


def test_local_execution_collects_nothing():
    telemetry.enable()
    service = QueryService(_world(), frames_per_tick=16, chunk_frames=50, seed=0)
    try:
        service.submit("cam0", "bus", max_samples=20)
        service.run_until_idle(max_ticks=20)
        assert service.collect_worker_telemetry() == 0
    finally:
        service.close()
    assert not any(
        key.startswith("repro_worker_")
        for key in telemetry.get().snapshot()["counters"]
    )


# ------------------------------------------------------------- history

def _snap(counter=0, gauge=0, hist_count=0):
    return {
        "counters": {"repro_x_total": counter},
        "gauges": {"repro_depth": gauge},
        "histograms": {
            "repro_h_seconds": {
                "buckets": [1.0],
                "counts": [hist_count, 0],
                "sum": float(hist_count),
                "count": hist_count,
            }
        },
    }


def test_history_derives_deltas_and_rates():
    history = SnapshotHistory(capacity=10)
    assert history.record(_snap(counter=10, gauge=1, hist_count=2), stamp=100.0)
    assert history.record(_snap(counter=30, gauge=7, hist_count=5), stamp=102.0)
    summary = history.summary()
    assert summary["samples"] == 2
    assert summary["span_seconds"] == pytest.approx(2.0)
    stats = summary["counters"]["repro_x_total"]
    assert stats == {"value": 30, "delta": 20, "rate": pytest.approx(10.0)}
    # histograms fold in as :count/:sum counter-like series
    assert summary["counters"]["repro_h_seconds:count"]["delta"] == 3
    assert summary["counters"]["repro_h_seconds:sum"]["rate"] == pytest.approx(1.5)
    # gauges report their latest value only
    assert summary["gauges"]["repro_depth"] == 7


def test_history_ring_is_bounded_and_windows_shrink():
    history = SnapshotHistory(capacity=3)
    for i in range(6):
        history.record(_snap(counter=i * 10), stamp=float(i))
    assert len(history) == 3
    summary = history.summary()
    # the window is the *retained* ring: samples 3..5, not 0..5
    assert summary["span_seconds"] == pytest.approx(2.0)
    assert summary["counters"]["repro_x_total"]["delta"] == 20


def test_history_min_interval_throttles():
    history = SnapshotHistory(capacity=10, min_interval=0.1)
    assert history.record(_snap(), stamp=0.0)
    assert not history.record(_snap(), stamp=0.05)  # too soon: skipped
    assert history.record(_snap(), stamp=0.2)
    assert len(history) == 2


def test_history_series_born_mid_window_rate_from_zero():
    history = SnapshotHistory(capacity=10)
    history.record({"counters": {}, "gauges": {}, "histograms": {}}, stamp=0.0)
    history.record(_snap(counter=100), stamp=4.0)
    stats = history.summary()["counters"]["repro_x_total"]
    assert stats["delta"] == 100 and stats["rate"] == pytest.approx(25.0)


def test_history_edge_cases():
    with pytest.raises(ValueError):
        SnapshotHistory(capacity=1)
    empty = SnapshotHistory()
    assert empty.summary() == {
        "samples": 0, "span_seconds": 0.0, "counters": {}, "gauges": {},
    }
    empty.record(_snap(), stamp=1.0)
    assert len(empty) == 1
    assert empty.summary()["counters"]["repro_x_total"]["rate"] == 0.0
    empty.clear()
    assert len(empty) == 0


# ------------------------------------------------------- watch op / top

def _serve(config=None, **service_kwargs):
    service_kwargs.setdefault("frames_per_tick", 16)
    service_kwargs.setdefault("chunk_frames", 50)
    service_kwargs.setdefault("seed", 0)
    return ServerThread(
        lambda: AsyncQueryServer(QueryService(_world(), **service_kwargs), config)
    )


def test_watch_op_reports_tenants_history_and_rates():
    telemetry.enable()
    config = ServerConfig(history_interval=0.0)
    with _serve(config) as host:
        with ServingClient(*host.address) as client:
            sid = client.submit(
                "cam0", "bus", max_samples=40, tenant="acme", warm_start=False
            )
            client.wait_terminal(sid)
            body = client.watch()
    assert body["telemetry"] is True
    assert body["server"]["sessions"] == 1
    assert body["server"]["sessions_active"] == 0
    assert body["server"]["ticks"] >= 1
    assert body["tenants"] == {"acme": {"exhausted": 1}}
    assert body["shards"] == {}  # local execution: no worker processes
    history = body["history"]
    assert history["samples"] >= 1
    assert "repro_serving_ticks_total" in history["counters"]


def test_watch_op_works_with_telemetry_off():
    with _serve() as host:
        with ServingClient(*host.address) as client:
            body = client.watch()
    assert body["telemetry"] is False
    assert body["shards"] == {} and body["slow_queries"] == 0
    assert body["history"]["samples"] == 0


def test_sharded_server_watch_and_stats_expose_worker_series():
    """The served acceptance surface: a sharded server's ``stats`` op
    returns a fleet snapshot with worker series for every shard, and
    ``watch`` folds them into per-shard summaries."""
    telemetry.enable()
    config = ServerConfig(history_interval=0.0)
    with _serve(config, execution="sharded", shards=2) as host:
        with ServingClient(*host.address) as client:
            sid = client.submit(
                "cam0", "bus", max_samples=40, warm_start=False
            )
            client.wait_terminal(sid)
            stats = client.stats()
            body = client.watch()
    snapshot = stats["metrics"]
    validate(snapshot)
    for shard in ("0", "1"):
        assert any(
            key.startswith("repro_worker_")
            and parse_series_key(key)[1].get("shard_id") == shard
            for key in snapshot["counters"]
        ), f"stats snapshot missing worker series for shard {shard}"
    assert set(body["shards"]) == {"0", "1"}
    for summary in body["shards"].values():
        assert "hit_rate" not in summary  # no worker cache to rate
        assert (
            summary["repro_worker_detector_calls_total"]
            == summary["repro_worker_detector_frames_total"]
            >= 1
        )


def test_repro_top_renders_against_live_server(capsys):
    with _serve() as host:
        with ServingClient(*host.address) as client:
            client.submit("cam0", "bus", max_samples=20, warm_start=False)
        host_addr, port = host.address
        code = main(
            [
                "top", "--host", host_addr, "--port", str(port),
                "--interval", "0.01", "--iterations", "2",
            ]
        )
    assert code == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "tenant" in out and "default" in out
    # telemetry was off: top says so instead of rendering empty rates
    assert "server telemetry is off" in out


def test_repro_top_rejects_bad_interval_and_dead_server(capsys):
    assert main(
        ["top", "--port", "1", "--interval", "0"]
    ) == 2
    assert "must be positive" in capsys.readouterr().err
    # a connection refusal is a clean coded error, not a traceback
    with _serve() as host:
        address = host.address
    assert main(
        [
            "top", "--host", address[0], "--port", str(address[1]),
            "--interval", "0.01", "--iterations", "1",
        ]
    ) == 2
    assert "cannot connect" in capsys.readouterr().err


# ---------------------------------------------------------- stats --watch

def _valid_metrics_file(path):
    tel = Telemetry()
    tel.counter("repro_serving_ticks_total").inc(3)
    atomic_write_text(
        path, json.dumps(tel.snapshot(), indent=2, sort_keys=True) + "\n"
    )


def test_stats_watch_refreshes_until_interrupted(tmp_path):
    metrics = tmp_path / "metrics.json"
    _valid_metrics_file(metrics)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "stats",
            "--metrics", str(metrics), "--watch", "0.05",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
    )
    try:
        time.sleep(0.6)
        assert proc.poll() is None, "watch loop exited early"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err  # Ctrl-C is a clean exit, never a traceback
    assert "repro_serving_ticks_total" in out
    assert "Ctrl-C exits" in out


def test_stats_watch_tolerates_missing_file_then_renders(tmp_path):
    """Paced by the child's own output, not by sleeps: wait for it to
    report the missing file, only then write it, wait for the render,
    only then interrupt — a slow ``python -m repro`` start-up on a busy
    box cannot reorder the steps."""
    metrics = tmp_path / "late.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "stats",
            "--metrics", str(metrics), "--watch", "0.05", "--validate",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
    )
    seen: list[str] = []
    reader = threading.Thread(
        target=lambda: seen.extend(iter(proc.stdout.readline, "")), daemon=True
    )
    reader.start()

    def wait_for(needle):
        deadline = time.monotonic() + 60.0
        while not any(needle in line for line in seen):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, f"no {needle!r} in {seen[-5:]}"
            time.sleep(0.02)

    try:
        wait_for("waiting")  # polls a missing file: transient, not an error
        _valid_metrics_file(metrics)
        wait_for("repro_serving_ticks_total")
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)
        reader.join(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, proc.stderr.read()


def test_stats_watch_rejects_nonpositive_interval(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    _valid_metrics_file(metrics)
    assert main(["stats", "--metrics", str(metrics), "--watch", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


# ---------------------------------------------------------- atomic writes

def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "dir" / "out.json"
    atomic_write_text(target, '{"n": 1}')
    assert json.loads(target.read_text(encoding="utf-8")) == {"n": 1}
    atomic_write_text(target, '{"n": 2}')
    assert json.loads(target.read_text(encoding="utf-8")) == {"n": 2}
    # no tmp litter on the happy path
    assert [p.name for p in target.parent.iterdir()] == ["out.json"]


_KILL_WRITER = """
import json, sys
from repro.telemetry import atomic_write_text
target = sys.argv[1]
i = 0
while True:  # rewrite as fast as possible until killed
    atomic_write_text(
        target, json.dumps({"n": i, "pad": "x" * 256 * 1024}) + "\\n"
    )
    i += 1
"""


def test_snapshot_survives_sigkill_mid_write(tmp_path):
    """The satellite regression: a poller of a serving state dir must
    never read torn JSON, even when the writer dies mid-dump.  SIGKILL a
    busy rewrite loop repeatedly; the file must parse completely every
    time (tmp + os.replace means the reader sees old-or-new, never
    half)."""
    target = tmp_path / "metrics.json"
    atomic_write_text(target, json.dumps({"n": -1, "pad": ""}) + "\n")
    for round_ in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_WRITER, str(target)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_subprocess_env(),
        )
        try:
            time.sleep(0.2 + 0.07 * round_)  # vary the kill instant
        finally:
            proc.kill()
            proc.wait()
        data = json.loads(target.read_text(encoding="utf-8"))
        assert set(data) == {"n", "pad"}, f"torn write on round {round_}"


# ------------------------------------------------------------- trace CLI

def _events_file(path):
    tracer = Tracer(slow_query_threshold=1e9)
    trace_id = tracer.begin_trace("s1")
    t0 = time.perf_counter()
    plan = tracer.record_span(trace_id, "plan", t0, 0.01, tick=1)
    tracer.record_span(
        trace_id, "worker-detect", t0, 0.005, parent_id=plan, tid=1
    )
    tracer.finish_trace(trace_id, "completed")
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in tracer.events()),
        encoding="utf-8",
    )
    return tracer.events()


def test_trace_cli_validates_and_packages(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    out_path = tmp_path / "trace.json"
    events = _events_file(events_path)
    code = main(
        [
            "trace", "--events", str(events_path),
            "--out", str(out_path), "--validate",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "3 events across 1 traces" in out
    document = json.loads(out_path.read_text(encoding="utf-8"))
    assert document["traceEvents"] == events
    assert document["displayTimeUnit"] == "ms"
    assert validate_trace(document) == []


def test_trace_cli_error_paths(tmp_path, capsys):
    assert main(["trace", "--events", str(tmp_path / "no.jsonl")]) == 2
    assert "no trace events" in capsys.readouterr().err
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"name": "plan"\n', encoding="utf-8")
    assert main(["trace", "--events", str(bad_json)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # structurally broken events fail --validate with the reasons listed
    invalid = tmp_path / "invalid.jsonl"
    events = _events_file(invalid)
    truncated = [e for e in events if e["name"] != "session"]
    invalid.write_text(
        "".join(json.dumps(e) + "\n" for e in truncated), encoding="utf-8"
    )
    assert main(["trace", "--events", str(invalid), "--validate"]) == 1
    assert "no root span" in capsys.readouterr().err


def test_serve_trace_out_writes_validatable_trace(tmp_path, capsys):
    """The file-based surface end to end through the real CLI: ingest ->
    submit -> serve --trace-out/--metrics-out, then `repro trace` and
    `repro stats` validate both artifacts."""
    state = tmp_path / "state"
    events_path = tmp_path / "events.jsonl"
    metrics_path = tmp_path / "metrics.json"
    assert main(
        [
            "ingest", "amsterdam", "--state-dir", str(state),
            "--frames", "300", "--clips", "2",
            "--category", "bicycle", "--instances", "3",
        ]
    ) == 0
    assert main(
        [
            "submit", "amsterdam", "bicycle", "--state-dir", str(state),
            "--max-samples", "24",
        ]
    ) == 0
    assert main(
        [
            "serve", "--state-dir", str(state), "--ticks", "6",
            "--trace-out", str(events_path),
            "--metrics-out", str(metrics_path),
        ]
    ) == 0
    capsys.readouterr()
    assert main(
        [
            "trace", "--events", str(events_path),
            "--out", str(tmp_path / "trace.json"), "--validate",
        ]
    ) == 0
    names = set()
    for line in events_path.read_text(encoding="utf-8").splitlines():
        names.add(json.loads(line)["name"])
    # the session was submitted by a prior process, so its admission span
    # lives there; the serve process contributes the tick-side chain
    assert {"plan", "commit", "session"} <= names
    assert main(["stats", "--metrics", str(metrics_path), "--validate"]) == 0
    capsys.readouterr()
    # the flags never leak an enabled pipeline past the command
    assert not telemetry.get().enabled
