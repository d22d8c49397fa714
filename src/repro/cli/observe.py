"""The observability commands — ``stats``, ``trace``, ``top`` — and the
``--metrics-out`` / ``--trace-out`` sinks every other command can write."""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from .. import telemetry
from ..experiments.reporting import format_table
from . import flags


# ------------------------------------------------------------------- sinks

def write_metrics_snapshot(path: str | pathlib.Path) -> None:
    """Dump the active pipeline's snapshot as stable JSON (sorted keys,
    trailing newline) — the ``--metrics-out`` sink.  Atomic, so a
    concurrent ``repro stats --watch`` poller never reads a torn file."""
    snapshot = telemetry.get().snapshot()
    telemetry.atomic_write_text(
        path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )


def write_trace_events(path: str | pathlib.Path) -> None:
    """Dump the active tracer's span events as JSONL (one Chrome
    trace-event per line) — the ``--trace-out`` sink.  Traces still open
    (a crashed run, a --ticks cap mid-session) are finished first so
    every trace exports with a root span."""
    tracer = telemetry.get().tracer
    tracer.finish_all()
    lines = [
        json.dumps(event, sort_keys=True) for event in tracer.events()
    ]
    telemetry.atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


# ------------------------------------------------------------------- stats

def _histogram_mean(body: dict) -> str:
    count = body.get("count", 0)
    return f"{body['sum'] / count:.6g}" if count else "-"


def _render_stats_snapshot(snapshot: dict, fmt: str) -> None:
    """Render one parsed snapshot in the requested format."""
    if fmt == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return
    if fmt == "prometheus":
        print(telemetry.render_prometheus(snapshot), end="")
        return
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    slow_ticks = snapshot.get("slow_ticks", [])
    slow_queries = snapshot.get("slow_queries", [])
    if counters:
        print(
            format_table(
                ["counter", "value"],
                [[key, counters[key]] for key in sorted(counters)],
            )
        )
    if gauges:
        print(
            format_table(
                ["gauge", "value"],
                [[key, gauges[key]] for key in sorted(gauges)],
            )
        )
    if histograms:
        print(
            format_table(
                ["histogram", "count", "sum", "mean"],
                [
                    [
                        key,
                        histograms[key].get("count", 0),
                        f"{histograms[key].get('sum', 0.0):.6g}",
                        _histogram_mean(histograms[key]),
                    ]
                    for key in sorted(histograms)
                ],
            )
        )
    if slow_ticks:
        print(f"slow ticks retained: {len(slow_ticks)}")
        for tick in slow_ticks:
            stages = " ".join(
                f"{child['name']}={child['duration_seconds']:.4f}s"
                for child in tick.get("children", [])
            )
            print(f"  tick {tick['duration_seconds']:.4f}s  {stages}".rstrip())
    if slow_queries:
        print(f"slow queries retained: {len(slow_queries)}")
        for query in slow_queries:
            print(
                f"  {query['session']}  trace={query['trace_id']}  "
                f"{query['duration_seconds']:.4f}s"
            )
    if not (counters or gauges or histograms or slow_ticks or slow_queries):
        print("(snapshot holds no series — was telemetry enabled?)")


def _clear_screen() -> None:
    if sys.stdout.isatty():
        sys.stdout.write("\x1b[2J\x1b[H")


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render a ``--metrics-out`` snapshot: table, JSON, or Prometheus.
    With ``--watch SECONDS``, re-read and re-render the file on that
    cadence until interrupted — a poor man's dashboard over any snapshot
    another process keeps rewriting (atomically, so reads never tear)."""
    from ..telemetry.schema import validation_errors

    path = pathlib.Path(args.metrics)

    def load() -> tuple[dict | None, str | None]:
        if not path.exists():
            return None, f"no metrics snapshot at {path}"
        try:
            return json.loads(path.read_text(encoding="utf-8")), None
        except ValueError as exc:
            return None, f"{path} is not valid JSON: {exc}"

    if args.watch is None:
        snapshot, problem = load()
        if problem is not None:
            return flags.fail(f"{problem}")
        if args.validate:
            errors = validation_errors(snapshot)
            if errors:
                print(f"error: {path} fails schema validation:", file=sys.stderr)
                for line in errors:
                    print(f"  {line}", file=sys.stderr)
                return 1
        try:
            _render_stats_snapshot(snapshot, args.format)
        except BrokenPipeError:
            # the reader (`head`, a pager) went away mid-render: not an
            # error.  Point stdout at devnull so the interpreter's exit
            # flush does not raise the same thing again.
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 0
    if args.watch <= 0:
        return flags.fail("--watch interval must be positive")
    # refresh loop: a missing/torn file is a transient, not an error —
    # keep polling; Ctrl-C and a closed pipe both end the watch cleanly
    try:
        while True:
            snapshot, problem = load()
            _clear_screen()
            if problem is not None:
                print(f"(waiting: {problem})")
            else:
                if args.validate:
                    for line in validation_errors(snapshot):
                        print(f"schema: {line}")
                _render_stats_snapshot(snapshot, args.format)
            print(f"-- every {args.watch:g}s; Ctrl-C exits")
            sys.stdout.flush()
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0
    except (BrokenPipeError, OSError):
        return 0


# ------------------------------------------------------------------- trace

def _cmd_trace(args: argparse.Namespace) -> int:
    """Package ``--trace-out`` event JSONL into a Chrome trace-event
    document (load it at https://ui.perfetto.dev or chrome://tracing),
    optionally running the bundled validator first."""
    from ..telemetry.trace import trace_document, validate_trace

    path = pathlib.Path(args.events)
    if not path.exists():
        return flags.fail(f"no trace events at {path}")
    events = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError as exc:
            return flags.fail(f"{path}:{lineno} is not valid JSON: {exc}")
    if args.validate:
        errors = validate_trace(events)
        if errors:
            print(f"error: {path} fails trace validation:", file=sys.stderr)
            for line in errors:
                print(f"  {line}", file=sys.stderr)
            return 1
    if args.out is not None:
        document = trace_document(events)
        telemetry.atomic_write_text(
            args.out, json.dumps(document, sort_keys=True) + "\n"
        )
    traces = {
        event.get("args", {}).get("trace_id")
        for event in events
        if isinstance(event.get("args"), dict)
    }
    names = sorted({str(event.get("name", "?")) for event in events})
    print(
        f"{len(events)} events across {len(traces)} traces"
        + (f"; spans: {', '.join(names)}" if names else "")
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------------- top

_TOP_STATES = ("active", "paused", "completed", "exhausted", "cancelled")


def _render_top(body: dict, host: str, port: int) -> None:
    server = body.get("server", {})
    line = (
        f"repro top — {host}:{port}"
        f"  ticks={server.get('ticks', 0)}"
        f"  sessions={server.get('sessions_active', 0)}/{server.get('sessions', 0)}"
        f"  queue={server.get('queue_depth', 0)}"
        f"  rejected={server.get('rejected', 0)}"
    )
    if server.get("draining"):
        line += "  DRAINING"
    print(line)
    if not body.get("telemetry", False):
        print(
            "(server telemetry is off — start it with --metrics-out to "
            "get rates and per-shard detail)"
        )
    tenants = body.get("tenants", {})
    if tenants:
        rows = [
            [tenant, sum(states.values())]
            + [states.get(state, 0) for state in _TOP_STATES]
            for tenant, states in sorted(tenants.items())
        ]
        print(format_table(["tenant", "sessions", *_TOP_STATES], rows))
    shards = body.get("shards", {})
    if shards:
        rows = [
            [
                shard,
                int(stats.get("repro_worker_detector_frames_total", 0)),
                int(stats.get("repro_worker_detector_calls_total", 0)),
            ]
            for shard, stats in sorted(
                shards.items(), key=lambda kv: (len(kv[0]), kv[0])
            )
        ]
        print(format_table(["shard", "frames", "detector calls"], rows))
    history = body.get("history", {})
    moving = sorted(
        (
            (key, stats)
            for key, stats in history.get("counters", {}).items()
            if stats.get("rate", 0.0) > 0
        ),
        key=lambda kv: -kv[1]["rate"],
    )[:8]
    if moving:
        print(format_table(
            ["series (windowed)", "value", "delta", "per second"],
            [
                [key, stats["value"], stats["delta"], f"{stats['rate']:.2f}"]
                for key, stats in moving
            ],
        ))
    print(f"slow queries retained: {body.get('slow_queries', 0)}")


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running server's ``watch`` op."""
    from ..serving.client import ServerError, ServingClient

    if args.interval <= 0:
        return flags.fail("--interval must be positive")
    try:
        client = ServingClient(args.host, args.port, timeout=10.0)
    except OSError as exc:
        return flags.fail(f"cannot connect to {args.host}:{args.port}: {exc}")
    rendered = 0
    try:
        while True:
            body = client.watch()
            _clear_screen()
            _render_top(body, args.host, args.port)
            sys.stdout.flush()
            rendered += 1
            if args.iterations is not None and rendered >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        return 0
    except ConnectionError:
        # the server drained under us — that is how a watch session ends
        print("(server closed the connection)")
        return 0
    except ServerError as exc:
        return flags.fail(exc)
    finally:
        client.close()



def register(sub) -> None:
    stats = sub.add_parser(
        "stats", help="render a --metrics-out snapshot (table, JSON, Prometheus)"
    )
    stats.set_defaults(func=_cmd_stats)
    flags.add(stats, "metrics", "format", "validate", "watch")

    trace = sub.add_parser(
        "trace",
        help="validate --trace-out span events and package them into a "
             "Chrome trace-event file (Perfetto-loadable)",
    )
    trace.set_defaults(func=_cmd_trace)
    flags.add(trace, "events", "out")
    flags.add(
        trace, "validate",
        help="run the bundled trace validator first (exit 1 on violations)",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running `repro server` "
             "(per-tenant sessions, per-shard workers, windowed rates)",
    )
    top.set_defaults(func=_cmd_top)
    flags.add(top, "host")
    flags.add(top, "port", required=True)
    flags.add(top, "interval", "iterations")
