"""Causal query tracing: deterministic trace contexts, Chrome export.

A trace follows one submitted query (one ``QuerySession``) from admission
through every tick's plan/commit and across the coordinator wire into
shard workers.  Two constraints shape the design, both inherited from
the serving layer's determinism contract:

* **ids are derived, never drawn** — ``trace_id`` is a pure function of
  the session id and every ``span_id`` a pure function of the trace id
  plus a per-trace step counter (:func:`derive_trace_id`,
  :func:`derive_span_id`, both ``blake2b``).  No wall clock, no RNG, no
  pid ever enters an id, so a replayed run names every span identically
  and tracing can never perturb (or be perturbed by) the decision
  stream.  Wall-clock time appears only in measured ``ts``/``dur``
  *values*, never in structure.
* **off means free** — the tracer hangs off the telemetry pipeline and
  defaults to :data:`NULL_TRACER` even when metrics are enabled
  (``telemetry.enable(trace=True)`` opts in), so the tick loop's
  per-session timing work is guarded by one ``tracer.enabled`` check
  and the 3% overhead gate keeps meaning what it measured.

Completed spans buffer as Chrome trace-event ``"X"`` (complete) events —
the JSON dialect ``chrome://tracing`` and Perfetto load directly — in a
bounded ring.  ``repro serve --trace-out FILE`` dumps them as JSONL and
``repro trace`` wraps/validates them into a ``{"traceEvents": [...]}``
document (see :func:`validate_trace`, the shipped checker CI runs).

Traces whose admission-to-terminal extent meets ``slow_query_threshold``
are retained as full span *trees* in a bounded slow-query ring.

A tick is one more trace (:func:`tick_tree`): same span record, same
tree builder, same :class:`SlowRing` type, ids derived from the tick
number.  Tick traces feed only the slow-tick ring — never the event ring
or the export — and exist whether or not query tracing is on.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque

__all__ = [
    "derive_trace_id",
    "derive_span_id",
    "SlowRing",
    "tick_tree",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "validate_trace",
    "trace_document",
]

_ID_BYTES = 8  # 16 hex chars; plenty against collision at repro scale


def derive_trace_id(session_id: str) -> str:
    """The trace id for a session: ``blake2b(session_id)`` — replayable."""
    return hashlib.blake2b(
        session_id.encode("utf-8"), digest_size=_ID_BYTES
    ).hexdigest()


def derive_span_id(trace_id: str, seq: int) -> str:
    """The ``seq``-th span id of a trace — a counter, never a clock."""
    return hashlib.blake2b(
        f"{trace_id}:{seq}".encode("utf-8"), digest_size=_ID_BYTES
    ).hexdigest()


def _span(name, span_id, parent_id, start, duration, tid=0, args=None) -> dict:
    """The one span record: every span of every trace is this dict."""
    args = args or {}
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "start": float(start),
        "duration": float(duration),
        "tid": int(tid),
        "args": {k: args[k] for k in sorted(args)},
    }


class SlowRing:
    """The retention behind ``slow_ticks`` and ``slow_queries``: entries
    lasting at least ``threshold`` seconds, the newest ``capacity`` of
    them — sized in entries, so it can never grow without bound."""

    def __init__(self, threshold: float, capacity: int, what: str):
        if threshold < 0.0:
            raise ValueError(f"{what}_threshold must be non-negative")
        if capacity < 1:
            raise ValueError(f"{what}_capacity must be at least 1")
        self.threshold = threshold
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def offer(self, duration: float, build) -> None:
        """Retain ``build()`` — built only when ``duration`` qualifies."""
        if duration >= self.threshold:
            entry = build()
            with self._lock:
                self._entries.append(entry)

    def entries(self) -> list[dict]:
        """The retained entries, oldest first."""
        with self._lock:
            return list(self._entries)


# one retained-span cap per trace: a pathological million-tick session
# must not grow the slow-query tree without bound.  Events have their own
# ring; this caps only the per-trace tree material.
_MAX_SPANS_PER_TRACE = 512


class Tracer:
    """Per-query span recording behind the telemetry pipeline.

    All state mutations happen under one lock; the tick loop is
    single-threaded but admission (asyncio) and tests may interleave.
    ``ts`` values are microseconds relative to the tracer's construction
    instant (``perf_counter``), which keeps exported timelines starting
    near zero — measured values, deterministic structure.
    """

    ROOT_SPAN = "session"
    enabled = True

    def __init__(
        self,
        capacity: int = 8192,
        slow_query_threshold: float = 0.25,
        slow_query_capacity: int = 32,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._origin = time.perf_counter()
        self._events: deque[dict] = deque(maxlen=capacity)
        self._slow_queries = SlowRing(slow_query_threshold, slow_query_capacity, "slow_query")
        self._traces: dict[str, dict] = {}
        self._lock = threading.Lock()
        # the in-flight detect batch's participating traces, set by the
        # tick loop around each coalesced detect call so the coordinator
        # (which only sees frames) can parent its shard-dispatch spans.
        # The tick loop is single-threaded, so a plain attribute suffices.
        self._dispatch: tuple[tuple[str, str], ...] = ()

    # ------------------------------------------------------- trace lifecycle

    def begin_trace(self, session_id: str) -> str:
        """Register (idempotently) the trace for a session; returns its id.

        Seq 0 is reserved for the synthesized root ``session`` span, so
        the first recorded child is always seq 1 — stable numbering.
        """
        trace_id = derive_trace_id(session_id)
        with self._lock:
            if trace_id not in self._traces:
                self._traces[trace_id] = {
                    "session": session_id,
                    "root": derive_span_id(trace_id, 0),
                    "seq": 1,
                    "spans": [],
                    "dropped": 0,
                }
        return trace_id

    def root_span_id(self, trace_id: str) -> str:
        """The (reserved, seq-0) root span id of a trace."""
        return derive_span_id(trace_id, 0)

    def record_span(
        self,
        trace_id: str,
        name: str,
        start: float,
        duration: float,
        parent_id: str | None = None,
        tid: int = 0,
        **args,
    ) -> str:
        """File one completed span; returns its derived span id.

        ``parent_id=None`` parents under the trace's root ``session``
        span.  ``tid`` picks the display lane (0 = coordinator process,
        ``shard_id + 1`` = that shard's worker) — presentation only,
        never identity.
        """
        with self._lock:
            state = self._traces.get(trace_id)
            if state is None:
                # an unregistered trace (e.g. warm-up detect): drop rather
                # than invent structure a replay could not reproduce
                return ""
            seq = state["seq"]
            state["seq"] = seq + 1
            span_id = derive_span_id(trace_id, seq)
            parent = parent_id if parent_id is not None else state["root"]
            span = _span(name, span_id, parent, start, duration, tid, args)
            if len(state["spans"]) < _MAX_SPANS_PER_TRACE:
                state["spans"].append(span)
            else:
                state["dropped"] += 1
            self._events.append(self._event(trace_id, span))
        return span_id

    def finish_trace(self, trace_id: str, state_name: str = "") -> None:
        """Close a trace: synthesize its root span event and, when the
        admission-to-last-span extent meets the threshold, retain the
        full span tree in the slow-query ring."""
        with self._lock:
            state = self._traces.pop(trace_id, None)
            if state is None or not state["spans"]:
                return
            first = min(span["start"] for span in state["spans"])
            last = max(span["start"] + span["duration"] for span in state["spans"])
            root_args = {"session": state["session"]}
            if state_name:
                root_args["state"] = state_name
            if state["dropped"]:
                root_args["dropped_spans"] = state["dropped"]
            root = _span(
                self.ROOT_SPAN, state["root"], "", first,
                max(0.0, last - first), args=root_args,
            )
            self._events.append(self._event(trace_id, root))
            self._slow_queries.offer(
                root["duration"],
                lambda: {
                    "session": state["session"],
                    "trace_id": trace_id,
                    "duration_seconds": root["duration"],
                    "spans": _span_tree(root, state["spans"]),
                },
            )

    # -------------------------------------------------- dispatch propagation

    def begin_dispatch(self, contexts) -> None:
        """Declare the traces participating in the next coalesced detect
        call: ``[(trace_id, parent_span_id), ...]``."""
        self._dispatch = tuple(contexts)

    def end_dispatch(self) -> None:
        self._dispatch = ()

    def dispatch_contexts(self) -> tuple[tuple[str, str], ...]:
        """What the coordinator reads to parent shard-dispatch spans."""
        return self._dispatch

    # ----------------------------------------------------------- output

    def _event(self, trace_id: str, span: dict) -> dict:
        args = dict(span["args"])
        args["trace_id"] = trace_id
        args["span_id"] = span["span_id"]
        args["parent_id"] = span["parent_id"]
        return {
            "name": span["name"],
            "cat": "repro",
            "ph": "X",
            "ts": round((span["start"] - self._origin) * 1e6, 3),
            "dur": round(span["duration"] * 1e6, 3),
            "pid": 1,
            "tid": span["tid"],
            "args": args,
        }

    def events(self) -> list[dict]:
        """The buffered Chrome trace events, oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def slow_queries(self) -> list[dict]:
        """Retained slow-query span trees, oldest first."""
        return self._slow_queries.entries()

    def finish_all(self, states=None) -> None:
        """Close every open trace (end of a serving run): sessions that
        never reached terminal still get a root span in the export, with
        the state ``states`` (session id -> state name) gives them."""
        states = states or {}
        with self._lock:
            open_traces = [(tid, trace["session"]) for tid, trace in self._traces.items()]
        for trace_id, session_id in open_traces:
            self.finish_trace(trace_id, states.get(session_id, ""))


def _span_tree(root: dict, spans: list[dict]) -> dict:
    """Nest flat parent-linked spans into one tree under the root."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)

    def build(span: dict) -> dict:
        node = {
            "name": span["name"],
            "span_id": span["span_id"],
            "duration_seconds": span["duration"],
        }
        if span["args"]:
            node["args"] = dict(span["args"])
        kids = children.get(span["span_id"], [])
        if kids:
            node["children"] = [build(kid) for kid in kids]
        return node

    return build(root)


def tick_tree(number: int, duration: float, stages, **args) -> dict:
    """Tick ``number`` as a span tree: root ``tick``, one child per
    ``(name, seconds, args)`` stage (seconds summed over its rounds)."""
    trace_id = derive_trace_id(f"tick:{number}")
    root = _span("tick", derive_span_id(trace_id, 0), "", 0.0, duration, args=args)
    spans = [
        _span(name, derive_span_id(trace_id, seq), root["span_id"], 0.0, seconds, args=stage_args)
        for seq, (name, seconds, stage_args) in enumerate(stages, 1)
    ]
    return _span_tree(root, spans)


class NullTracer:
    """The off switch: every operation a no-op, ``enabled`` false —
    instrumented sites guard their timing work on this one attribute."""

    enabled = False

    def begin_trace(self, session_id):
        return ""

    def root_span_id(self, trace_id):
        return ""

    def record_span(self, trace_id, name, start, duration, parent_id=None,
                    tid=0, **args):
        return ""

    def finish_trace(self, trace_id, state_name=""):
        pass

    def finish_all(self, states=None):
        pass

    def begin_dispatch(self, contexts):
        pass

    def end_dispatch(self):
        pass

    def dispatch_contexts(self):
        return ()

    def events(self):
        return []

    def slow_queries(self):
        return []


NULL_TRACER = NullTracer()


# --------------------------------------------------------------- validation

_HEX_ID = frozenset("0123456789abcdef")
_REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


def _is_id(value) -> bool:
    return (
        isinstance(value, str)
        and len(value) == _ID_BYTES * 2
        and set(value) <= _HEX_ID
    )


def validate_trace(events) -> list[str]:
    """Every violation of the Chrome trace-event contract this exporter
    promises; empty list = valid.  Accepts a raw event list or a
    ``{"traceEvents": [...]}`` document (what ``repro trace`` writes).

    Beyond JSON shape it checks the *causal* contract: ids are derived
    hex, every span's parent exists within its own trace, and each trace
    has exactly one root (the ``session`` span with an empty parent).
    """
    if isinstance(events, dict):
        if "traceEvents" not in events:
            return ["document missing 'traceEvents'"]
        events = events["traceEvents"]
    if not isinstance(events, list):
        return ["trace must be a list of events"]
    errors: list[str] = []
    spans_by_trace: dict[str, set[str]] = {}
    parents: list[tuple[int, str, str]] = []
    roots: dict[str, int] = {}
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [key for key in _REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            errors.append(f"{where}: missing keys {missing}")
            continue
        if event["ph"] != "X":
            errors.append(f"{where}: ph must be 'X', got {event['ph']!r}")
        for key in ("ts", "dur"):
            value = event[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{where}: {key} must be a number")
            elif value < 0:
                errors.append(f"{where}: {key} is negative ({value})")
        args = event["args"]
        if not isinstance(args, dict):
            errors.append(f"{where}: args must be an object")
            continue
        trace_id, span_id = args.get("trace_id"), args.get("span_id")
        parent_id = args.get("parent_id")
        if not _is_id(trace_id):
            errors.append(f"{where}: bad trace_id {trace_id!r}")
            continue
        if not _is_id(span_id):
            errors.append(f"{where}: bad span_id {span_id!r}")
            continue
        if parent_id == "":
            roots[trace_id] = roots.get(trace_id, 0) + 1
            if event["name"] != Tracer.ROOT_SPAN:
                errors.append(
                    f"{where}: root span must be named "
                    f"{Tracer.ROOT_SPAN!r}, got {event['name']!r}"
                )
        elif not _is_id(parent_id):
            errors.append(f"{where}: bad parent_id {parent_id!r}")
        else:
            parents.append((index, trace_id, parent_id))
        seen = spans_by_trace.setdefault(trace_id, set())
        if span_id in seen:
            errors.append(f"{where}: duplicate span_id {span_id}")
        seen.add(span_id)
    for index, trace_id, parent_id in parents:
        if parent_id not in spans_by_trace.get(trace_id, ()):
            errors.append(
                f"event[{index}]: parent {parent_id} not found in "
                f"trace {trace_id}"
            )
    for trace_id, count in roots.items():
        if count != 1:
            errors.append(f"trace {trace_id}: {count} root spans, expected 1")
    for trace_id in spans_by_trace:
        if trace_id not in roots:
            errors.append(f"trace {trace_id}: no root span (trace never finished)")
    return errors


def trace_document(events) -> dict:
    """Wrap raw events into the document Perfetto / chrome://tracing
    load directly."""
    if isinstance(events, dict) and "traceEvents" in events:
        return events
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}
