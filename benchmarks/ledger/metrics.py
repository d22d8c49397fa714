"""From a finished leg to numbers: output check, digest, end-to-end
metrics (timed leg) and per-layer metrics (traced leg's spans)."""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import statistics

import spec
from workloads import DATASET, DATASET_SEED, ENGINE_DATASET, SCALE, TERMINAL, Leg

@functools.lru_cache(maxsize=None)
def _ground_truth(dataset: str, scale: float):
    """The repository the server (or engine leg) built, rebuilt here:
    ``build_dataset`` is a pure function of (name, scale, seed)."""
    from repro.video.datasets import build_dataset

    return build_dataset(dataset, categories=None, scale=scale, seed=DATASET_SEED)


def check_outputs(leg: Leg, engine_scale: float) -> int:
    """Append a problem per violated output rule; returns sessions failing.

    Rules: the session reached a terminal state and returned a payload;
    every result frame shows a ground-truth instance of the category and
    together they show exactly ``results_found`` distinct ones;
    ``results_found`` is within the limit (plus what the last batch
    added at once) and the state says whether it was reached;
    ``frames_processed <= max_samples``.
    """
    if leg.workload == "engine_offline":
        truth = _ground_truth(ENGINE_DATASET, engine_scale).instances
    else:
        truth = _ground_truth(DATASET, SCALE).instances
    failing = 0
    for session in leg.sessions:
        payload = session.payload
        faults = []
        if payload is None:
            faults.append("no results payload")
        else:
            limit, cap = payload.get("limit"), payload.get("max_samples")
            category = payload["category"]
            seen = [truth.visible_in(f, category) for f in payload["result_frames"]]
            if payload["state"] not in TERMINAL:
                faults.append(f"state {payload['state']}")
            if [f for f, objs in zip(payload["result_frames"], seen) if not objs]:
                faults.append(f"a result frame shows no {category}")
            # the oracle pair is noise-free: the results are exactly the
            # distinct objects visible in the result frames
            distinct = len({obj.instance_id for objs in seen for obj in objs})
            if payload["results_found"] != distinct:
                faults.append(f"results_found {payload['results_found']} but the "
                              f"result frames show {distinct} distinct objects")
            # a session commits whole engine batches and stops after the
            # first one that reaches the limit, so it may overshoot by what
            # that batch's frames added at once
            batch = sorted((len(objs) for objs in seen), reverse=True)[:session.batch_size]
            reached = limit is not None and payload["results_found"] >= limit
            if reached and payload["results_found"] > limit - 1 + sum(batch):
                faults.append(f"results_found {payload['results_found']} > limit {limit}")
            if reached != (payload["state"] == "completed"):
                faults.append(f"state {payload['state']} with {payload['results_found']} "
                              f"results against limit {limit}")
            if cap is not None and payload["frames_processed"] > cap:
                faults.append(f"frames_processed {payload['frames_processed']} > {cap}")
        if faults:
            failing += 1
            leg.problems.append(f"session #{session.key}: " + "; ".join(faults))
    return failing


def results_digest(leg: Leg) -> str:
    """SHA-256 of the canonical results payloads in submission order,
    server-assigned session ids stripped."""
    canonical = [
        None if s.payload is None
        else {k: v for k, v in s.payload.items() if k != "session_id"}
        for s in sorted(leg.sessions, key=lambda s: s.key)
    ]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def operations(leg: Leg, failing_checks: int) -> tuple[int, int]:
    """(attempted, failed): every request sent plus one output check per
    session; failed adds sessions that timed out or failed their check."""
    sent, failed_requests = leg.counts.totals()
    timed_out = sum(1 for s in leg.sessions if s.payload is None and s.terminal is None)
    attempted = sent + len(leg.sessions)
    failed = failed_requests + max(failing_checks, timed_out)
    if leg.problems and failed == 0:
        failed = 1  # a dirty server exit is a failed operation too
    return attempted, min(failed, attempted)


# ------------------------------------------------------------- end to end

def _p90(values: list[float]) -> float | None:
    """p90, only where at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


SLICES = 16


def _typical_frame_rate(leg: Leg) -> float | None:
    """Frames per second of wall-clock: the median over SLICES equal
    slices of the load window of the frames the generator saw added in
    the slice (``leg.progress``) over the slice's length.

    Total frames / wall is the mean of the same slice rates.  The sizing
    box loses a second or two to a neighbour several times a minute, and
    that moves the mean of a 10 s run by up to a tenth; the median drops
    such slices.  The slices are cut by the clock, never by submission
    order, so the rate means the same whether sessions overlap or not
    and whatever an ack waits for.  A leg too short to show four
    advances per slice (``--smoke``) is cut into fewer.
    """
    start, end = leg.window
    if not leg.progress or end <= start:
        return None
    times = [point[0] for point in leg.progress]

    def frames_by(t: float) -> int:
        seen = bisect.bisect_right(times, t)
        return leg.progress[seen - 1][1] if seen else 0

    advances = len({point[1] for point in leg.progress})
    slices = max(1, min(SLICES, advances // 4))
    width = (end - start) / slices
    marks = [frames_by(start + k * width) for k in range(slices)] + [leg.progress[-1][1]]
    return statistics.median((b - a) / width for a, b in zip(marks, marks[1:]))


def end_to_end(leg: Leg, attempted: int, failed: int) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)``; metrics a workload does not define
    are left out, not zeroed."""
    done = [s for s in leg.sessions if s.payload is not None]
    frames = sum(s.payload["frames_processed"] for s in done)
    results = sum(s.payload["results_found"] for s in done)
    acks = [s.acked - s.sent for s in leg.sessions if s.acked and (s.sid or s.payload)]
    firsts = [s.first - s.sent for s in leg.sessions if s.first is not None]
    terminals = [s.terminal - s.sent for s in leg.sessions if s.terminal is not None]
    out: dict[str, tuple[float, int]] = {}
    rate = _typical_frame_rate(leg)
    if rate and frames:
        out["frames_per_s"] = (rate, frames)
        # sessions per frame is a count of the run, so this is the same
        # clock reading in the other unit: terminal sessions over the
        # wall-clock their frames take at the typical rate
        out["sessions_per_s"] = (rate * len(done) / frames, len(done))
    for name, values in (("submit_ack_p50_s", acks), ("first_result_p50_s", firsts),
                         ("terminal_p50_s", terminals)):
        if values:
            out[name] = (statistics.median(values), len(values))
    for name, values in (("first_result_p90_s", firsts), ("terminal_p90_s", terminals)):
        tail = _p90(values)
        if tail is not None:
            out[name] = (tail, len(values))
    if results:
        out["detector_calls_per_result"] = (leg.detector_calls / results, results)
    if leg.random_frames and frames:
        out["savings_vs_random"] = (leg.random_frames / frames, len(done))
    if leg.boots:
        out["setup_s"] = (statistics.median(leg.boots), len(leg.boots))
    if leg.drain_s is not None:
        out["drain_s"] = (leg.drain_s, 1)
    if leg.restart_ready_s is not None:
        out["restart_ready_s"] = (leg.restart_ready_s, 1)
    out["peak_rss_mb"] = (leg.peak_rss_mb, 1)
    out["failed_share"] = (failed / attempted, attempted)
    return out


# -------------------------------------------------------------- per layer

class _Totals:
    """Per span name: calls, total and self seconds, summed attributes."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.attrs: dict[str, dict[str, float]] = {}

    def add(self, name: str, total: float, self_s: float, attrs) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + total
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        if attrs:
            sums = self.attrs.setdefault(name, {})
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    sums[key] = sums.get(key, 0) + value

    def per(self, name: str, attr_of: str | None = None, attr: str = "frames",
            self_time: bool = False) -> float | None:
        """Microseconds of ``name`` per unit of ``attr_of``'s summed
        attribute (or per call of ``name`` when ``attr_of`` is None)."""
        seconds = (self.self_s if self_time else self.total).get(name)
        if seconds is None:
            return None
        if attr_of is None:
            units = self.calls[name]
        else:
            units = self.attrs.get(attr_of, {}).get(attr, 0)
        return seconds * 1e6 / units if units else None


def _self_times(process_spans: list, window: tuple[float, float] | None):
    """Yield ``(span, duration, self)`` with times clipped to ``window``
    (spans wholly outside are dropped).  Ids are per process, so this
    runs on one process's spans at a time."""
    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    durations = {}
    for span in process_spans:
        start, end = max(span[4], lo), min(span[5], hi)
        if end > start or window is None:
            durations[span[0]] = end - start
    children: dict[int, float] = {}
    for span in process_spans:
        if span[0] in durations and span[1] in durations:
            children[span[1]] = children.get(span[1], 0.0) + durations[span[0]]
    for span in process_spans:
        if span[0] in durations:
            duration = durations[span[0]]
            yield span, duration, duration - children.get(span[0], 0.0)


def _layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "startup" if layer in ("cli", "video") else layer


def cost_table(leg: Leg) -> dict[str, float]:
    """Each layer's self time inside the load window as a share of the
    window, plus ``unattributed`` (no span open: event loop, sockets,
    idle waits, interpreter start).  Server processes only — shard
    workers run in parallel with a coordinator span that already covers
    their interval.  The shares sum to 1 by construction."""
    wall = leg.wall_s
    shares = {layer: 0.0 for layer in spec.LAYERS}
    covered = 0.0
    for role, process_spans in leg.spans:
        if role != "main":
            continue
        for span, duration, self_s in _self_times(process_spans, leg.window):
            shares[_layer_of(span[3])] += self_s / wall
            if span[1] == 0:
                covered += duration
    shares["unattributed"] = 1.0 - covered / wall
    return shares


def _shard_calls(mains: list, workers: list):
    """Seconds in the workers' detect handles; seconds of coordinator
    calls beyond the slowest shard's handle span inside each (the wire);
    and the mean over calls of max / mean frames per shard."""
    handles = []  # (start, end, frames) of detect handles, all workers
    for process_spans in workers:
        for span in process_spans:
            if span[3] == "distributed.worker_handle" and (span[6] or {}).get("op") == "detect":
                handles.append((span[4], span[5], span[6]["frames"]))
    handles.sort()
    starts = [h[0] for h in handles]
    shards = max(1, len(workers))
    wire = 0.0
    ratios = []
    for process_spans in mains:
        for span in process_spans:
            if span[3] != "distributed.detect_many":
                continue
            inside = []
            for k in range(bisect.bisect_left(starts, span[4]), len(handles)):
                if handles[k][0] > span[5]:
                    break
                if handles[k][1] <= span[5]:
                    inside.append(handles[k])
            slowest = max((h[1] - h[0] for h in inside), default=0.0)
            wire += (span[5] - span[4]) - slowest
            if inside:
                per_shard = [h[2] for h in inside]
                ratios.append(max(per_shard) / (sum(per_shard) / shards))
    handle_s = sum(h[1] - h[0] for h in handles)
    return handle_s, wire, (statistics.fmean(ratios) if ratios else None)


def _last_counters(mains: list, name: str) -> dict[str, int]:
    """Sum over server processes of a span's attributes at its last
    call: the wrapped objects' counters are cumulative per process."""
    sums: dict[str, int] = {}
    for process_spans in mains:
        last = None
        for span in process_spans:
            if span[3] == name:
                last = span[6]
        for key, value in (last or {}).items():
            sums[key] = sums.get(key, 0) + value
    return sums


def per_layer(leg: Leg, timed_wall_s: float) -> dict[str, float]:
    """The per-layer metrics this workload's traced leg exercised."""
    mains = [spans for role, spans in leg.spans if role == "main"]
    workers = [spans for role, spans in leg.spans if role == "worker"]
    main, worker = _Totals(), _Totals()
    for group, processes in ((main, mains), (worker, workers)):
        for process_spans in processes:
            for span, duration, self_s in _self_times(process_spans, None):
                group.add(span[3], duration, self_s, span[6])
    out: dict[str, float | None] = {}

    out["core.plan.us_per_frame"] = main.per("core.plan", "core.plan")
    out["core.draw.us_per_plan"] = (
        main.total["core.draw"] * 1e6 / main.calls["core.plan"]
        if "core.draw" in main.total and main.calls.get("core.plan") else None
    )
    out["core.commit.us_per_frame"] = main.per("core.commit", "core.commit", self_time=True)
    out["core.plan.count"] = main.calls.get("core.plan")
    done = [s.payload for s in leg.sessions if s.payload is not None]
    frames = sum(p["frames_processed"] for p in done)
    out["core.results_per_frame"] = (
        sum(p["results_found"] for p in done) / frames if frames else None
    )

    ticks = main.calls.get("serving.tick")
    out["serving.tick.count"] = ticks
    out["serving.tick.self_us_per_frame"] = main.per("serving.tick", "serving.tick", self_time=True)
    if ticks:
        out["serving.allocate.us_per_tick"] = main.total.get("serving.allocate", 0.0) * 1e6 / ticks
        out["serving.schedulable_scan.us_per_tick"] = (
            main.total.get("serving.schedulable_scan", 0.0) * 1e6 / ticks
        )
        out["serving.frames_per_tick.mean"] = main.attrs["serving.tick"]["frames"] / ticks
        out["serving.sessions_per_tick.mean"] = main.attrs["serving.tick"]["sessions"] / ticks
    out["serving.submit.us_per_session"] = main.per("serving.submit")
    out["serving.status.us_per_call"] = main.per("serving.status")
    detected = main.attrs.get("detection.caching_detect_many", {}).get("frames")
    if detected and ticks:
        out["serving.coalesce_ratio"] = main.attrs["core.plan"]["frames"] / detected
    out["serving.save_sessions.s"] = main.total.get("serving.save_sessions")
    out["serving.restore.us_per_frame"] = main.per("serving.restore", "serving.restore", "steps")

    out["server.parse_request.us_per_req"] = main.per("server.parse_request")
    out["server.encode.us_per_req"] = main.per("server.encode")
    out["server.requests.count"] = main.calls.get("server.parse_request")
    submit_busy = {}
    for process_spans in mains:
        for span in process_spans:
            if span[3] == "serving.submit" and span[6]:
                submit_busy[span[6]["session"]] = span[5] - span[4]
    waits = [(s.acked - s.sent) - submit_busy[s.sid]
             for s in leg.sessions if s.sid in submit_busy]
    if waits:
        out["server.admit_wait.p50_ms"] = statistics.median(waits) * 1e3
    if leg.server_stats:
        out["server.rejected.count"] = leg.server_stats["rejected"]
        out["server.protocol_errors.count"] = leg.server_stats["protocol_errors"]

    out["detection.cache.get_many.us_per_frame"] = main.per(
        "detection.cache.get_many", "detection.cache.get_many")
    out["detection.cache.put_many.us_per_frame"] = main.per(
        "detection.cache.put_many", "detection.cache.put_many")
    cache = _last_counters(mains, "detection.cache.get_many")
    if cache.get("hits", 0) + cache.get("misses", 0):
        out["detection.cache.hit_rate"] = cache["hits"] / (cache["hits"] + cache["misses"])
    tier = _last_counters(mains, "detection.tier.get_many")
    if tier:
        out["detection.tier.hit_rate"] = tier["hits"] / max(1, tier["hits"] + tier["misses"])
        out["detection.tier.evictions.count"] = tier["evictions"]
    out["detection.cache.flush.s"] = main.total.get("detection.cache.flush")
    out["detection.caching_detect_many.self_us_per_frame"] = main.per(
        "detection.caching_detect_many", "detection.caching_detect_many", self_time=True)
    # the detector runs in the server, or in the shard workers
    detects = main.calls.get("detection.detect", 0) + worker.calls.get("detection.detect", 0)
    if detects:
        out["detection.detect.us_per_call"] = (
            main.total.get("detection.detect", 0.0) + worker.total.get("detection.detect", 0.0)
        ) * 1e6 / detects
        out["detection.detector_calls.count"] = detects

    if "distributed.detect_many" in main.calls:
        calls = main.calls["distributed.detect_many"]
        shard_frames = main.attrs["distributed.detect_many"]["frames"]
        out["distributed.detect_many.us_per_frame"] = main.per(
            "distributed.detect_many", "distributed.detect_many")
        handle_s, wire_s, imbalance = _shard_calls(mains, workers)
        if shard_frames:
            out["distributed.worker_handle.us_per_frame"] = handle_s * 1e6 / shard_frames
            out["distributed.wire.us_per_frame"] = wire_s * 1e6 / shard_frames
        out["distributed.decode_rows.us_per_frame"] = main.per("distributed.decode_rows")
        out["distributed.batch_frames.mean"] = shard_frames / calls
        out["distributed.shard_imbalance"] = imbalance
        out["distributed.respawns.count"] = _last_counters(
            mains, "distributed.detect_many")["restarts"]

    if "cli.import" in main.total:
        out["cli.import_s"] = main.total["cli.import"] / len(mains)
    if "video.build_dataset" in main.total:
        out["video.build_dataset.s"] = main.total["video.build_dataset"] / len(mains)

    for layer, share in cost_table(leg).items():
        name = "ledger.unattributed_share" if layer == "unattributed" else f"ledger.share.{layer}"
        out[name] = share
    out["ledger.trace_overhead_share"] = leg.wall_s / timed_wall_s - 1.0
    return {name: float(value) for name, value in out.items() if value is not None}
