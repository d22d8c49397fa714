"""The six workloads: generate requests from a seed, drive them, collect.

Every workload is a fixed amount of work for a given ``--seconds`` (the
session counts scale with it), so two runs of one seed make the same
decisions and their counts and result digests compare exactly.  A leg
is one pass over that work, with the server traced or not.
"""

from __future__ import annotations

import random
import re
import resource
import threading
import time
from dataclasses import dataclass, field

import loadgen
import spans
from loadgen import Conn, Counts, ServerProc

clock = time.perf_counter

DATASET = "dashcam"
SCALE = 0.04
DATASET_SEED = 0  # the server's --seed default; --seed drives the queries only
TERMINAL = ("completed", "exhausted", "cancelled")
POLL_S = 0.010  # connection B's pause between status samples
CHURN_POLL_S = 0.001
SETUP_BOOTS = 3

# Connection A submits one session after another and the server admits one
# per tick, so sessions pile up only while a tick serves fewer frames than
# a session needs: --frames-per-tick sits at about a third of max_samples
# (README, "Making the sessions overlap")
_UNIQUE_SERVER = ["--datasets", DATASET, "--scale", str(SCALE),
                  "--frames-per-tick", "8", "--max-queue", "128"]

#: server flags per served workload (``STATE`` is replaced by a temp dir)
SERVER_ARGS = {
    "served_unique": _UNIQUE_SERVER,
    "served_popular": _UNIQUE_SERVER + ["--state-dir", "STATE", "--cache-budget", "256",
                                        "--batch-size", "8"],
    "served_churn": _UNIQUE_SERVER,
    "served_sharded": ["--datasets", DATASET, "--scale", str(SCALE), "--max-queue", "128",
                       "--shards", "2", "--detector-latency", "0.002",
                       "--batch-size", "8", "--frames-per-tick", "8"],
    "served_restart": ["--datasets", DATASET, "--scale", str(SCALE), "--max-queue", "128",
                       "--state-dir", "STATE", "--frames-per-tick", "64"],
}

#: work per second of ``--seconds`` (sized on 2 cores, see README), and
#: the fixed ``--smoke`` sizing
SIZES = {
    "engine_offline": {"queries_per_s": 1.6, "smoke": 2},
    "served_unique": {"sessions_per_s": 13.5, "smoke": 8},
    "served_popular": {"sessions_per_s": 25.0, "smoke": 24},
    "served_churn": {"sessions_per_s": 300.0, "smoke": 8},  # over both connections
    "served_sharded": {"sessions_per_s": 6.4, "smoke": 4},
    "served_restart": {"frames_per_s": 1200.0, "smoke": 96},  # split over the sessions
}
RESTART_SESSIONS = 32
POPULAR_SEEDS = 16
POPULAR_CATEGORIES = ("bicycle", "person", "truck")


@dataclass
class Session:
    """One query as the generator saw it (times on the perf_counter line)."""

    key: int  # submission index: the identity that survives server-assigned ids
    fields: dict
    batch_size: int = 1  # frames per engine iteration (the server's default or the request's)
    sid: str | None = None
    sent: float = 0.0
    acked: float = 0.0
    first: float | None = None
    terminal: float | None = None
    payload: dict | None = None


@dataclass
class Leg:
    workload: str
    sessions: list[Session]
    counts: Counts
    window: tuple[float, float] = (0.0, 0.0)
    detector_calls: int = 0
    server_stats: dict = field(default_factory=dict)
    boots: list[float] = field(default_factory=list)
    drain_s: float | None = None
    restart_ready_s: float | None = None
    peak_rss_mb: float = 0.0
    random_frames: int | None = None  # engine_offline: the baseline's frames
    problems: list[str] = field(default_factory=list)
    #: (time, frames processed so far) as the generator saw the load
    #: advance; the throughput slices are cut from it
    progress: list[tuple[float, int]] = field(default_factory=list)
    spans: list[tuple] | None = None  # traced legs: (role, spans) per process

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


# --------------------------------------------------------------- requests

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ledger/{workload}/{seed}")


def _count(workload: str, key: str, seconds: float, smoke: bool) -> int:
    size = SIZES[workload]
    return size["smoke"] if smoke else max(2, round(size[key] * seconds))


#: submit fields shared by a workload's sessions (seed, tenant and, for
#: served_popular, category are added per session)
QUERY = {
    "served_unique": {"category": "bicycle", "limit": 4, "max_samples": 100},
    # no limit: person and truck reach 4 results within a few frames, so with
    # one the length of the few streams zipf favours would set the run's work
    "served_popular": {"max_samples": 100},
    "served_churn": {"category": "bicycle", "limit": 1, "max_samples": 8, "batch_size": 8},
    "served_sharded": {"category": "bicycle", "limit": 4, "max_samples": 96},
    "served_restart": {"category": "bicycle", "limit": 100000},
}
#: smoke sessions stop here, except where the smoke test checks that
#: sessions overlap: that needs max_samples well above --frames-per-tick
SMOKE_MAX_SAMPLES = 24
SMOKE_FULL_LENGTH = ("served_unique", "served_popular")


def make_requests(workload: str, seed: int, seconds: float, smoke: bool) -> list[dict]:
    """The submit payloads of one workload, a pure function of its arguments."""
    rng = _rng(workload, seed)
    query = dict(QUERY[workload], op="submit", dataset=DATASET, warm_start=False)
    if workload == "served_restart":
        frames = _count(workload, "frames_per_s", seconds, smoke)
        n = 4 if smoke else RESTART_SESSIONS
        query["max_samples"] = max(2, frames // n)
    else:
        n = _count(workload, "sessions_per_s", seconds, smoke)
        if smoke and workload not in SMOKE_FULL_LENGTH:
            query["max_samples"] = min(query["max_samples"], SMOKE_MAX_SAMPLES)
    if workload == "served_popular":
        # zipf(1.1) over 16 seeds x 3 categories: identical (seed, category)
        # pairs are identical decision streams, so repeats are cache reads.
        # Ranks cycle through the categories and each rank gets its exact
        # zipf quota, so every --seed offers the same mix of repeats and of
        # cheap and dear categories; the seed picks the streams and the order
        streams = [(stream_seed, category)
                   for stream_seed in [rng.getrandbits(31) for _ in range(POPULAR_SEEDS)]
                   for category in POPULAR_CATEGORIES]
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(streams))]
        quotas = [n * w / sum(weights) for w in weights]
        counts = [int(q) for q in quotas]
        for rank in sorted(range(len(quotas)), key=lambda r: counts[r] - quotas[r])[:n - sum(counts)]:
            counts[rank] += 1
        picks = [stream for stream, count in zip(streams, counts) for _ in range(count)]
        rng.shuffle(picks)
    else:
        picks = [(rng.getrandbits(31), query["category"]) for _ in range(n)]
    return [dict(query, seed=s, category=c, tenant=f"tenant-{k % 2}")
            for k, (s, c) in enumerate(picks)]


# ------------------------------------------------------------ concurrent

class Tracker:
    """What connection B has seen of each session, by server session id."""

    def __init__(self, expected: int):
        self.expected = expected
        self.submitted_all = threading.Event()
        self.first: dict[str, float] = {}
        self.terminal: dict[str, float] = {}
        self.progress: list[tuple[float, int]] = []

    def observe(self, rows: list[dict], now: float) -> None:
        frames = 0
        for row in rows:
            sid = row["session_id"]
            done = row["state"] in TERMINAL
            if sid not in self.first and (row["results_found"] > 0 or done):
                self.first[sid] = now
            if done and sid not in self.terminal:
                self.terminal[sid] = now
            frames += row["frames_processed"]
        self.progress.append((now, frames))

    def frames_seen(self) -> int:
        return self.progress[-1][1] if self.progress else 0

    def all_terminal(self) -> bool:
        return self.submitted_all.is_set() and len(self.terminal) >= self.expected


def _poll(conn: Conn, tracker: Tracker, until, deadline: float) -> bool:
    """Connection B: sample every session's status until ``until()``."""
    while True:
        response = conn.call("status", op="status")
        now = clock()
        if response is None:
            return False
        tracker.observe(response["sessions"], now)
        if until():
            return True
        if now > deadline:
            return False
        time.sleep(POLL_S)


def _submit_all(conn: Conn, sessions: list[Session], tracker: Tracker,
                deadline: float) -> None:
    """Connection A: submit one after the other, timing each ack; past
    the deadline the rest are not sent and count as timed out."""
    for done, session in enumerate(sessions):
        if clock() > deadline:
            tracker.expected -= len(sessions) - done
            break
        session.sent = clock()
        response = conn.call("submit", **session.fields)
        session.acked = clock()
        if response is None:
            tracker.expected -= 1
        else:
            session.sid = response["session_id"]
    tracker.submitted_all.set()


def _read_stats(conn: Conn, leg: Leg) -> None:
    response = conn.call("stats", op="stats")
    if response is not None:
        leg.server_stats = response["stats"]
        leg.detector_calls = int(response["stats"]["detector_calls"])


def _collect(conn: Conn, leg: Leg, tracker: Tracker) -> None:
    """After the load: per-session results (a session B never saw
    terminal has none: it timed out), then the server's counters."""
    for session in leg.sessions:
        if session.sid is None:
            continue
        session.first = tracker.first.get(session.sid)
        session.terminal = tracker.terminal.get(session.sid)
        if session.terminal is not None:
            response = conn.call("results", op="results", session_id=session.sid)
            if response is not None:
                session.payload = response["results"]
    _read_stats(conn, leg)


def _drain(server: ServerProc, leg: Leg) -> float:
    """SIGTERM the server; a dirty exit becomes a problem of the leg."""
    leg.peak_rss_mb = max(leg.peak_rss_mb, server.peak_rss_mb())
    elapsed = server.drain()
    if not server.clean_exit():
        leg.problems.append(
            f"server exit {server.returncode}: {server.stderr.strip()[-400:]}"
        )
    return elapsed


def _drive_concurrent(server: ServerProc, leg: Leg, deadline: float) -> None:
    tracker = Tracker(len(leg.sessions))
    with Conn(server.port) as conn_a, Conn(server.port) as conn_b:
        # daemon: if the submitter is interrupted the connections close
        # under the poller, which then ends on its own
        poller = threading.Thread(
            target=_poll, args=(conn_b, tracker, tracker.all_terminal, deadline), daemon=True
        )
        start = clock()
        poller.start()
        _submit_all(conn_a, leg.sessions, tracker, deadline)
        poller.join()
        leg.window = (start, clock())
        leg.progress = tracker.progress
        _collect(conn_a, leg, tracker)
        leg.counts.merge(conn_a.counts)
        leg.counts.merge(conn_b.counts)


def _drive_restart(server_args, workdir, spans_dir, leg: Leg, deadline: float):
    """Submit, SIGTERM once half the frames are done, restart the same
    command over the same state dir, run to terminal."""
    tracker = Tracker(len(leg.sessions))
    budget = sum(s.fields["max_samples"] for s in leg.sessions)

    def half_done() -> bool:
        return tracker.submitted_all.is_set() and tracker.frames_seen() >= budget // 2

    with ServerProc(server_args, workdir, spans_dir) as first:
        leg.boots.append(first.boot_s)
        with Conn(first.port) as conn_a, Conn(first.port) as conn_b:
            poller = threading.Thread(
                target=_poll, args=(conn_b, tracker, half_done, deadline), daemon=True
            )
            start = clock()
            poller.start()
            _submit_all(conn_a, leg.sessions, tracker, deadline)
            poller.join()
            _read_stats(conn_a, leg)
            leg.counts.merge(conn_a.counts)
            leg.counts.merge(conn_b.counts)
        leg.drain_s = _drain(first, leg)
        # the first server keeps ticking between the stats reply and the
        # signal; its close-out line has the count it really ended on
        closing = re.search(rb"(\d+) detector calls total", first.stdout)
        before_restart = int(closing.group(1)) if closing else leg.detector_calls
    with ServerProc(server_args, workdir, spans_dir) as second:
        leg.restart_ready_s = second.boot_s
        with Conn(second.port) as conn:
            _poll(conn, tracker, tracker.all_terminal, deadline)
            leg.window = (start, clock())
            leg.progress = tracker.progress
            _collect(conn, leg, tracker)
            leg.counts.merge(conn.counts)
        # each server counts its own detector calls; frames the first one
        # paid for come back to the second as cache hits
        leg.detector_calls += before_restart
        _drain(second, leg)


# ----------------------------------------------------------------- churn

def _churn_loop(conn: Conn, sessions: list[Session], deadline: float) -> None:
    for session in sessions:
        if clock() > deadline:
            return  # the rest stay without a terminal time: counted timed out
        session.sent = clock()
        response = conn.call("submit", **session.fields)
        session.acked = clock()
        if response is None:
            continue
        session.sid = response["session_id"]
        while True:
            response = conn.call("status", op="status", session_id=session.sid)
            now = clock()
            if response is None:
                break
            row = response["session"]
            done = row["state"] in TERMINAL
            if session.first is None and (row["results_found"] > 0 or done):
                session.first = now
            if done:
                session.terminal = now
                break
            if now > deadline:
                break
            time.sleep(CHURN_POLL_S)
        if session.terminal is not None:
            response = conn.call("results", op="results", session_id=session.sid)
            if response is not None:
                session.payload = response["results"]


def _drive_churn(server: ServerProc, leg: Leg, deadline: float) -> None:
    halves = [leg.sessions[0::2], leg.sessions[1::2]]
    with Conn(server.port) as conn_a, Conn(server.port) as conn_b:
        other = threading.Thread(
            target=_churn_loop, args=(conn_b, halves[1], deadline), daemon=True
        )
        start = clock()
        other.start()
        _churn_loop(conn_a, halves[0], deadline)
        other.join()
        leg.window = (start, clock())
        frames = 0
        finished = sorted((s for s in leg.sessions if s.payload is not None),
                          key=lambda s: s.terminal)
        for session in finished:
            frames += session.payload["frames_processed"]
            leg.progress.append((session.terminal, frames))
        _read_stats(conn_a, leg)
        leg.counts.merge(conn_a.counts)
        leg.counts.merge(conn_b.counts)


# ---------------------------------------------------------------- served

def run_served_leg(workload: str, seed: int, seconds: float, smoke: bool,
                   traced: bool, timeout_s: float) -> Leg:
    """One leg of a served workload, servers and temp state cleaned up."""
    flags = SERVER_ARGS[workload]
    default_batch = int(flags[flags.index("--batch-size") + 1]) if "--batch-size" in flags else 1
    sessions = [Session(key, fields, fields.get("batch_size", default_batch))
                for key, fields in enumerate(make_requests(workload, seed, seconds, smoke))]
    leg = Leg(workload, sessions, Counts())
    with loadgen.WorkDir() as workdir:
        spans_dir = None
        if traced:
            spans_dir = workdir / "spans"
            spans_dir.mkdir()

        def args_with_state(tag: str) -> list[str]:
            state = workdir / f"state-{tag}"
            return [str(state) if a == "STATE" else a for a in SERVER_ARGS[workload]]

        deadline = clock() + timeout_s
        try:
            if workload == "served_restart":
                _drive_restart(args_with_state("load"), workdir, spans_dir, leg, deadline)
            else:
                with ServerProc(args_with_state("load"), workdir, spans_dir) as server:
                    leg.boots.append(server.boot_s)
                    if workload == "served_churn":
                        _drive_churn(server, leg, deadline)
                    else:
                        _drive_concurrent(server, leg, deadline)
                    leg.drain_s = _drain(server, leg)
            if not traced:
                # setup_s is the median of cold boots; the load's own boot
                # is one of them (the restart leg's first boot likewise)
                extra = 0 if smoke else SETUP_BOOTS - 1
                for k in range(extra):
                    leg.boots.append(loadgen.boot_only(args_with_state(f"boot{k}"), workdir))
        except (RuntimeError, OSError) as exc:
            leg.problems.append(f"{type(exc).__name__}: {exc}")
        if spans_dir is not None:
            # read now: the directory is gone when this block ends
            leg.spans = spans.load_files(sorted(spans_dir.glob("spans-*.jsonl")))
    return leg


# ---------------------------------------------------------------- engine

ENGINE_DATASET = "bdd1k"
ENGINE_CATEGORY = "motor"


def engine_sizing(smoke: bool) -> tuple[float, int]:
    """(dataset scale, frames per query).  A query runs a fixed frame
    budget, not to a fixed result count: at limit 20 a query's length is
    a property of its seed (CV 23% over 120 seeds), and the ~8 queries a
    10 s run affords would spread queries/s and time-to-k by 12-16%
    between seeds.  400 frames is half the mean frames-to-20 at scale
    1.0 (k ~ 10 per query): short enough that the median over a run's
    16 queries sheds the seconds a noisy neighbour steals.  The seed's
    effect lands in the exact counts instead."""
    return (0.1, 200) if smoke else (1.0, 400)


def _engine_setup(scale: float):
    """Dataset + chunk build: what a session pays before its first plan."""
    from repro.core.chunking import IncrementalChunker
    from repro.core.rng import DecisionRng
    from repro.video.datasets import build_dataset

    start = clock()
    repo = build_dataset(ENGINE_DATASET, categories=None, scale=scale, seed=DATASET_SEED)
    IncrementalChunker(repo, DecisionRng(0), chunk_frames=None,
                       use_random_plus=True).take(up_to_horizon=repo.horizon)
    return repo, clock() - start


def run_engine_leg(seed: int, seconds: float, smoke: bool, traced: bool) -> Leg:
    """ExSample exactly as ``QueryService._build_session`` assembles it,
    each query over a fixed frame budget, then the uniform-random
    baseline on the same seeds run to the same k (outside the timed
    window: it is the yardstick, not the system)."""
    from repro.baselines.uniform import UniformRandomSampler
    from repro.core.chunking import IncrementalChunker
    from repro.core.rng import DecisionRng
    from repro.core.sampler import ExSample
    from repro.detection.cache import CategoryFilterDetector
    from repro.detection.detector import OracleDetector
    from repro.tracking.discriminator import OracleDiscriminator

    scale, budget = engine_sizing(smoke)
    seeds = _rng("engine_offline", seed)
    n = _count("engine_offline", "queries_per_s", seconds, smoke)
    sessions = [Session(k, {"category": ENGINE_CATEGORY, "max_samples": budget,
                            "seed": seeds.getrandbits(31)}) for k in range(n)]
    leg = Leg("engine_offline", sessions, Counts())
    recorder = undo = None
    if traced:
        recorder = spans.Recorder()
        undo = spans.install(recorder)
    try:
        for _ in range(1 if (smoke or traced) else SETUP_BOOTS):
            repo, elapsed = _engine_setup(scale)
            leg.boots.append(elapsed)
        detector = OracleDetector(repo)
        start = clock()
        for session in sessions:
            session.sent = clock()
            rng = DecisionRng(session.fields["seed"])
            chunker = IncrementalChunker(repo, rng, chunk_frames=None, use_random_plus=True)
            engine = ExSample(
                chunker.take(up_to_horizon=repo.horizon),
                CategoryFilterDetector(detector, ENGINE_CATEGORY),
                OracleDiscriminator(), rng=rng, batch_size=1, repository=repo,
            )
            session.acked = clock()
            before = leg.progress[-1][1] if leg.progress else 0
            while engine.frames_processed < budget and not engine.exhausted:
                engine.commit(engine.plan())
                now = clock()
                if session.first is None and engine.results_found > 0:
                    session.first = now
                leg.progress.append((now, before + engine.frames_processed))
            session.terminal = clock()
            session.payload = {
                "category": ENGINE_CATEGORY, "limit": None, "max_samples": budget,
                "state": "exhausted",
                "results_found": engine.results_found,
                "frames_processed": engine.frames_processed,
                "result_frames": [int(f) for f in engine.history.new_result_frames],
            }
            leg.counts.note("query", True)
        leg.window = (start, clock())
        leg.detector_calls = detector.stats.frames_processed
    finally:
        if undo is not None:
            spans.uninstall(undo)
    if recorder is not None:
        leg.spans = [("main", recorder.spans)]
    else:
        leg.random_frames = 0
        for session in sessions:
            baseline = UniformRandomSampler(
                repo, CategoryFilterDetector(OracleDetector(repo), ENGINE_CATEGORY),
                OracleDiscriminator(), rng=DecisionRng(session.fields["seed"]),
            )
            found = session.payload["results_found"]
            if found:  # frames random needs to reach the k ExSample reached
                baseline.run(result_limit=found)
            leg.random_frames += baseline.frames_processed
            leg.counts.note("random_baseline", baseline.results_found >= found)
    leg.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return leg
