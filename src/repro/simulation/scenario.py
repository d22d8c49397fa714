"""Seed-driven scenario generation for the simulation harness.

A :class:`Scenario` is a complete, declarative description of one
randomized end-to-end run: what footage exists (and when it arrives),
which queries are submitted (and when), which faults strike (and when),
and every execution-layer knob (scheduler, budget, batch sizes, cache
backend, detector noise).  Scenarios are plain frozen dataclasses
— JSON-able, diffable, and **pure functions of one integer seed** — so a
failing run is fully described by the seed that generated it.

:func:`generate_scenario` draws a scenario from a profile's bounds.  The
profiles trade scale for wall-clock: ``quick`` is the CI smoke sweep
(hundreds of scenarios per minute), ``default`` the local / nightly
sweep, ``stress`` the large-workload variant with real (if tiny)
latency spikes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from ..core.rng import DecisionRng

__all__ = [
    "ClipPlan",
    "DatasetPlan",
    "SessionPlan",
    "IngestPlan",
    "FaultPlan",
    "OpPlan",
    "Scenario",
    "PROFILES",
    "generate_scenario",
    "sharded_variant",
]

# categories the generator draws from; real names keep logs readable
_CATEGORIES = ("car", "bus", "person", "bicycle")

# fault kinds the runner understands (see runner._apply_fault);
# worker_kill is sharded-execution only: it hard-kills one shard worker
# process per dataset, proving the coordinator's respawn-from-spec path
FAULT_KINDS = (
    "crash_restart",
    "cache_drop",
    "detector_error",
    "latency_spike",
    "latency_clear",
    "journal_torn_write",
    "worker_kill",
)


@dataclass(frozen=True)
class ClipPlan:
    """One initial clip of a dataset: length plus its ground truth."""

    frames: int
    category: str | None = None
    instances: int = 0
    mean_duration: float = 40.0
    skew_fraction: float | None = None


@dataclass(frozen=True)
class DatasetPlan:
    """One dataset and its footage at scenario start (may be empty: a
    live dataset whose content arrives only through mid-run ingestion)."""

    name: str
    clips: tuple[ClipPlan, ...] = ()

    def categories(self) -> list[str]:
        out = []
        for clip in self.clips:
            if clip.category is not None and clip.instances > 0:
                if clip.category not in out:
                    out.append(clip.category)
        return out


@dataclass(frozen=True)
class SessionPlan:
    """One query submission and the tick at which it arrives."""

    at_tick: int
    dataset: str
    category: str
    limit: int | None = None
    max_samples: int | None = None
    priority: float = 1.0
    batch_size: int = 1
    follow: bool = False
    warm_start: bool = True


@dataclass(frozen=True)
class IngestPlan:
    """Mid-run footage arrival: one journal entry appended at a tick."""

    at_tick: int
    dataset: str
    frames: int
    clips: int = 1
    category: str | None = None
    instances: int = 0
    mean_duration: float = 40.0
    skew_fraction: float | None = None


@dataclass(frozen=True)
class FaultPlan:
    """One injected fault.  ``value`` is kind-specific: calls to fail for
    ``detector_error``, seconds for ``latency_spike``, unused otherwise."""

    at_tick: int
    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class OpPlan:
    """A user lifecycle action against the n-th submitted session."""

    at_tick: int
    op: str  # pause | resume | cancel
    session_index: int


@dataclass(frozen=True)
class Scenario:
    """Everything one simulated run needs, derived from one seed."""

    seed: int
    profile: str
    datasets: tuple[DatasetPlan, ...]
    sessions: tuple[SessionPlan, ...]
    ingests: tuple[IngestPlan, ...] = ()
    faults: tuple[FaultPlan, ...] = ()
    ops: tuple[OpPlan, ...] = ()
    scheduler: str = "round-robin"
    frames_per_tick: int = 16
    ticks: int = 12
    chunk_frames: int | None = None
    detector_latency: float = 0.0
    cache_backend: str = "memory"  # memory | sqlite
    detector: str = "oracle"  # oracle | noisy
    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    execution: str = "local"  # local | sharded
    shards: int = 1  # worker processes under sharded execution

    @property
    def has_faults(self) -> bool:
        return bool(self.faults)

    def fault_kinds(self) -> list[str]:
        return sorted({f.kind for f in self.faults})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Profile:
    """Generator bounds (inclusive ranges unless noted)."""

    datasets: tuple[int, int] = (1, 2)
    clips_per_dataset: tuple[int, int] = (1, 4)
    clip_frames: tuple[int, int] = (60, 240)
    instances_per_clip: tuple[int, int] = (1, 6)
    sessions: tuple[int, int] = (1, 3)
    ticks: tuple[int, int] = (5, 16)
    frames_per_tick: tuple[int, int] = (4, 24)
    batch_size: tuple[int, int] = (1, 4)
    limit: tuple[int, int] = (2, 8)
    max_samples: tuple[int, int] = (20, 120)
    ingests: tuple[int, int] = (0, 3)
    faults: tuple[int, int] = (0, 3)
    ops: tuple[int, int] = (0, 2)
    max_latency: float = 0.0  # latency-spike ceiling, seconds
    # four entries on purpose: a scenario's backend is drawn as an index
    # into this tuple, so its length fixes every later draw of the seed
    backends: tuple[str, ...] = ("memory", "memory", "sqlite", "sqlite")
    noisy_detector_prob: float = 0.25
    sharded_prob: float = 0.0  # chance a scenario runs the sharded backend
    shard_counts: tuple[int, int] = (2, 3)


PROFILES: Mapping[str, Profile] = {
    "quick": Profile(),
    "default": Profile(
        datasets=(1, 3),
        clips_per_dataset=(1, 6),
        clip_frames=(80, 400),
        instances_per_clip=(1, 10),
        sessions=(1, 5),
        ticks=(8, 30),
        frames_per_tick=(4, 40),
        batch_size=(1, 6),
        limit=(2, 12),
        max_samples=(30, 300),
        ingests=(0, 5),
        faults=(0, 4),
        ops=(0, 3),
        max_latency=0.0005,
        noisy_detector_prob=0.35,
    ),
    "stress": Profile(
        datasets=(2, 4),
        clips_per_dataset=(2, 10),
        clip_frames=(150, 900),
        instances_per_clip=(1, 20),
        sessions=(2, 8),
        ticks=(15, 60),
        frames_per_tick=(8, 64),
        batch_size=(1, 8),
        limit=(3, 20),
        max_samples=(50, 800),
        ingests=(1, 8),
        faults=(1, 6),
        ops=(0, 4),
        max_latency=0.002,
        noisy_detector_prob=0.4,
        sharded_prob=0.25,
        shard_counts=(2, 4),
    ),
}

_SKEW_CHOICES = (None, None, 0.5, 0.25, 1.0 / 32.0)


def _int(rng: DecisionRng, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def generate_scenario(seed: int, profile: str = "default") -> Scenario:
    """The scenario for ``seed`` under ``profile`` — a pure function.

    All randomness flows through one generator in a fixed draw order, so
    the same (seed, profile) always yields the same scenario, on any
    machine — the first half of the harness's replayability contract
    (the second half is the runner's own determinism).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; options: {sorted(PROFILES)}")
    p = PROFILES[profile]
    rng = DecisionRng((int(seed), 0x51A1))

    # ------------------------------------------------------------- datasets
    datasets: list[DatasetPlan] = []
    for d in range(_int(rng, p.datasets)):
        name = f"cam{d}"
        # the first dataset always starts with footage; later ones may be
        # live (empty until ingestion delivers)
        empty = d > 0 and rng.random() < 0.3
        clips: list[ClipPlan] = []
        if not empty:
            pool = list(rng.choice(_CATEGORIES, size=2, replace=False))
            for _ in range(_int(rng, p.clips_per_dataset)):
                frames = _int(rng, p.clip_frames)
                # bursty ground truth: some clips are object-free, some
                # carry a burst of instances of one category
                if rng.random() < 0.25:
                    clips.append(ClipPlan(frames=frames))
                    continue
                category = str(pool[int(rng.integers(len(pool)))])
                clips.append(
                    ClipPlan(
                        frames=frames,
                        category=category,
                        instances=_int(rng, p.instances_per_clip),
                        mean_duration=float(
                            rng.uniform(5.0, max(6.0, frames / 3.0))
                        ),
                        skew_fraction=_SKEW_CHOICES[
                            int(rng.integers(len(_SKEW_CHOICES)))
                        ],
                    )
                )
        datasets.append(DatasetPlan(name=name, clips=tuple(clips)))

    ticks = _int(rng, p.ticks)

    # -------------------------------------------------------------- ingests
    ingests: list[IngestPlan] = []
    for _ in range(_int(rng, p.ingests)):
        target = datasets[int(rng.integers(len(datasets)))].name
        if rng.random() < 0.15:
            target = "cam-live"  # a dataset nobody knew at startup
        category = str(_CATEGORIES[int(rng.integers(len(_CATEGORIES)))])
        frames = _int(rng, p.clip_frames)
        ingests.append(
            IngestPlan(
                at_tick=int(rng.integers(1, max(2, ticks))),
                dataset=target,
                frames=frames,
                clips=int(rng.integers(1, 3)),
                category=category,
                instances=_int(rng, p.instances_per_clip),
                mean_duration=float(rng.uniform(5.0, max(6.0, frames / 3.0))),
                skew_fraction=_SKEW_CHOICES[int(rng.integers(len(_SKEW_CHOICES)))],
            )
        )
    ingests.sort(key=lambda i: i.at_tick)

    # ------------------------------------------------------------- sessions
    ingested_categories: dict[str, list[str]] = {}
    for ing in ingests:
        if ing.category is not None and ing.instances > 0:
            ingested_categories.setdefault(ing.dataset, [])
            if ing.category not in ingested_categories[ing.dataset]:
                ingested_categories[ing.dataset].append(ing.category)
    sessions: list[SessionPlan] = []
    for _ in range(_int(rng, p.sessions)):
        ds = datasets[int(rng.integers(len(datasets)))]
        initial = ds.categories()
        future = ingested_categories.get(ds.name, [])
        follow = bool(rng.random() < 0.25)
        if initial and (not follow or rng.random() < 0.7):
            category = initial[int(rng.integers(len(initial)))]
        elif future:
            category = future[int(rng.integers(len(future)))]
            follow = True  # the category may not have been recorded yet
        elif initial:
            category = initial[int(rng.integers(len(initial)))]
        else:
            # nothing recorded and nothing scheduled: a follow query that
            # may idle forever — still a legal, invariant-checked run
            category = str(_CATEGORIES[int(rng.integers(len(_CATEGORIES)))])
            follow = True
        limit = _int(rng, p.limit) if rng.random() < 0.6 else None
        max_samples = _int(rng, p.max_samples) if rng.random() < 0.5 else None
        if limit is None and max_samples is None and follow:
            # keep unbounded follow queries from dominating wall-clock
            max_samples = _int(rng, p.max_samples)
        sessions.append(
            SessionPlan(
                at_tick=(
                    0 if rng.random() < 0.6 else int(rng.integers(0, max(1, ticks // 2)))
                ),
                dataset=ds.name,
                category=category,
                limit=limit,
                max_samples=max_samples,
                priority=float(round(rng.uniform(0.5, 4.0), 2)),
                batch_size=_int(rng, p.batch_size),
                follow=follow,
                warm_start=bool(rng.random() < 0.85),
            )
        )
    sessions.sort(key=lambda s: s.at_tick)

    # --------------------------------------------------------------- faults
    faults: list[FaultPlan] = []
    for _ in range(_int(rng, p.faults)):
        kind = FAULT_KINDS[int(rng.integers(4))]  # spikes/clears added below
        at = int(rng.integers(1, max(2, ticks)))
        if kind == "detector_error":
            faults.append(FaultPlan(at, kind, value=float(rng.integers(1, 4))))
        elif kind == "latency_spike":
            if p.max_latency <= 0.0:
                faults.append(FaultPlan(at, "cache_drop"))
            else:
                faults.append(
                    FaultPlan(at, kind, value=float(rng.uniform(0.0, p.max_latency)))
                )
                faults.append(
                    FaultPlan(min(ticks - 1, at + int(rng.integers(1, 4))),
                              "latency_clear")
                )
        else:
            faults.append(FaultPlan(at, kind))
    if rng.random() < 0.2:
        faults.append(
            FaultPlan(int(rng.integers(1, max(2, ticks))), "journal_torn_write")
        )
    faults.sort(key=lambda f: (f.at_tick, FAULT_KINDS.index(f.kind)))

    # ------------------------------------------------------------------ ops
    ops: list[OpPlan] = []
    for _ in range(_int(rng, p.ops)):
        idx = int(rng.integers(len(sessions)))
        at = int(rng.integers(1, max(2, ticks)))
        kind = ("pause", "cancel")[int(rng.integers(2))]
        ops.append(OpPlan(at, kind, idx))
        if kind == "pause":
            ops.append(
                OpPlan(min(ticks - 1, at + int(rng.integers(1, 5))), "resume", idx)
            )
    ops.sort(key=lambda o: (o.at_tick, o.session_index, o.op))

    # --------------------------------------------------------------- knobs
    scheduler = ("round-robin", "priority", "thompson")[int(rng.integers(3))]
    chunk_frames = None if rng.random() < 0.5 else int(rng.integers(40, 200))
    noisy = rng.random() < p.noisy_detector_prob
    frames_per_tick = _int(rng, p.frames_per_tick)
    # the retired thread-pool size was drawn here; an integers() draw over
    # any small range takes one 64-bit word, so burning one keeps every
    # later draw — and so every seed's scenario — where it was
    rng.integers(1)
    scenario = Scenario(
        seed=int(seed),
        profile=profile,
        datasets=tuple(datasets),
        sessions=tuple(sessions),
        ingests=tuple(ingests),
        faults=tuple(faults),
        ops=tuple(ops),
        scheduler=scheduler,
        frames_per_tick=frames_per_tick,
        ticks=ticks,
        chunk_frames=chunk_frames,
        detector_latency=0.0,
        cache_backend=str(p.backends[int(rng.integers(len(p.backends)))]),
        detector="noisy" if noisy else "oracle",
        miss_rate=float(round(rng.uniform(0.02, 0.2), 3)) if noisy else 0.0,
        false_positive_rate=(
            float(round(rng.uniform(0.0, 0.05), 3)) if noisy else 0.0
        ),
    )
    # the sharded-execution draw comes last, and only for profiles that
    # enable it, so profiles with sharded_prob=0 generate bit-identical
    # scenarios to before the knob existed
    if p.sharded_prob > 0.0 and rng.random() < p.sharded_prob:
        scenario = sharded_variant(scenario, _int(rng, p.shard_counts))
    return scenario


def sharded_variant(scenario: Scenario, shards: int) -> Scenario:
    """The sharded twin of ``scenario``: same world, sessions, and
    schedule, executed on the shard-parallel backend.

    In-process detector faults have no seam inside worker processes
    (:class:`~repro.simulation.faults.FlakyDetector` lives in the
    coordinator's process), so they are mapped to their distributed
    analogue: ``detector_error`` and ``latency_spike`` become
    ``worker_kill``, ``latency_clear`` drops.  One ``worker_kill`` is
    always added at a seed-derived tick, so every sharded scenario
    exercises the coordinator's respawn-from-spec path.
    """
    import dataclasses

    if shards < 1:
        raise ValueError("shards must be at least 1")
    faults: list[FaultPlan] = []
    for fault in scenario.faults:
        if fault.kind in ("detector_error", "latency_spike"):
            faults.append(FaultPlan(fault.at_tick, "worker_kill", value=fault.value))
        elif fault.kind == "latency_clear":
            continue
        else:
            faults.append(fault)
    # the guaranteed kill must land on a tick the runner actually
    # executes (range(ticks)); single-tick scenarios kill at tick 0
    if scenario.ticks > 1:
        kill_tick = 1 + scenario.seed % (scenario.ticks - 1)
    else:
        kill_tick = 0
    faults.append(
        FaultPlan(kill_tick, "worker_kill", value=float(scenario.seed % shards))
    )
    faults.sort(key=lambda f: (f.at_tick, FAULT_KINDS.index(f.kind)))
    return dataclasses.replace(
        scenario,
        execution="sharded",
        shards=int(shards),
        faults=tuple(faults),
    )

