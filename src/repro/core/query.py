"""Distinct object queries: the library's top-level public API.

A *distinct object limit query* (§II-B) — "find 20 traffic lights in my
dataset" — is specified by an object category, a stopping rule (a result
LIMIT or, for evaluation, a recall target over ground-truth instances),
and a discriminator deciding which detections are new objects.
:class:`QueryEngine` wires a repository, detector, discriminator, chunking
and sampling method together and executes queries end to end, reporting
both result counts and modelled wall-clock cost.

Quickstart::

    repo = build_dataset("dashcam", categories=["bicycle"], scale=0.05)
    engine = QueryEngine(repo, category="bicycle", seed=7)
    result = engine.execute(DistinctObjectQuery("bicycle", limit=20))
    print(result.frames_processed, result.detector_seconds)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..baselines.blazeit import BlazeItSampler
from ..baselines.random_plus import RandomPlusSampler
from ..baselines.sequential import SequentialScanSampler
from ..baselines.uniform import UniformRandomSampler
from ..detection.costmodel import ThroughputModel
from ..detection.detector import Detector, OracleDetector, SimulatedDetector
from ..detection.execution import with_latency
from ..distributed.coordinator import ShardCoordinator
from ..distributed.worker import DetectorSpec
from ..tracking.discriminator import (
    Discriminator,
    OracleDiscriminator,
    TrackingDiscriminator,
)
from ..video.repository import VideoRepository
from .chunking import make_chunks
from .policies import ChunkPolicy, ThompsonSampling
from .sampler import ExSample, SamplingHistory

__all__ = ["DistinctObjectQuery", "QueryResult", "QueryEngine", "METHODS"]

METHODS = ("exsample", "random", "random_plus", "sequential", "blazeit")


@dataclass(frozen=True)
class DistinctObjectQuery:
    """A distinct-object search with a stopping rule.

    Exactly one of ``limit`` (the LIMIT clause: stop after this many
    distinct results) and ``recall_target`` (stop once this fraction of
    ground-truth instances has been found — an evaluation-only rule, since
    real deployments do not know the instance count) should be set;
    ``max_samples`` optionally caps the frame budget either way.
    """

    category: str
    limit: int | None = None
    recall_target: float | None = None
    max_samples: int | None = None

    def __post_init__(self) -> None:
        if (self.limit is None) == (self.recall_target is None):
            raise ValueError("set exactly one of limit / recall_target")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive")
        if self.recall_target is not None and not 0.0 < self.recall_target <= 1.0:
            raise ValueError("recall_target must lie in (0, 1]")
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError("max_samples must be positive")


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    query: DistinctObjectQuery
    method: str
    history: SamplingHistory
    frames_processed: int
    results_returned: int
    distinct_instances_found: int
    ground_truth_instances: int
    scan_frames_charged: int  # nonzero only for proxy methods
    detector_seconds: float
    scan_seconds: float
    satisfied: bool

    @property
    def recall(self) -> float:
        """Fraction of ground-truth distinct instances found (§V-A)."""
        if self.ground_truth_instances == 0:
            return 0.0
        return self.distinct_instances_found / self.ground_truth_instances

    @property
    def total_seconds(self) -> float:
        """Modelled end-to-end time: upfront scan (if any) plus detection."""
        return self.scan_seconds + self.detector_seconds


class QueryEngine:
    """Executes distinct-object queries over one repository + category.

    Parameters mirror the paper's experimental setup: chunking defaults to
    the repository's natural layout (``chunk_frames=None`` → one chunk per
    clip), detection defaults to the noisy simulated detector, and the
    discriminator defaults to the IoU tracking discriminator when the
    ground truth carries boxes (``oracle=False``) or the oracle otherwise.
    """

    def __init__(
        self,
        repository: VideoRepository,
        category: str,
        chunk_frames: int | None = None,
        policy: ChunkPolicy | None = None,
        throughput: ThroughputModel | None = None,
        use_random_plus: bool = True,
        batch_size: int = 1,
        detector_latency: float = 0.0,
        shards: int = 1,
        oracle: bool = True,
        detector_factory: Callable[[], Detector] | None = None,
        discriminator_factory: Callable[[], Discriminator] | None = None,
        proxy_noise: float = 0.1,
        proxy_min_gap: int = 0,
        seed: int = 0,
    ):
        if category not in repository.categories():
            raise ValueError(
                f"category {category!r} not present in repository "
                f"{repository.name!r}; available: {repository.categories()}"
            )
        self._repository = repository
        self._category = category
        self._chunk_frames = chunk_frames
        self._policy = policy
        self._throughput = throughput if throughput is not None else ThroughputModel()
        if detector_latency < 0.0:
            raise ValueError("detector_latency must be non-negative")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if shards > 1 and detector_factory is not None:
            raise ValueError(
                "sharded execution builds detectors inside the workers; "
                "detector_factory is local-only"
            )
        self._use_random_plus = use_random_plus
        self._batch_size = batch_size
        self._detector_latency = detector_latency
        self._shards = shards
        self._oracle = oracle
        self._detector_factory = detector_factory
        self._discriminator_factory = discriminator_factory
        self._proxy_noise = proxy_noise
        self._proxy_min_gap = proxy_min_gap
        self._seed = seed

    # --------------------------------------------------------------- factory

    def _make_detector(self) -> Detector:
        if self._shards > 1:
            # shard-parallel execution: detectors live in worker processes,
            # built from a spec mirroring the local defaults below; the
            # coordinator is score-equivalent to them by construction
            spec = DetectorSpec(
                kind="oracle" if self._oracle else "simulated",
                category=self._category,
                seed=self._seed,
            )
            return ShardCoordinator(
                self._repository,
                self._shards,
                detector_spec=spec,
                latency=self._detector_latency,
            )
        if self._detector_factory is not None:
            detector = self._detector_factory()
        elif self._oracle:
            detector = OracleDetector(self._repository, category=self._category)
        else:
            detector = SimulatedDetector(
                self._repository, category=self._category, seed=self._seed
            )
        # the same per-call cost a shard worker charges: score-equivalent
        return with_latency(detector, self._detector_latency)

    def _make_discriminator(self) -> Discriminator:
        if self._discriminator_factory is not None:
            return self._discriminator_factory()
        if self._oracle:
            return OracleDiscriminator()
        return TrackingDiscriminator(self._repository.instances_of(self._category))

    def _make_sampler(self, method: str, rng, detector=None):
        if detector is None:
            detector = self._make_detector()
        discriminator = self._make_discriminator()
        if method == "exsample":
            chunks = make_chunks(
                self._repository,
                rng,
                chunk_frames=self._chunk_frames,
                use_random_plus=self._use_random_plus,
            )
            return ExSample(
                chunks,
                detector,
                discriminator,
                policy=self._policy if self._policy is not None else ThompsonSampling(),
                rng=rng,
                batch_size=self._batch_size,
                repository=self._repository,
            )
        if method == "random":
            return UniformRandomSampler(self._repository, detector, discriminator, rng)
        if method == "random_plus":
            return RandomPlusSampler(self._repository, detector, discriminator, rng)
        if method == "sequential":
            return SequentialScanSampler(self._repository, detector, discriminator)
        if method == "blazeit":
            return BlazeItSampler(
                self._repository,
                detector,
                discriminator,
                category=self._category,
                noise=self._proxy_noise,
                min_gap=self._proxy_min_gap,
                seed=self._seed,
            )
        raise ValueError(f"unknown method {method!r}; options: {METHODS}")

    # ------------------------------------------------------------- execution

    def execute(
        self,
        query: DistinctObjectQuery,
        method: str = "exsample",
        seed: int | None = None,
    ) -> QueryResult:
        """Run ``query`` with ``method`` and return the accounting."""
        if query.category != self._category:
            raise ValueError(
                f"engine is bound to category {self._category!r}, "
                f"query asks for {query.category!r}"
            )
        # the experiment engine keeps the historical numpy streams so
        # published seeds reproduce
        rng = np.random.default_rng(self._seed if seed is None else seed)
        detector = self._make_detector()
        sampler = self._make_sampler(method, rng, detector)
        ground_truth = len(self._repository.instances_of(self._category))

        try:
            if query.limit is not None:
                sampler.run(result_limit=query.limit, max_samples=query.max_samples)
                satisfied = sampler.results_found >= query.limit
            else:
                target = max(1, math.ceil(query.recall_target * ground_truth))
                satisfied = self._run_to_recall(sampler, target, query.max_samples)
        finally:
            closer = getattr(detector, "close", None)
            if closer is not None:  # stop the shard workers promptly
                closer()

        distinct = len(sampler.discriminator.distinct_true_instances())
        scan_frames = getattr(sampler, "scan_frames_charged", 0)
        return QueryResult(
            query=query,
            method=method,
            history=sampler.history,
            frames_processed=sampler.frames_processed,
            results_returned=sampler.results_found,
            distinct_instances_found=distinct,
            ground_truth_instances=ground_truth,
            scan_frames_charged=scan_frames,
            detector_seconds=self._throughput.detection_seconds(
                sampler.frames_processed
            ),
            scan_seconds=self._throughput.scan_seconds(scan_frames),
            satisfied=satisfied,
        )

    @staticmethod
    def _run_to_recall(sampler, target_instances: int, max_samples: int | None) -> bool:
        """Step until the discriminator has found ``target_instances``
        distinct ground-truth instances (evaluation stopping rule).
        Mirrors :meth:`ExSample.steps`: when ``max_samples`` binds
        mid-batch, the final batch shrinks so the budget is exact."""
        while not sampler.exhausted:
            if len(sampler.discriminator.distinct_true_instances()) >= target_instances:
                return True
            if max_samples is not None and sampler.frames_processed >= max_samples:
                return False
            if max_samples is not None and isinstance(sampler, ExSample):
                size = min(sampler.batch_size, max_samples - sampler.frames_processed)
                sampler.commit(sampler.plan(batch_size=size))
            else:  # baselines step one frame at a time
                sampler.step()
        return len(sampler.discriminator.distinct_true_instances()) >= target_instances
