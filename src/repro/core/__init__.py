"""ExSample core: beliefs, policies, chunking, the Algorithm-1 loop, queries."""

from .adaptive import AdaptiveChunk, AdaptiveExSample
from .belief import DEFAULT_ALPHA0, DEFAULT_BETA0, GammaBelief
from .rng import DecisionRng, derive_key
from .chunking import (
    Chunk,
    FrameOrder,
    RandomPlusOrder,
    UniformOrder,
    chunks_from_clips,
    even_count_chunks,
    fixed_size_chunks,
    make_chunks,
)
from .estimator import ChunkStatistics
from .policies import (
    BayesUCB,
    ChunkPolicy,
    EpsilonGreedy,
    GreedyMean,
    ThompsonSampling,
    UniformPolicy,
)
from .multiquery import MultiQueryExSample, QueryState
from .progress import ProgressSnapshot, ProgressTracker, chao1_estimate, discovery_rate
from .query import METHODS, DistinctObjectQuery, QueryEngine, QueryResult
from .sampler import (
    ExSample,
    SamplingHistory,
    StepRecord,
    process_frame,
    process_frame_detailed,
)
from .scoring import (
    ConstantScorer,
    FrameScorer,
    OccupancyScorer,
    ProximityScorer,
    ScoredOrder,
    scored_even_count_chunks,
)

__all__ = [
    "AdaptiveChunk",
    "AdaptiveExSample",
    "DecisionRng",
    "derive_key",
    "DEFAULT_ALPHA0",
    "DEFAULT_BETA0",
    "GammaBelief",
    "Chunk",
    "FrameOrder",
    "RandomPlusOrder",
    "UniformOrder",
    "chunks_from_clips",
    "even_count_chunks",
    "fixed_size_chunks",
    "make_chunks",
    "ChunkStatistics",
    "BayesUCB",
    "ChunkPolicy",
    "EpsilonGreedy",
    "GreedyMean",
    "ThompsonSampling",
    "UniformPolicy",
    "METHODS",
    "DistinctObjectQuery",
    "QueryEngine",
    "QueryResult",
    "ExSample",
    "SamplingHistory",
    "StepRecord",
    "process_frame",
    "process_frame_detailed",
    "ConstantScorer",
    "FrameScorer",
    "OccupancyScorer",
    "ProximityScorer",
    "ScoredOrder",
    "scored_even_count_chunks",
    "MultiQueryExSample",
    "QueryState",
    "ProgressSnapshot",
    "ProgressTracker",
    "chao1_estimate",
    "discovery_rate",
]
