"""Black-box detector substrate, shared detection cache, cost accounting."""

from .cache import (
    CacheBackend,
    CacheStats,
    CachingDetector,
    CategoryFilterDetector,
    DetectionCache,
    InMemoryBackend,
    SqliteBackend,
    TieredBackend,
    TierStats,
)
from .costmodel import ThroughputModel, format_duration, parse_duration
from .detector import (
    Detection,
    Detector,
    DetectorStats,
    OracleDetector,
    SimulatedDetector,
)
from .execution import batch_detect, with_latency

__all__ = [
    "CacheBackend",
    "CacheStats",
    "TieredBackend",
    "TierStats",
    "CachingDetector",
    "CategoryFilterDetector",
    "DetectionCache",
    "InMemoryBackend",
    "SqliteBackend",
    "ThroughputModel",
    "format_duration",
    "parse_duration",
    "Detection",
    "Detector",
    "DetectorStats",
    "OracleDetector",
    "SimulatedDetector",
    "batch_detect",
    "with_latency",
]
