"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Three constraints shape this module, all downstream of the serving
layer's determinism contract:

* **dependency-free** — the registry must import nothing beyond the
  stdlib, because it is loaded by every layer (core, detection, serving,
  distributed, simulation) and must never become a reason a layer cannot;
* **deterministic output** — histogram bucket bounds are fixed at
  registration (never adapted to observed data) and snapshots serialize
  series in sorted order, so two runs that do the same work produce
  snapshots that differ only in measured durations, never in structure;
* **thread-safe** — the thread-hosted server (``server/thread.py``)
  ticks on one thread while snapshot readers run on another, so every
  mutation happens under the instrument's lock.

Series identity is ``name`` plus an optional label mapping, rendered
Prometheus-style (``repro_shard_frames_total{shard="2"}``) with label
keys sorted, so the same logical series always lands under the same key
no matter which call site created it first.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "null_twin",
    "SECONDS_BUCKETS",
    "FRAMES_BUCKETS",
    "series_key",
    "parse_series_key",
    "escape_label_value",
    "unescape_label_value",
    "merge_histogram_dicts",
    "merge_snapshot_bodies",
]

# fixed default bucket bounds (upper-inclusive; +Inf is implicit).  Two
# scales cover every metric in the catalog: wall-clock durations and
# frame/batch counts.  Fixed bounds are what make snapshots structurally
# deterministic — an adaptive histogram would shape its output by timing.
SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
FRAMES_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


def escape_label_value(value: object) -> str:
    """A label value escaped per the Prometheus exposition format:
    backslash, double-quote, and newline — in that order, so escaping is
    unambiguous and :func:`unescape_label_value` is its exact inverse."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """The inverse of :func:`escape_label_value` (single left-to-right
    pass, so ``\\\\n`` round-trips as a backslash + ``n``, not a newline)."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def series_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """The canonical series identity: ``name`` or ``name{k="v",...}``
    with label keys sorted (so call-site dict ordering never matters)
    and values escaped (so a hostile value can never forge a different
    series or corrupt the exposition output)."""
    if not labels:
        return name
    rendered = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`series_key`: ``name{k="v",...}`` back into
    ``(name, labels)`` with values unescaped.  Raises ``ValueError`` on
    keys this module could not have produced."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed series key: {key!r}")
    name, body = key[:brace], key[brace + 1 : -1]
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.find('="', i)
        if eq < 0:
            raise ValueError(f"malformed series key: {key!r}")
        label = body[i:eq]
        j = eq + 2
        while j < len(body):
            if body[j] == "\\":
                j += 2
                continue
            if body[j] == '"':
                break
            j += 1
        if j >= len(body):
            raise ValueError(f"malformed series key: {key!r}")
        labels[label] = unescape_label_value(body[eq + 2 : j])
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ValueError(f"malformed series key: {key!r}")
            i += 1
    return name, labels


def merge_histogram_dicts(base: dict, other: dict) -> dict:
    """Bucket-merge two histogram bodies sharing the same bounds:
    element-wise count addition plus summed ``sum``/``count``.  Mismatched
    bounds are a catalog bug and raise rather than silently mangle."""
    if list(base["buckets"]) != list(other["buckets"]):
        raise ValueError(
            f"cannot merge histograms with different buckets: "
            f"{base['buckets']} vs {other['buckets']}"
        )
    return {
        "buckets": list(base["buckets"]),
        "counts": [a + b for a, b in zip(base["counts"], other["counts"])],
        "sum": base["sum"] + other["sum"],
        "count": base["count"] + other["count"],
    }


def merge_snapshot_bodies(base: dict, other: dict) -> dict:
    """Fold one registry snapshot body into another (fleet aggregation):
    counter-sum, gauge-last (``other`` wins), histogram-bucket-merge.
    Returns a new body with series re-sorted; inputs are not mutated."""
    counters = dict(base.get("counters", {}))
    for key, value in other.get("counters", {}).items():
        counters[key] = counters.get(key, 0) + value
    gauges = dict(base.get("gauges", {}))
    gauges.update(other.get("gauges", {}))
    histograms = dict(base.get("histograms", {}))
    for key, body in other.get("histograms", {}).items():
        if key in histograms:
            histograms[key] = merge_histogram_dicts(histograms[key], body)
        else:
            histograms[key] = dict(body)
    return {
        "counters": {key: counters[key] for key in sorted(counters)},
        "gauges": {key: gauges[key] for key in sorted(gauges)},
        "histograms": {key: histograms[key] for key in sorted(histograms)},
    }


class Counter:
    """A monotonically increasing count (events, frames, round-trips)."""

    __slots__ = ("key", "_value", "_lock")

    def __init__(self, key: str):
        self.key = key
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, deficit, last grant)."""

    __slots__ = ("key", "_value", "_lock")

    def __init__(self, key: str):
        self.key = key
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: int | float) -> None:
        """Ratchet: keep the largest value ever seen (peak tracking)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> int | float:
        return self._value


class Histogram:
    """A distribution over fixed, registration-time bucket bounds.

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (non-cumulative, one extra overflow bucket at the end), plus running
    ``sum``/``count`` — exactly what the Prometheus text renderer needs
    to emit cumulative ``_bucket`` lines.
    """

    __slots__ = ("key", "bounds", "counts", "_sum", "_count", "_lock")

    def __init__(self, key: str, bounds: Sequence[float]):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.key = key
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self._sum,
            "count": self._count,
        }


def null_twin(*classes):
    """The off switch of ``classes``: one shared, allocation-free object
    with every public method they define, each an empty call — so a
    disabled call site reads (and branches) exactly like an enabled one."""

    def noop(self, *args) -> None:
        pass

    names = [
        name for cls in classes for name, member in vars(cls).items()
        if callable(member) and not name.startswith("_")
    ]
    return type("Null" + classes[0].__name__, (), {"__slots__": (), **dict.fromkeys(names, noop)})()


class MetricsRegistry:
    """Get-or-create instrument store, keyed by series identity.

    ``counter``/``gauge``/``histogram`` are idempotent: the first call
    for a series creates it, later calls return the same instrument —
    so instrumentation sites never hold registry state, only names.
    Registering one series under two different instrument kinds is a
    programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _guard(self, key: str, own: dict, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not own and key in table:
                raise ValueError(
                    f"series {key!r} is already registered as a {other_kind}, "
                    f"cannot re-register as a {kind}"
                )

    def counter(self, name: str, labels: Mapping[str, object] | None = None) -> Counter:
        key = series_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                self._guard(key, self._counters, "counter")
                instrument = self._counters[key] = Counter(key)
        return instrument

    def gauge(self, name: str, labels: Mapping[str, object] | None = None) -> Gauge:
        key = series_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                self._guard(key, self._gauges, "gauge")
                instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(
        self,
        name: str,
        labels: Mapping[str, object] | None = None,
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> Histogram:
        key = series_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                self._guard(key, self._histograms, "histogram")
                instrument = self._histograms[key] = Histogram(key, buckets)
        return instrument

    def snapshot(self) -> dict:
        """All series, sorted by key — the stable JSON body ``--metrics-out``
        dumps (values are whatever was measured; the *structure* is a pure
        function of the work performed)."""
        with self._lock:
            return {
                "counters": {
                    key: self._counters[key].value for key in sorted(self._counters)
                },
                "gauges": {
                    key: self._gauges[key].value for key in sorted(self._gauges)
                },
                "histograms": {
                    key: self._histograms[key].to_dict()
                    for key in sorted(self._histograms)
                },
            }

    def drop(self, name: str, labels: Mapping[str, object] | None = None) -> None:
        """Forget one series (whatever its kind; absent is fine) — how a
        per-entity series ends when its entity does, so a long-lived
        process's snapshot stays bounded.  Handles to it go stale."""
        key = series_key(name, labels)
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                table.pop(key, None)

    def reset(self) -> None:
        """Drop every series (a fresh registry, not zeroed instruments —
        old instrument handles go stale by design)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
