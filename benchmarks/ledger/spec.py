"""Names of the ledger: workloads, end-to-end metrics, per-layer metrics.

Every later performance claim uses these names.  ``BENCHMARK.json`` at
the repo root is where they are written down (name, unit, direction,
driver bound, each workload's ``why``); this module reads it and adds
only what that file has no key for.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

MANIFEST = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None = None  # share of the parent's median it may worsen by
    exact: bool = False  # a count or ratio that repeats exactly for one seed


#: name -> one line on why the workload exists.
WORKLOADS = {row["name"]: row["why"] for row in MANIFEST["workloads"]}

#: Load shape per workload, stated in the output (all closed-loop).
CLIENTS = {
    "engine_offline": "1 in-process caller, queries back to back",
    "served_unique": "connection A submits sequentially, connection B polls status",
    "served_popular": "connection A submits sequentially, connection B polls status",
    "served_churn": "2 connections, each submit -> poll status 1 ms -> results",
    "served_sharded": "connection A submits sequentially, connection B polls status",
    "served_restart": "connection A submits sequentially, connection B polls status",
}

#: Counts and ratios of counts: for one seed they repeat exactly, and
#: ``compare`` fails on any change.
_EXACT = ("detector_calls_per_result", "savings_vs_random", "failed_share")

#: The share of the parent's median by which ``compare`` lets a timing
#: worsen, judged on the median of ``--repeat`` legs of one seed (a spread
#: wider than the bound reads "unresolved").  The ``bound`` keys of
#: BENCHMARK.json are another thing: the driver takes one run per seed and
#: accepts a benchmark only if ten seeds spread by less than the bound, so
#: there every timing has the widest bound the contract allows (README,
#: "Two bounds").
_BOUNDS = {
    "frames_per_s": 0.10,
    "sessions_per_s": 0.10,
    "submit_ack_p50_s": 0.10,
    "first_result_p50_s": 0.10,
    "terminal_p50_s": 0.10,
    "first_result_p90_s": 0.15,
    "terminal_p90_s": 0.15,
    "setup_s": 0.15,
    "drain_s": 0.15,
    "restart_ready_s": 0.15,
    "peak_rss_mb": 0.10,
}


def _metric(row: dict, name: str) -> Metric:
    return Metric(row["unit"], row["better"], _BOUNDS.get(name, 0.0), name in _EXACT)


#: Reported by every workload with tracing off; the driver's gated list.
END_TO_END = {row["name"]: _metric(row, row["name"]) for row in MANIFEST["end_to_end"]}

#: End-to-end metrics only some workloads define: omitted, not zeroed, in
#: the ledger file.  Same untraced measurement.  The driver wants every
#: gated metric from every workload, so BENCHMARK.json carries these in
#: its per-layer list under an ``e2e.`` prefix.  ``failed_share`` is the
#: driver line's ``failed`` / ``attempted``.
END_TO_END_SOME = {
    row["name"][len("e2e."):]: _metric(row, row["name"][len("e2e."):])
    for row in MANIFEST["per_layer"] if row["name"].startswith("e2e.")
}
END_TO_END_SOME["failed_share"] = Metric("ratio", "lower", 0.0, exact=True)

#: From the traced run; layer = first name component = repro sub-package.
#: ``ledger.share.*`` is the cost table: each layer's self time as a share
#: of the load's wall-clock; with ``ledger.unattributed_share`` they sum to 1.
PER_LAYER = {
    row["name"]: Metric(row["unit"], row["better"])
    for row in MANIFEST["per_layer"] if not row["name"].startswith("e2e.")
}

LAYERS = ("core", "serving", "server", "detection", "distributed", "startup")
