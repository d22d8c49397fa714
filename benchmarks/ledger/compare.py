"""``run.py compare A.json B.json``: judge B (the change) against A (the parent).

One row per (workload, end-to-end metric):

* ``better`` / ``within bound`` / ``worse`` by the metric's direction
  and bound (the share of A's median by which it may worsen);
* ``unresolved`` when a side lacks the metric, or when the files carry
  repeated runs whose spread is wider than the bound and B's runs do
  not all beat A's;
* exact metrics (counts, ratios of counts) and ``results_digest`` must
  be equal: a mismatch reads ``worse``.

Exit code 1 on any ``worse`` or digest mismatch, else 0.  Per-layer
metrics are printed for the record and never judged: added code is
justified by an end-to-end metric, not by a layer's number.
"""

from __future__ import annotations

import json
import statistics
import sys


def _values(row: dict) -> list[float]:
    return list(row.get("values") or [row["value"]])


def _spread(values: list[float]) -> float:
    """Quartile distance over the median (range, below four runs)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def judge(parent: dict | None, change: dict | None) -> tuple[str, str]:
    """(verdict, detail) for one metric row of each file."""
    if parent is None or change is None:
        return "unresolved", "missing on one side"
    a, b = _values(parent), _values(change)
    base, new = statistics.median(a), statistics.median(b)
    if parent.get("exact"):
        if base == new:
            return "within bound", "equal"
        return "worse", f"exact metric changed: {base!r} -> {new!r}"
    higher = parent["better"] == "higher"
    if base == 0:
        return "unresolved", "parent value is 0"
    worsening = (base - new) / abs(base) if higher else (new - base) / abs(base)
    bound = parent.get("bound", 0.0)
    detail = f"{base:.6g} -> {new:.6g} ({-worsening:+.1%})"
    if max(_spread(a), _spread(b)) > bound:
        clear_win = (min(b) > max(a)) if higher else (max(b) < min(a))
        if clear_win:
            return "better", detail + ", every run beats every parent run"
        return "unresolved", detail + ", run-to-run spread exceeds the bound"
    if worsening > bound:
        return "worse", detail
    if worsening < -bound:
        return "better", detail
    return "within bound", detail


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        parent, change = json.load(fa), json.load(fb)
    same_inputs = all(parent.get(k) == change.get(k) for k in ("seed", "seconds", "smoke"))
    if not same_inputs:
        print("note: seed/seconds/smoke differ, digests and exact metrics are not comparable")
    bad = 0
    for name in sorted(set(parent["workloads"]) | set(change["workloads"])):
        a = parent["workloads"].get(name, {})
        b = change["workloads"].get(name, {})
        if same_inputs:
            same = a.get("results_digest") == b.get("results_digest")
            print(f"{name:<16} {'results_digest':<28} "
                  f"{'equal' if same else 'MISMATCH: the decision stream changed'}")
            bad += not same
        rows_a, rows_b = a.get("end_to_end", {}), b.get("end_to_end", {})
        for metric in sorted(set(rows_a) | set(rows_b)):
            row_a, row_b = rows_a.get(metric), rows_b.get(metric)
            if not same_inputs and (row_a or row_b or {}).get("exact"):
                continue
            verdict, detail = judge(row_a, row_b)
            print(f"{name:<16} {metric:<28} {verdict:<13} {detail}")
            bad += verdict == "worse"
        layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
        for metric in sorted(set(layers_a) & set(layers_b)):
            print(f"{name:<16} {metric:<48} info          "
                  f"{layers_a[metric]['value']:.6g} -> {layers_b[metric]['value']:.6g}")
    print(f"\n{bad} worse or mismatching row(s)")
    return 1 if bad else 0
