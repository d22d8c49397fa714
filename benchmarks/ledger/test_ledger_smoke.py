"""Smoke test of the ledger harness (toy sizes; no full-size run is collected).

One ``--smoke`` pass over all six workloads, timed and traced, then:
every named workload and metric is present with unit, direction and
bound; names fit the driver's pattern; served sessions really overlap;
the per-layer cost table sums to wall-clock; and ``compare`` of the file
with itself is clean.
"""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent
RUN = [sys.executable, str(LEDGER / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load_spec():
    loader = importlib.util.spec_from_file_location("ledger_spec", LEDGER / "spec.py")
    module = importlib.util.module_from_spec(loader)
    sys.modules["ledger_spec"] = module  # dataclasses resolve annotations through it
    loader.loader.exec_module(module)
    return module


spec = _load_spec()
DRIVER_PER_LAYER = [row["name"] for row in spec.MANIFEST["per_layer"]]


@pytest.fixture(scope="module")
def ledger_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out


@pytest.fixture(scope="module")
def ledger(ledger_file):
    return json.loads(ledger_file.read_text(encoding="utf-8"))


def test_every_workload_reports_every_common_metric(ledger):
    assert list(ledger["workloads"]) == sorted(spec.WORKLOADS)
    for name, record in ledger["workloads"].items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert record["results_digest"] == record["traced_digest"], name
        for metric, declared in spec.END_TO_END.items():
            row = record["end_to_end"][metric]
            assert row["unit"] == declared.unit and row["better"] == declared.better
            assert row["bound"] == declared.bound and row["value"] > 0, (name, metric)
        assert record["end_to_end"]["failed_share"]["value"] == 0


def test_metric_names_are_declared_and_well_formed(ledger):
    declared_e2e = {**spec.END_TO_END, **spec.END_TO_END_SOME}
    for record in ledger["workloads"].values():
        assert set(record["end_to_end"]) <= set(declared_e2e)
        assert set(record["per_layer"]) <= set(spec.PER_LAYER)
    for name in [*spec.WORKLOADS, *declared_e2e, *DRIVER_PER_LAYER]:
        assert NAME.match(name), name


def test_each_workload_exercises_its_layers(ledger):
    layers = {name: set(record["per_layer"]) for name, record in ledger["workloads"].items()}
    assert {"core.plan.us_per_frame", "core.draw.us_per_plan"} <= layers["engine_offline"]
    assert "serving.tick.count" not in layers["engine_offline"]
    for served in ("served_unique", "served_popular", "served_churn",
                   "served_sharded", "served_restart"):
        assert {"serving.tick.self_us_per_frame", "server.admit_wait.p50_ms",
                "detection.cache.hit_rate", "cli.import_s"} <= layers[served], served
    assert "detection.tier.hit_rate" in layers["served_popular"]
    assert "distributed.wire.us_per_frame" in layers["served_sharded"]
    assert "distributed.wire.us_per_frame" not in layers["served_unique"]
    assert {"serving.restore.us_per_frame", "serving.save_sessions.s"} <= layers["served_restart"]
    assert "restart_ready_s" in ledger["workloads"]["served_restart"]["end_to_end"]
    assert "savings_vs_random" in ledger["workloads"]["engine_offline"]["end_to_end"]


def test_served_sessions_overlap(ledger):
    """One submitter, one admission per few ticks: sessions share ticks only
    because a tick serves fewer frames than a session needs.  Without that
    the 'concurrent' workloads run one session at a time and measure
    neither the scheduler nor coalescing."""
    # the two workloads the smoke sizing runs at full session length
    for name in ("served_unique", "served_popular"):
        record = ledger["workloads"][name]
        rows = record["per_layer"]
        assert rows["serving.sessions_per_tick.mean"]["value"] >= 2, name
        assert rows["serving.tick.count"]["value"] > record["sessions"], name
        e2e = record["end_to_end"]
        assert e2e["first_result_p50_s"]["value"] < e2e["terminal_p50_s"]["value"], name
    # repeats are served by the cache; that two sessions plan one frame in
    # one tick is a chance event at this size (README), so only >= 1 holds
    popular = ledger["workloads"]["served_popular"]["per_layer"]
    assert popular["detection.cache.hit_rate"]["value"] > 0.5
    assert popular["serving.coalesce_ratio"]["value"] >= 1


def test_cost_table_sums_to_wall_clock(ledger):
    for name, record in ledger["workloads"].items():
        rows = record["per_layer"]
        shares = [rows[f"ledger.share.{layer}"]["value"] for layer in spec.LAYERS]
        total = sum(shares) + rows["ledger.unattributed_share"]["value"]
        assert total == pytest.approx(1.0, abs=1e-9), name
        assert all(share >= 0 for share in shares), name
        assert "ledger.trace_overhead_share" in rows


def test_compare_with_itself_is_clean(ledger_file):
    done = subprocess.run(
        RUN + ["compare", str(ledger_file), str(ledger_file)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    assert "MISMATCH" not in done.stdout and "unresolved" not in done.stdout
    assert "\n0 worse or mismatching" in done.stdout


def test_driver_line_carries_every_listed_metric():
    for trace, names in ((0, list(spec.END_TO_END)), (1, DRIVER_PER_LAYER)):
        done = subprocess.run(
            RUN + ["--workload", "served_churn", "--smoke", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == names
        assert all(set(row) == {"value", "unit"} for row in line["metrics"].values())
