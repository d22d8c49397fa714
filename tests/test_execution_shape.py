"""One parallel execution substrate, one place latency is charged.

The paper's detector is a black box whose runtime is the cost, so the
one useful thing an execution layer does is keep several detector calls
in flight — and the shard processes do it.  A second substrate grows
back quietly (a pool "just for the local path", a sleep "just in the
worker"), and with it the rule that keeps the two apart, so this test
reads the shapes: which names the source tree carries, what the
constructors accept, where the simulated per-call cost is paid, and who
writes the execution series.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
import repro.detection.execution as execution_module
from repro.core.query import QueryEngine
from repro.serving.service import QueryService
from repro.serving.state import boot
from repro.simulation.scenario import Profile, Scenario

SRC = pathlib.Path(repro.__file__).parent


def _lines(*packages):
    """``(relative path, line number, text)`` over the packages' sources
    (the whole tree when none is named)."""
    roots = [SRC / package for package in packages] or [SRC]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), start=1):
                yield str(path.relative_to(SRC)), number, line


def test_removed_names_stay_out_of_the_source_tree():
    gone = re.compile(
        r"ParallelDetector|wrap_parallel|ThreadPoolExecutor|REPRO_MP_START"
        r"|repro_exec_(busy|workers|queue_depth|inflight)"
    )
    hits = [f"{path}:{number}" for path, number, line in _lines() if gone.search(line)]
    assert not hits, hits


def test_execution_module_exports_are_pinned():
    assert execution_module.__all__ == ["batch_detect", "with_latency"]


@pytest.mark.parametrize(
    "parameters",
    [
        list(inspect.signature(QueryEngine).parameters),
        list(inspect.signature(QueryService).parameters),
        list(inspect.signature(boot).parameters),
        [f.name for f in dataclasses.fields(Scenario)],
        [f.name for f in dataclasses.fields(Profile)],
    ],
    ids=["QueryEngine", "QueryService", "boot", "Scenario", "Profile"],
)
def test_nothing_takes_a_pool_size(parameters):
    assert "workers" not in parameters, parameters
    assert "shards" in parameters or "shard_counts" in parameters  # the kept knob


def test_the_detection_package_imports_no_thread_machinery():
    imports = re.compile(r"^\s*(import|from)\s+(threading|concurrent)\b")
    hits = [
        f"{path}:{number}"
        for path, number, line in _lines("detection")
        if imports.search(line)
    ]
    assert not hits, hits


def test_simulated_latency_is_charged_in_one_place():
    """Local engines and shard workers pay the per-call cost through the
    same wrapper, so the sequential reference every sharded speed-up is
    measured against cannot drift from what a worker charges."""
    sites = [
        path
        for path, _, line in _lines("detection", "distributed")
        if "time.sleep(" in line
    ]
    assert sites == ["detection/execution.py"], sites


def test_each_exec_series_has_one_writer():
    written: dict[str, list[str]] = {}
    for path, number, line in _lines():
        for name in re.findall(r'"(repro_exec_\w+)"', line):
            written.setdefault(name, []).append(f"{path}:{number}")
    assert sorted(written) == [
        "repro_exec_batch_frames",
        "repro_exec_batch_seconds",
        "repro_exec_batches_total",
        "repro_exec_frames_total",
    ]
    for name, sites in written.items():
        assert len(sites) == 1 and sites[0].startswith("telemetry/observers.py:"), (
            name, sites,
        )
