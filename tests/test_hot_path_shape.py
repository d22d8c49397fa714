"""The two hot functions must keep reading as the algorithm.

``QueryService.tick`` is plan → coalesce → detect → commit and
``ShardCoordinator.detect_many`` is route → fan out → merge; what they
report goes through an observer (``repro.telemetry.observers``), never
inline.  The seam erodes one ``if`` at a time otherwise, so this test
reads the source: no telemetry branch, no clock read, no metric name,
and a line budget.
"""

import ast
import inspect
import pathlib
import textwrap

import pytest

import repro.distributed
from repro.distributed.coordinator import ShardCoordinator
from repro.serving.service import QueryService

FORBIDDEN = ("enabled", "traced", "tracer", "perf_counter", "repro_")


def _body_without_docstring(function) -> str:
    source = textwrap.dedent(inspect.getsource(function))
    node = ast.parse(source).body[0]
    assert ast.get_docstring(node), "the function lost its docstring"
    first = node.body[1]  # node.body[0] is the docstring expression
    return "\n".join(source.splitlines()[first.lineno - 1:])


@pytest.mark.parametrize(
    "function, max_lines",
    [(QueryService.tick, 140), (ShardCoordinator.detect_many, 100)],
    ids=["tick", "detect_many"],
)
def test_hot_function_has_no_inline_instrumentation(function, max_lines):
    lines = inspect.getsource(function).splitlines()
    assert len(lines) <= max_lines, (
        f"{function.__qualname__} is {len(lines)} lines (budget {max_lines}): "
        f"move instrumentation into its observer, not inline"
    )
    body = _body_without_docstring(function)
    found = [word for word in FORBIDDEN if word in body]
    assert not found, (
        f"{function.__qualname__} mentions {found}: new decision-path "
        f"instrumentation goes in an observer method and its null twin"
    )


def test_shard_wire_has_one_payload_shape():
    """No end of the shard pipe tells payload shapes apart any more."""
    package = pathlib.Path(repro.distributed.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "isinstance(payload, dict)" not in path.read_text(encoding="utf-8"), path
