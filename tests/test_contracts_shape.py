"""One parity harness: the shared contract scaffolding lives in
``tests/contracts.py`` and nowhere else.

The parity suites once each wrote their own instance builder, decision
fingerprint and failing or batch-recording detector; this gate keeps a
new suite from growing another copy instead of importing the harness.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent

HARNESS_NAMES = {
    "_fingerprint",
    "_streams",
    "_histories",
    "serve_fixed_workload",
    "_instance",
    "FlakyDetector",
    "_FailsOnce",
    "RecordingDetector",
}


def test_only_the_harness_defines_the_contract_scaffolding():
    hits = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "contracts.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in HARNESS_NAMES
    ]
    assert not hits, hits
