"""One numpy backend: no runtime switch on the decision path.

numpy and scipy are hard dependencies, so the decision path has one
execution mode and each accessor one body.  A second mode grows back one
guard at a time ("fall back to lists when ..."), and with it a flag to
reach the branch from a test.  The Thompson draw has one executor too:
numpy's ``standard_gamma``, whose bits the packaging pins by bounding
numpy's major version.  This test reads the shapes: the switch module is
gone, no source line names the switch, guards on numpy's absence or
names the deleted hand-built gamma executors, and the packaging
declares what the code imports.
"""

import importlib
import pathlib
import re

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_backend_switch_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.backend")


def test_no_source_line_names_the_switch():
    gone = re.compile(
        r"use_numpy|HAVE_NUMPY|require_numpy|set_force_fallback|REPRO_FORCE_FALLBACK"
        r"|\bnp(_mod)? is (not )?None|core import backend"
        # the hand-built two-executor gamma kernel
        r"|_ln_vec|_exp_vec|_Substream|_unit_vec|_Streams|_polar_normals"
        r"|_accept_round|_rejection_rounds|_gamma_matrix_py|_gamma_matrices_np"
        r"|_SCALAR_ROUND_MAX"
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if gone.search(line)
    ]
    assert not hits, hits


def test_numpy_and_scipy_are_hard_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block is not None, "pyproject.toml declares no dependencies"
    requirements = dict(
        re.match(r"([A-Za-z0-9_.-]+)(.*)", req).groups()
        for req in re.findall(r'"([^"]+)"', block.group(1))
    )
    assert {"numpy", "scipy"} <= set(requirements)
    # the golden Thompson draw holds for one numpy major version
    assert requirements["numpy"] == ">=2,<3"
