"""Subprocess tests for `repro server` and the serve/server signal story.

The graceful-drain regression contract (the old behavior was a
KeyboardInterrupt traceback and lost state on SIGTERM):

* ``repro server`` under SIGTERM stops admitting, persists every
  session, and exits 0 with no traceback;
* a restarted ``repro server`` over the same state directory resumes
  the drained sessions bit-exactly (same results as one uninterrupted
  in-process run);
* ``repro serve`` (the batch CLI) under SIGTERM saves state and exits 0
  instead of dying mid-tick.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.serving import ServingClient


def _env():
    env = dict(os.environ)
    package_parent = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p
    )
    return env


def cli(*argv, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_env(), capture_output=True, text=True, timeout=timeout,
    )


class ServerProcess:
    """`repro server` as a subprocess; parses the listening banner."""

    def __init__(self, *argv):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "server", *argv],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline().strip()
        assert banner.startswith("repro server listening on "), banner
        host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))

    def sigterm(self, timeout=60):
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


@pytest.fixture()
def state(tmp_path):
    return str(tmp_path / "state")


def test_server_sigterm_drains_and_exits_zero(state):
    server = ServerProcess("--state-dir", state, "--datasets", "dashcam",
                           "--scale", "0.02", "--frames-per-tick", "8")
    try:
        with ServingClient(*server.address) as client:
            sid = client.submit("dashcam", "bicycle", limit=5,
                                max_samples=200, seed=42, warm_start=False)
            client.wait_first_result(sid)
        code, out, err = server.sigterm()
    finally:
        server.kill()
    assert code == 0, err
    assert "Traceback" not in err
    assert "server drained" in out
    # the session snapshot landed with real progress
    snap = json.loads(
        (pathlib.Path(state) / "sessions" / "s1.json").read_text()
    )
    assert snap["steps_taken"] > 0


def test_server_restart_resumes_bit_exactly(state):
    """SIGTERM mid-flight, restart, finish over the wire: results match
    an uninterrupted in-process run of the same seed byte-for-byte."""
    first = ServerProcess("--state-dir", state, "--datasets", "dashcam",
                          "--scale", "0.02", "--frames-per-tick", "8")
    try:
        with ServingClient(*first.address) as client:
            sid = client.submit("dashcam", "bicycle", limit=5,
                                max_samples=300, seed=7, warm_start=False)
            client.wait_first_result(sid)
        code, _, err = first.sigterm()
        assert code == 0, err
    finally:
        first.kill()

    second = ServerProcess("--state-dir", state, "--frames-per-tick", "8")
    try:
        with ServingClient(*second.address) as client:
            client.wait_terminal(sid)
            served = client.results(sid)
        code, _, err = second.sigterm()
        assert code == 0, err
    finally:
        second.kill()

    from repro.serving import QueryService
    from repro.video.datasets import build_dataset, scaled_chunk_frames

    reference = QueryService(
        {"dashcam": build_dataset("dashcam", categories=None,
                                  scale=0.02, seed=0)},
        chunk_frames={"dashcam": scaled_chunk_frames("dashcam", 0.02)},
        frames_per_tick=8, seed=0,
    )
    ref_sid = reference.submit("dashcam", "bicycle", limit=5,
                               max_samples=300, seed=7, warm_start=False)
    reference.run_until_idle()
    assert json.dumps(served, sort_keys=True) == json.dumps(
        reference.results(ref_sid), sort_keys=True
    )


def test_server_rejects_bad_flags():
    result = cli("server", "--max-queue", "0")
    assert result.returncode == 2
    assert "max_queue" in result.stderr
    result = cli("server", "--frames-per-tick", "0")
    assert result.returncode == 2


def test_serve_sigterm_saves_state_and_exits_zero(state):
    """The serve bugfix: SIGTERM mid-run must behave like Ctrl-C — save
    sessions, print the summary, exit 0 — not a KeyboardInterrupt
    traceback with the run's progress lost."""
    assert cli("submit", "dashcam", "bicycle", "--state-dir", state,
               "--max-samples", "5000", "--scale", "0.05").returncode == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", state,
         "--frames-per-tick", "4", "--detector-latency", "0.002"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # 5000 frames at 2 ms of detector latency is >= 10 s however fast
        # planning gets, so 2.5 s is well inside the run
        time.sleep(2.5)
        assert proc.poll() is None, proc.stderr.read()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    except Exception:
        proc.kill()
        proc.wait()
        raise
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    assert "detector calls total" in out  # the summary still printed
    snap = json.loads(
        (pathlib.Path(state) / "sessions" / "s1.json").read_text()
    )
    assert 0 < snap["steps_taken"] < 5000  # saved mid-run, not at the end
