"""Process and connection plumbing for the served workloads.

One generator process, at most two load threads, one connection each
(``nproc`` is 2 and the server needs a core).  Every request is counted
per phase as sent / succeeded / failed; a refusal that outlives its
retries, a socket timeout and a dead server are all failures, never
exceptions that end the run.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = LEDGER_DIR / ".work"  # per-run temp state, inside the checkout

BANNER = b"repro server listening on "
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
RETRIES = 40  # backpressure rejections one request sits out before failing
_RETRYABLE = ("queue-full", "quota-exceeded")

# The generator keeps the first CPU it may run on and every server (with
# its shard workers) gets the rest.  Left to the scheduler, a server and
# the client that keeps waking it often share one CPU while the other
# idles, and whether they do changes from run to run: on the 2-CPU sizing
# box that alone moved served throughput by 25-45% (README, "Steadiness").
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
GENERATOR_CPUS = set(_CPUS[:1])
SERVER_CPUS = set(_CPUS[1:])


def pin_self(as_server: bool) -> None:
    """Keep this process off the servers' CPUs, or move it onto them when
    it is itself what is measured (``engine_offline``).  A no-op on one CPU."""
    if SERVER_CPUS:
        os.sched_setaffinity(0, SERVER_CPUS if as_server else GENERATOR_CPUS)


class WorkDir:
    """A temp directory under ``.work`` removed on exit."""

    def __enter__(self) -> pathlib.Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


class ServerProc:
    """One ``repro server`` child in its own process group.

    ``spans_dir`` starts it through ``traced_launch.py`` instead of
    ``python -m repro``.  Use as a context manager: leaving the block
    kills the whole group (server and shard workers) if still alive.
    """

    def __init__(self, server_args: list[str], workdir: pathlib.Path,
                 spans_dir: pathlib.Path | None = None):
        if spans_dir is None:
            self._argv = [sys.executable, "-m", "repro", "server", *server_args]
        else:
            self._argv = [sys.executable, str(LEDGER_DIR / "traced_launch.py"),
                          str(spans_dir), "server", *server_args]
        self._stderr_path = workdir / f"stderr-{time.monotonic_ns()}.txt"
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.boot_s = 0.0
        self.exec_at = 0.0
        self.returncode: int | None = None
        self.stdout = b""
        self.stderr = ""

    def __enter__(self) -> "ServerProc":
        with open(self._stderr_path, "wb") as err:
            self.exec_at = time.perf_counter()
            self.proc = subprocess.Popen(
                self._argv, env=child_env(), cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE, stderr=err, bufsize=0,
                start_new_session=True,
            )
        try:
            if SERVER_CPUS:
                os.sched_setaffinity(self.proc.pid, SERVER_CPUS)  # workers inherit it
            self._await_banner()
        except BaseException:
            self.kill()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    def _await_banner(self) -> None:
        fd = self.proc.stdout.fileno()
        deadline = self.exec_at + BOOT_TIMEOUT_S
        line = b""
        while b"\n" not in line:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("server printed no banner: " + self._read_stderr())
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited at boot: " + self._read_stderr())
            line += chunk
        self.boot_s = time.perf_counter() - self.exec_at
        banner, _, self.stdout = line.partition(b"\n")
        if not banner.startswith(BANNER):
            raise RuntimeError(f"unexpected banner {banner!r}")
        self.port = int(banner.rsplit(b":", 1)[1])

    def _read_stderr(self) -> str:
        try:
            return self._stderr_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def drain(self) -> float:
        """SIGTERM and wait for exit; returns seconds from signal to exit."""
        start = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
            self.stdout += out
        except subprocess.TimeoutExpired:
            self.kill()
        elapsed = time.perf_counter() - start
        self.returncode = self.proc.returncode
        self.stderr = self._read_stderr()
        return elapsed

    def clean_exit(self) -> bool:
        return (
            self.returncode == 0
            and "Traceback" not in self.stderr
            and b"server drained" in self.stdout
        )

    def kill(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pgid == pid: own session
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        if proc.stdout is not None:
            proc.stdout.close()
        if self.returncode is None:
            self.returncode = proc.returncode


def boot_only(server_args: list[str], workdir: pathlib.Path) -> float:
    """One cold boot, exec to banner, drained straight after."""
    with ServerProc(server_args, workdir) as server:
        server.drain()
        return server.boot_s


class Counts(dict):
    """``phase -> [sent, succeeded, failed]``."""

    def note(self, phase: str, ok: bool) -> None:
        row = self.setdefault(phase, [0, 0, 0])
        row[0] += 1
        row[1 if ok else 2] += 1

    def merge(self, other: "Counts") -> None:
        for phase, row in other.items():
            mine = self.setdefault(phase, [0, 0, 0])
            for k in range(3):
                mine[k] += row[k]

    def totals(self) -> tuple[int, int]:
        return (sum(r[0] for r in self.values()), sum(r[2] for r in self.values()))

    def as_rows(self) -> dict:
        return {
            phase: {"sent": r[0], "succeeded": r[1], "failed": r[2]}
            for phase, r in sorted(self.items())
        }


class Conn:
    """One blocking NDJSON connection owned by one thread.

    The harness keeps its own client instead of ``repro.serving.client``
    so the load generator is the same code on every commit it measures,
    and so a failure is counted rather than raised."""

    def __init__(self, port: int):
        self.counts = Counts()
        self._sock = socket.create_connection(("127.0.0.1", port), REQUEST_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(self, phase: str, **payload) -> dict | None:
        """One request; the ``ok`` response, or ``None`` for a failure
        (counted).  Backpressure rejections are retried after the
        server's ``retry_after``, as its protocol invites."""
        line = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
        for _attempt in range(RETRIES + 1):
            try:
                self._sock.sendall(line)
                reply = self._file.readline()
                response = json.loads(reply) if reply else None
            except (OSError, ValueError):
                response = None
            if response is None:
                break
            if response.get("ok"):
                self.counts.note(phase, True)
                return response
            if response.get("error") not in _RETRYABLE:
                break
            time.sleep(float(response.get("retry_after") or 0.05))
        self.counts.note(phase, False)
        return None
