"""Run ``repro <args>`` with the ledger's span wrappers installed.

    python traced_launch.py SPANS_DIR server --datasets dashcam ...

The harness starts the traced leg's server through this launcher instead
of ``python -m repro``.  It times the import of ``repro.cli``, wraps the
public callables listed in ``spans.TARGETS``, calls ``repro.cli.main``
and, whatever way that returns, writes ``SPANS_DIR/spans-<pid>.jsonl``.
The exit code is ``main``'s.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_launch.py SPANS_DIR <repro args...>", file=sys.stderr)
        return 2
    spans_dir, repro_args = argv[0], argv[1:]
    import spans  # sibling module: the script's directory is sys.path[0]

    recorder = spans.Recorder()
    start = time.perf_counter()
    import repro.cli

    recorder.add("cli.import", start, time.perf_counter())
    spans.install(recorder, spans_dir)
    try:
        return repro.cli.main(repro_args)
    finally:
        recorder.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.jsonl"), "main")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
