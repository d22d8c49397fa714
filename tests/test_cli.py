"""Tests for the user-facing CLI (python -m repro)."""

import json

import pytest

from repro.cli import build_parser, main


def test_datasets_lists_all_profiles(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("dashcam", "bdd1k", "bdd_mot", "amsterdam", "archie", "night_street"):
        assert name in out


def test_query_with_limit(capsys):
    code = main(
        ["query", "dashcam", "bicycle", "--limit", "5", "--scale", "0.05", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "exsample" in out
    assert "satisfied" in out


def test_query_with_recall(capsys):
    code = main(
        ["query", "night_street", "person", "--recall", "0.2", "--scale", "0.02"]
    )
    assert code == 0
    assert "exsample" in capsys.readouterr().out


def test_query_compare_runs_all_methods(capsys):
    code = main(
        ["query", "dashcam", "bicycle", "--limit", "3", "--scale", "0.05", "--compare"]
    )
    assert code == 0
    out = capsys.readouterr().out
    for method in ("exsample", "random", "random_plus", "sequential", "blazeit"):
        assert method in out


def test_query_unknown_category_fails_cleanly(capsys):
    code = main(["query", "dashcam", "zeppelin", "--limit", "5"])
    assert code == 2
    assert "zeppelin" in capsys.readouterr().err


def test_query_requires_exactly_one_stopping_rule(capsys):
    code = main(["query", "dashcam", "bicycle"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_unknown_dataset_fails_cleanly(capsys):
    code = main(["query", "atlantis", "bicycle", "--limit", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "atlantis" in err
    assert "dashcam" in err  # the error names the valid options


def test_parser_rejects_bad_method():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["query", "dashcam", "bicycle", "--method", "psychic"])


def test_parser_rejects_limit_and_recall_together():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["query", "dashcam", "bicycle", "--limit", "5", "--recall", "0.5"]
        )


# ------------------------------------------------------------ query --json

QUERY_ARGS = ["query", "dashcam", "bicycle", "--limit", "5", "--scale", "0.03"]


def test_query_json_output(capsys):
    assert main(QUERY_ARGS + ["--seed", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dataset"] == "dashcam"
    assert payload["seed"] == 3
    (result,) = payload["results"]
    assert result["method"] == "exsample"
    assert result["satisfied"] is True
    assert result["results_returned"] >= 5
    assert result["detector_seconds"] > 0


def test_query_seed_makes_runs_reproducible(capsys):
    """--seed pins the whole pipeline: same seed, identical JSON output."""
    main(QUERY_ARGS + ["--seed", "11", "--json"])
    first = capsys.readouterr().out
    main(QUERY_ARGS + ["--seed", "11", "--json"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------- submit / serve

def test_submit_then_serve_state_dir(tmp_path, capsys):
    state = str(tmp_path / "state")
    submit_common = ["--state-dir", state, "--scale", "0.03"]
    assert main(["submit", "dashcam", "bicycle", "--limit", "3"] + submit_common) == 0
    assert main(["submit", "dashcam", "bus", "--limit", "3"] + submit_common) == 0
    out = capsys.readouterr().out
    assert "s1" in out and "s2" in out
    assert (tmp_path / "state" / "sessions" / "s1.json").exists()
    assert (tmp_path / "state" / "service.json").exists()

    assert main(["serve", "--state-dir", state, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["detector_calls"] > 0
    states = {s["session_id"]: s["state"] for s in payload["sessions"]}
    assert states == {"s1": "completed", "s2": "completed"}
    for session in payload["sessions"]:
        assert session["results_found"] >= 3
        assert session["result_frames"]


def test_serve_state_dir_resumes_across_invocations(tmp_path, capsys):
    state = str(tmp_path / "state")
    main(["submit", "dashcam", "bicycle", "--limit", "5", "--state-dir", state,
          "--scale", "0.03"])
    capsys.readouterr()

    assert main(["serve", "--state-dir", state, "--ticks", "2", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["sessions"][0]["state"] == "active"
    partial_frames = first["sessions"][0]["frames_processed"]
    assert partial_frames > 0

    assert main(["serve", "--state-dir", state, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["sessions"][0]["state"] == "completed"
    assert second["sessions"][0]["frames_processed"] > partial_frames
    # the resumed process replayed the first ticks from the shared cache
    assert second["cache"]["hits"] >= partial_frames


def test_serve_script_mode(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text(
        "# demo\n"
        "submit dashcam bicycle --limit 3 --seed 1\n"
        "tick 2\n"
        "submit dashcam bus --limit 3 --seed 2\n"
        "pause s1\n"
        "resume s1\n"
        "run\n"
        "status\n",
        encoding="utf-8",
    )
    code = main(["serve", "--script", str(script), "--scale", "0.03",
                 "--frames-per-tick", "32", "--scheduler", "thompson"])
    assert code == 0
    out = capsys.readouterr().out
    assert "s1: submitted dashcam/bicycle" in out
    assert "s1: paused -> paused" in out
    assert "completed" in out


def test_serve_script_error_reports_line(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("submit dashcam bicycle --limit 3\nfrobnicate s1\n")
    assert main(["serve", "--script", str(script), "--scale", "0.03"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_serve_requires_script_or_state_dir(capsys):
    assert main(["serve"]) == 2
    assert "state-dir" in capsys.readouterr().err


def test_submit_unknown_category_fails_cleanly(tmp_path, capsys):
    code = main(["submit", "dashcam", "zeppelin", "--limit", "3",
                 "--state-dir", str(tmp_path / "s")])
    assert code == 2
    assert "zeppelin" in capsys.readouterr().err


def test_submit_rejects_non_positive_limit(tmp_path, capsys):
    code = main(["submit", "dashcam", "bicycle", "--limit", "0",
                 "--state-dir", str(tmp_path / "s")])
    assert code == 2
    assert "limit" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()  # nothing was queued


def test_serve_script_rejects_non_positive_tick(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("submit dashcam bicycle --limit 2\ntick 0\n")
    assert main(["serve", "--script", str(script), "--scale", "0.03"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_serve_rejects_bad_ticks_combinations(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("submit dashcam bicycle --limit 2\n")
    assert main(["serve", "--script", str(script), "--ticks", "3"]) == 2
    assert "--ticks" in capsys.readouterr().err
    assert main(["serve", "--state-dir", str(tmp_path / "d"), "--ticks", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_submit_default_seeds_are_distinct_per_submission(tmp_path, capsys):
    """Two identical submits must not become identical samplers."""
    state = str(tmp_path / "state")
    main(["submit", "dashcam", "bicycle", "--limit", "3", "--state-dir", state,
          "--scale", "0.03", "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["submit", "dashcam", "bicycle", "--limit", "3", "--state-dir", state,
          "--json"])
    second = json.loads(capsys.readouterr().out)
    assert first["seed"] != second["seed"]


# ---------------------------------------------------------- live ingestion

def test_ingest_validation(tmp_path, capsys):
    state = str(tmp_path / "state")
    code = main(["ingest", "cam0", "--state-dir", state, "--frames", "100",
                 "--instances", "3"])
    assert code == 2
    assert "--category" in capsys.readouterr().err
    code = main(["ingest", "cam0", "--state-dir", state, "--frames", "0"])
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_serve_follow_flag_validation(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("submit dashcam bicycle --limit 2\n")
    assert main(["serve", "--script", str(script), "--follow"]) == 2
    assert "--follow" in capsys.readouterr().err
    assert main(["serve", "--follow"]) == 2
    assert "--state-dir" in capsys.readouterr().err


def test_ingest_then_serve_live_dataset(tmp_path, capsys):
    """A live (non-profile) dataset exists only through its journal; a
    follow submission over it completes once footage is ingested."""
    state = str(tmp_path / "state")
    assert main(["submit", "cam0", "bus", "--limit", "4", "--follow",
                 "--state-dir", state]) == 0
    assert main(["ingest", "cam0", "--state-dir", state, "--frames", "2500",
                 "--clips", "2", "--category", "bus", "--instances", "6"]) == 0
    capsys.readouterr()
    assert (tmp_path / "state" / "ingest.jsonl").exists()

    assert main(["serve", "--state-dir", state, "--follow",
                 "--ticks", "500", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    session = payload["sessions"][0]
    assert session["state"] == "completed"
    assert session["results_found"] >= 4
    assert session["result_frames"]


def test_ingested_footage_is_deterministic_across_serves(tmp_path, capsys):
    """Re-serving the same journal reproduces the same results — cache
    entries and snapshots stay valid across restarts."""
    state = str(tmp_path / "state")
    main(["submit", "cam0", "bus", "--limit", "8", "--follow",
          "--state-dir", state])
    main(["ingest", "cam0", "--state-dir", state, "--frames", "3000",
          "--category", "bus", "--instances", "8"])
    capsys.readouterr()

    assert main(["serve", "--state-dir", state, "--follow",
                 "--ticks", "2", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["sessions"][0]["state"] == "active"  # stopped mid-flight
    partial = first["sessions"][0]["frames_processed"]
    assert partial > 0

    assert main(["serve", "--state-dir", state, "--follow",
                 "--ticks", "500", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["sessions"][0]["state"] == "completed"
    # the restart replayed the first serve's frames from the shared cache
    assert second["cache"]["hits"] >= partial


def test_ingest_extends_profile_dataset(tmp_path, capsys):
    """The journal can also grow one of the paper's profile datasets."""
    state = str(tmp_path / "state")
    main(["submit", "dashcam", "bicycle", "--limit", "1000", "--follow",
          "--state-dir", state, "--scale", "0.02"])
    capsys.readouterr()
    assert main(["serve", "--state-dir", state, "--follow",
                 "--ticks", "3", "--json"]) == 0
    before = json.loads(capsys.readouterr().out)["sessions"][0]["horizon"]
    assert before > 0

    main(["ingest", "dashcam", "--state-dir", state, "--frames", "1500",
          "--category", "bicycle", "--instances", "5"])
    capsys.readouterr()
    assert main(["serve", "--state-dir", state, "--follow",
                 "--ticks", "6", "--json"]) == 0
    after = json.loads(capsys.readouterr().out)["sessions"][0]["horizon"]
    assert after == before + 1500


def test_serve_follow_picks_up_ingest_without_restart(tmp_path):
    """Acceptance: a *running* `serve --follow` process absorbs clips
    appended by a separate `ingest` process and completes its session —
    no restart involved."""
    import os
    import pathlib
    import subprocess
    import sys
    import time as _time

    import repro

    state = str(tmp_path / "state")
    env = dict(os.environ)
    package_parent = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p
    )

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    assert cli("submit", "cam0", "bus", "--limit", "5", "--follow",
               "--state-dir", state).returncode == 0
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", state,
         "--follow", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # the server is idling on an empty repository; footage arrives now
        _time.sleep(0.5)
        assert server.poll() is None  # still following, not crashed
        assert cli("ingest", "cam0", "--state-dir", state, "--frames", "3000",
                   "--category", "bus", "--instances", "8").returncode == 0
        out, err = server.communicate(timeout=60)  # exits once s1 completes
    except Exception:
        server.kill()
        server.wait()
        raise
    assert server.returncode == 0, err
    payload = json.loads(out)
    session = payload["sessions"][0]
    assert session["state"] == "completed"
    assert session["results_found"] >= 5


def test_follow_ticks_cap_exits_while_idle(tmp_path, capsys):
    """--ticks must bound the follow loop even when no session is ever
    schedulable (no footage arrives): each poll round counts."""
    state = str(tmp_path / "state")
    main(["submit", "cam0", "bus", "--limit", "3", "--follow",
          "--state-dir", state])
    capsys.readouterr()
    assert main(["serve", "--state-dir", state, "--follow",
                 "--ticks", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    session = payload["sessions"][0]
    assert session["state"] == "active"  # still waiting for footage
    assert session["frames_processed"] == 0


def test_follow_loop_picks_up_submission_for_new_dataset(
    tmp_path, capsys, monkeypatch
):
    """A submission (and footage) for a dataset the running server has
    never seen must be registered and served, not crash the loop."""
    import contextlib
    import io

    from repro.serving import state as serving_state

    state = str(tmp_path / "state")
    real_absorb = serving_state.absorb
    calls = []

    def absorb_after_arrivals(*args):
        calls.append(args)
        # call 1 is the boot: the server starts with no sessions and no
        # journal.  Before its first poll, a submission + footage for a
        # brand-new dataset arrive
        if len(calls) == 2:
            with contextlib.redirect_stdout(io.StringIO()):
                main(["submit", "cam9", "bus", "--limit", "3", "--follow",
                      "--state-dir", state])
                main(["ingest", "cam9", "--state-dir", state, "--frames", "2000",
                      "--category", "bus", "--instances", "6"])
        return real_absorb(*args)

    monkeypatch.setattr(serving_state, "absorb", absorb_after_arrivals)
    assert main(["serve", "--state-dir", state, "--follow", "--ticks", "100",
                 "--json"]) == 0
    session = json.loads(capsys.readouterr().out)["sessions"][0]
    assert session["session_id"] == "s1"
    assert session["state"] == "completed"
    assert session["results_found"] >= 3


@pytest.mark.parametrize("first_op", ["ingest", "follow-submit"])
def test_server_boot_builds_no_dataset_for_sealed_sessions(
    tmp_path, capsys, monkeypatch, first_op
):
    """Restart cost: over a state directory whose sessions are all
    terminal, `server` boots without building any dataset, still answers
    for the sealed session, and registers the dataset the moment a wire
    op needs it."""
    import socket
    import threading
    import time as _time

    from repro.serving import ServingClient
    from repro.serving import state as serving_state

    state = str(tmp_path / "state")
    assert main(["submit", "dashcam", "bicycle", "--limit", "2",
                 "--state-dir", state, "--scale", "0.02"]) == 0
    capsys.readouterr()
    assert main(["serve", "--state-dir", state, "--json"]) == 0
    sealed = json.loads(capsys.readouterr().out)["sessions"][0]
    assert sealed["state"] == "completed"

    built = []
    real_build = serving_state.build_dataset

    def counting_build(name, **kwargs):
        built.append(name)
        return real_build(name, **kwargs)

    monkeypatch.setattr(serving_state, "build_dataset", counting_build)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(
            main(["server", "--state-dir", state, "--port", str(port)])
        )
    )
    thread.start()
    try:
        deadline = _time.monotonic() + 30
        while True:
            try:
                client = ServingClient("127.0.0.1", port)
                break
            except OSError:
                assert thread.is_alive() and _time.monotonic() < deadline
                _time.sleep(0.02)
        with client:
            assert built == []  # booted, listening, nothing built
            assert client.status("s1")["state"] == "completed"
            assert client.results("s1")["result_frames"] == sealed["result_frames"]
            if first_op == "ingest":
                client.ingest("dashcam", frames=200)
            else:
                client.submit("dashcam", "bicycle", follow=True, warm_start=False)
            assert built == ["dashcam"]
            client.drain()
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive() and codes == [0]
