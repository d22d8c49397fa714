"""Behaviour golden for ``serve --follow``: one restart story.

One fixed scenario — two ``submit --follow``, two ``ingest``, a
``serve --follow --ticks 2`` stopped mid-flight, then a second ``serve
--follow`` run to completion over the same state directory — must print
exactly the session payloads listed here, at the stop point and at the
end, on local execution and on ``--shards 2`` alike.  The payloads were
recorded at the commit before follow mode moved onto the server's tick
loop, and re-recorded once when the Thompson draw moved onto numpy's
``standard_gamma`` (every session's stream moved), each payload checked
against :mod:`repro.simulation.oracle`'s standalone re-run of its
snapshot; ``tests/test_server_cli.py`` holds the same check for
``server``.
"""

import json

import pytest

from repro.cli import main

FIELDS = ("state", "results_found", "result_frames", "frames_processed", "horizon")

STOPPED = {
    "s1": {
        "state": "active",
        "results_found": 0,
        "result_frames": [],
        "frames_processed": 16,
        "horizon": 4000,
    },
    "s2": {
        "state": "active",
        "results_found": 0,
        "result_frames": [],
        "frames_processed": 16,
        "horizon": 3600,
    },
}

FINISHED = {
    "s1": {
        "state": "completed",
        "results_found": 6,
        "result_frames": [828, 952, 1132, 2455, 3113, 3640],
        "frames_processed": 560,
        "horizon": 4000,
    },
    "s2": {
        "state": "completed",
        "results_found": 5,
        "result_frames": [934, 1364, 2193, 3404, 3506],
        "frames_processed": 152,
        "horizon": 3600,
    },
}


def _serve(capsys, state, *extra):
    assert main(["serve", "--state-dir", state, "--follow", "--json", *extra]) == 0
    payload = json.loads(capsys.readouterr().out)
    return {
        session["session_id"]: {field: session[field] for field in FIELDS}
        for session in payload["sessions"]
    }


@pytest.mark.parametrize("execution", [(), ("--shards", "2")], ids=["local", "shards2"])
def test_follow_stop_and_restart_payloads_are_golden(tmp_path, capsys, execution):
    state = str(tmp_path / "state")
    for dataset, category, limit in (("cam0", "bus", "6"), ("cam1", "car", "5")):
        assert main(["submit", dataset, category, "--limit", limit, "--follow",
                     "--state-dir", state, "--seed", "11"]) == 0
    assert main(["ingest", "cam0", "--state-dir", state, "--frames", "2000",
                 "--clips", "2", "--category", "bus", "--instances", "3",
                 "--mean-duration", "25"]) == 0
    assert main(["ingest", "cam1", "--state-dir", state, "--frames", "1200",
                 "--clips", "3", "--category", "car", "--instances", "2",
                 "--mean-duration", "25"]) == 0
    capsys.readouterr()

    stopped = _serve(capsys, state, "--frames-per-tick", "16", "--ticks", "2", *execution)
    assert stopped == STOPPED
    finished = _serve(capsys, state, "--frames-per-tick", "16", *execution)
    assert finished == FINISHED
