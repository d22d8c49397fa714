"""CLI error paths: every way on-disk state or arguments can be wrong
must produce exit code 2 and a message naming the problem — never a
traceback.  (The happy paths live in tests/test_cli.py.)"""

import json

import pytest

from repro.cli import main
from repro.serving import ingest as serving_ingest
from repro.serving import state as serving_state
from repro.serving.ingest import IngestEntry


def _submit(tmp_path, *extra):
    code = main(
        ["submit", "dashcam", "bicycle", "--limit", "3",
         "--state-dir", str(tmp_path), "--scale", "0.02", *extra]
    )
    assert code == 0


# --------------------------------------------------------- unknown dataset

def test_query_unknown_dataset_exit_code_and_message(capsys):
    assert main(["query", "nosuch", "bus", "--limit", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nosuch" in err and "options" in err


def test_query_unknown_dataset_json_mode_also_clean(capsys):
    assert main(["query", "nosuch", "bus", "--limit", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no half-written JSON on the happy stream


# --------------------------------------------------------- corrupt snapshot

def test_serve_corrupt_snapshot_file(tmp_path, capsys):
    _submit(tmp_path)
    snapshot = tmp_path / "sessions" / "s1.json"
    snapshot.write_text("{ not json", encoding="utf-8")
    assert main(["serve", "--state-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "corrupt snapshot file s1.json" in err


def test_serve_snapshot_with_wrong_shape(tmp_path, capsys):
    _submit(tmp_path)
    snapshot = tmp_path / "sessions" / "s1.json"
    data = json.loads(snapshot.read_text(encoding="utf-8"))
    del data["dataset"]  # valid JSON, invalid snapshot
    snapshot.write_text(json.dumps(data), encoding="utf-8")
    assert main(["serve", "--state-dir", str(tmp_path)]) == 2
    assert "corrupt snapshot file s1.json" in capsys.readouterr().err


# ------------------------------------------------- torn config and ledger

_STATE_DIR_COMMANDS = {
    "serve": ["serve"],
    "server": ["server"],
    "submit": ["submit", "dashcam", "bicycle", "--limit", "3"],
    "ingest": ["ingest", "dashcam", "--frames", "50"],
}


@pytest.mark.parametrize("command", sorted(_STATE_DIR_COMMANDS))
@pytest.mark.parametrize(
    "text", ['{"scale": 0.02, "se', "[1, 2]"], ids=["torn", "not-an-object"]
)
def test_unreadable_service_json_is_a_clean_error(tmp_path, capsys, command, text):
    """service.json is one plain write_text: a crash mid-write tears it.
    Every command that opens the directory must say so and exit 2."""
    _submit(tmp_path)
    (tmp_path / "service.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main([*_STATE_DIR_COMMANDS[command], "--state-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt config file service.json")
    assert "Traceback" not in err


def test_service_json_without_scale_is_a_clean_error(tmp_path, capsys):
    _submit(tmp_path)
    (tmp_path / "service.json").write_text('{"seed": 0}', encoding="utf-8")
    assert main(["serve", "--state-dir", str(tmp_path)]) == 2
    assert "corrupt config file service.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["server"], ["serve", "--follow"]],
                         ids=["server", "serve-follow"])
def test_torn_tenant_ledger_is_a_clean_error(tmp_path, capsys, command):
    """tenants.json is read when the tick loop's owner is constructed,
    after the boot: still exit 2 naming the file, with the booted
    service (its sqlite handle) closed on the way out."""
    _submit(tmp_path)
    (tmp_path / "tenants.json").write_text('{"s1": "team', encoding="utf-8")
    assert main([*command, "--state-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt tenant ledger file tenants.json")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["serve", "--ticks", "1"], ["server"]],
                         ids=["serve", "server"])
def test_corrupt_cache_file_is_a_clean_error(tmp_path, capsys, command):
    """cache.sqlite that is not a database used to escape `boot` as a
    sqlite3.DatabaseError traceback (exit 1); it is one more unreadable
    state file: one line naming it, exit 2."""
    _submit(tmp_path)
    (tmp_path / "cache.sqlite").write_bytes(b"this is not a sqlite database\n" * 64)
    capsys.readouterr()
    assert main([*command, "--state-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt cache file cache.sqlite")
    assert err.count("\n") == 1 and "Traceback" not in err


# --------------------------------------------------------- broken journal

def test_serve_malformed_journal_entry(tmp_path, capsys):
    _submit(tmp_path)
    journal = serving_ingest.journal_path(tmp_path)
    journal.write_text('{"dataset": "dashcam"}\n', encoding="utf-8")  # no frames
    assert main(["serve", "--state-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "malformed journal entry" in err and "ingest.jsonl:1" in err


def test_serve_tolerates_torn_journal_tail(tmp_path, capsys):
    _submit(tmp_path)
    serving_ingest.append_entry(tmp_path, IngestEntry(dataset="dashcam", frames=40))
    journal = serving_ingest.journal_path(tmp_path)
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"dataset": "dashcam", "fra')  # crashed writer
    assert main(["serve", "--state-dir", str(tmp_path), "--ticks", "1"]) == 0
    out = capsys.readouterr().out
    assert "s1" in out


def test_ingest_into_corrupt_journal(tmp_path, capsys):
    journal = serving_ingest.journal_path(tmp_path)
    journal.parent.mkdir(parents=True, exist_ok=True)
    journal.write_text("garbage line\n", encoding="utf-8")
    code = main(
        ["ingest", "dashcam", "--state-dir", str(tmp_path), "--frames", "50"]
    )
    assert code == 2
    assert "malformed journal entry" in capsys.readouterr().err


def test_follow_serve_exits_cleanly_on_mid_poll_corruption(
    tmp_path, capsys, monkeypatch
):
    """A long-running --follow server meeting corruption written by
    another process *after startup* must report it and exit 2, not die
    with a traceback.  The corruption lands between two polls, exactly
    where an out-of-band writer would race the server."""
    code = main(
        ["submit", "cam9", "bus", "--limit", "2", "--follow",
         "--state-dir", str(tmp_path), "--scale", "0.02"]
    )
    assert code == 0
    journal = serving_ingest.journal_path(tmp_path)
    real_absorb = serving_state.absorb
    polls = []

    def corrupting_absorb(*args):
        if polls:  # the first call is the boot; corrupt ahead of a later poll
            journal.write_bytes(b"garbage line\n")
        polls.append(args)
        return real_absorb(*args)

    monkeypatch.setattr(serving_state, "absorb", corrupting_absorb)
    code = main(
        ["serve", "--state-dir", str(tmp_path), "--follow", "--ticks", "5"]
    )
    assert code == 2
    assert "malformed journal entry" in capsys.readouterr().err
    # state was saved on the way out
    assert (tmp_path / "sessions" / "s1.json").exists()


# ----------------------------------------------------- execution-flag range
#
# Every execution-layer count flag rejects values < 1 with exit 2 and a
# clean one-line stderr message naming the flag — never a traceback or a
# confusing downstream runtime error.

def _assert_clean_rejection(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert flag in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"),
    ("--batch-size", "-3"),
    ("--shards", "0"),
    ("--shards", "-1"),
])
def test_query_rejects_non_positive_execution_flags(capsys, flag, value):
    _assert_clean_rejection(
        capsys,
        ["query", "dashcam", "bicycle", "--limit", "2", flag, value],
        flag,
    )


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"),
    ("--shards", "0"),
])
def test_serve_rejects_non_positive_execution_flags(tmp_path, capsys, flag, value):
    _assert_clean_rejection(
        capsys,
        ["serve", "--state-dir", str(tmp_path), flag, value],
        flag,
    )


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"),
    ("--shards", "0"),
])
def test_submit_rejects_non_positive_execution_flags(tmp_path, capsys, flag, value):
    _assert_clean_rejection(
        capsys,
        ["submit", "dashcam", "bicycle", "--limit", "2",
         "--state-dir", str(tmp_path), flag, value],
        flag,
    )
    # nothing was queued on the rejected submission
    assert not list((tmp_path / "sessions").glob("*.json"))


_WORKERS_ARGV = {
    "query": ["query", "dashcam", "bicycle", "--limit", "2"],
    "serve": ["serve"],
    "server": ["server"],
}


@pytest.mark.parametrize("command", sorted(_WORKERS_ARGV))
def test_the_retired_workers_flag_is_unrecognized(tmp_path, capsys, command):
    """`--workers` went with the thread pool (use `--shards N`): argparse's
    own exit 2 is the whole migration story — no alias, no special case."""
    argv = [*_WORKERS_ARGV[command], "--workers", "2"]
    if command != "query":
        argv += ["--state-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err
    assert "Traceback" not in err


def test_simulate_rejects_bad_shards(capsys):
    assert main(["simulate", "--shards", "0"]) == 2
    assert "--shards" in capsys.readouterr().err


# -------------------------------------------------------------- simulate

def test_simulate_rejects_negative_seed(capsys):
    assert main(["simulate", "--seed", "-3", "--scenarios", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_simulate_records_unexpected_crashes_as_failing_seeds(
    monkeypatch, tmp_path, capsys
):
    """A scenario that crashes the runner (not an InvariantViolation) is
    a finding too: the sweep records the seed and keeps exploring."""
    import repro.simulation.runner as runner_mod

    original = runner_mod.SimulationRunner.run
    calls = []

    def flaky(self):
        calls.append(self.scenario.seed)
        if self.scenario.seed == 1:
            raise KeyError("latent serving-stack bug")
        return original(self)

    monkeypatch.setattr(runner_mod.SimulationRunner, "run", flaky)
    failures = tmp_path / "seeds.txt"
    code = main(
        ["simulate", "--scenarios", "3", "--quiet",
         "--failures-file", str(failures)]
    )
    assert code == 1
    assert calls == [0, 1, 2]  # the sweep kept going past the crash
    err = capsys.readouterr().err
    assert "KeyError" in err and "FAILING SEEDS: 1" in err
    assert failures.read_text().startswith("1\t")


def test_simulate_rejects_bad_arguments(capsys):
    assert main(["simulate", "--scenarios", "0"]) == 2
    assert "--scenarios" in capsys.readouterr().err
    assert main(["simulate", "--ticks", "0"]) == 2
    assert "--ticks" in capsys.readouterr().err
    assert main(["simulate", "--profile", "warp"]) == 2
    err = capsys.readouterr().err
    assert "warp" in err and "quick" in err
