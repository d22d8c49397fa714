"""The command line keeps one flag table, one boot and one tick loop.

``repro.cli`` is a package of command modules over ``flags.FLAGS``; the
long-running commands boot through ``repro.serving.state.boot`` and tick
only inside ``AsyncQueryServer.run_loop``.  Each of those erodes one
convenient ``add_argument`` or one small private loop at a time, so this
test reads the source and the built parsers.
"""

import ast
import pathlib
import re

import pytest

import repro.cli
from repro.cli import build_parser, flags, main
from repro.cli.serve import SERVICE_FLAGS

PACKAGE = pathlib.Path(repro.cli.__file__).parent
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}

# a string literal that is exactly one flag (mentions inside help and
# error text are longer strings and do not match)
FLAG_LITERAL = re.compile(r"""["'](--[a-z][a-z-]*)["']""")


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    return dict(action.choices)


def _options(parser):
    return {
        action.option_strings[0]: action
        for action in parser._actions
        if action.option_strings and action.option_strings[0] != "-h"
    }


def test_each_flag_literal_is_declared_once():
    counts = {}
    for text in SOURCES.values():
        for literal in FLAG_LITERAL.findall(text):
            counts[literal] = counts.get(literal, 0) + 1
    assert {literal: n for literal, n in counts.items() if n != 1} == {}
    assert set(counts) == set(flags.FLAGS)
    exposed = {literal for parser in _subparsers().values() for literal in _options(parser)}
    assert exposed == set(flags.FLAGS)  # nothing undeclared, nothing unused
    assert len(flags.FLAGS) == 49


def test_no_command_declares_an_option_outside_the_table():
    """Command modules add positionals with add_argument; options only
    through flags.add — and never with their own type or default."""
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "add_argument" and name != "flags.py":
                first = node.args[0]
                assert isinstance(first, ast.Constant) and not first.value.startswith("-"), (
                    f"{name}:{node.lineno} declares an option; add it to flags.FLAGS"
                )
            if node.func.attr == "add" and getattr(node.func.value, "id", "") == "flags":
                overridden = {keyword.arg for keyword in node.keywords}
                assert overridden <= {"help", "required"}, f"{name}:{node.lineno}"


def test_every_parser_takes_type_and_default_from_the_table():
    for command, parser in _subparsers().items():
        for literal, action in _options(parser).items():
            declared = flags.FLAGS[literal]
            assert action.type is declared.get("type"), (command, literal)
            if not action.required:
                expected = False if declared.get("action") == "store_true" else declared.get("default")
                assert action.default == expected, (command, literal)


def test_serve_and_server_share_their_service_flags():
    subparsers = _subparsers()
    serve, server = _options(subparsers["serve"]), _options(subparsers["server"])
    shared = {"--" + dest.replace("_", "-") for dest in SERVICE_FLAGS}
    assert {"--state-dir", "--shards", "--batch-size", "--detector-latency",
            "--cache-budget", "--frames-per-tick", "--scheduler", "--scale", "--seed",
            "--json", "--metrics-out", "--trace-out"} == shared
    assert shared <= set(serve) and shared <= set(server)
    assert set(serve) & set(server) == shared
    for literal in shared:
        assert serve[literal].default == server[literal].default, literal
        assert serve[literal].type is server[literal].type, literal
        assert serve[literal].help == server[literal].help, literal


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert command in capsys.readouterr().out


def test_handlers_are_bound_with_set_defaults():
    for command, parser in _subparsers().items():
        assert callable(parser.get_default("func")), command
    assert "args.command ==" not in "".join(SOURCES.values())


def test_the_only_tick_call_is_the_batch_path():
    """A process that waits for work ticks inside AsyncQueryServer.run_loop;
    the CLI calls tick() only for a bounded batch run."""
    callers = []
    for name, text in SOURCES.items():
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "tick"
                ):
                    callers.append((name, function.name))
    assert callers == [("serve.py", "_run_batch")]
    assert "".join(SOURCES.values()).count(".tick(") == 1


def test_one_boot_for_serve_and_server():
    """The state-dir boot is repro.serving.state.boot, called from one
    place; the CLI opens no cache backend and reads no config for the
    serving commands itself."""
    serve = SOURCES["serve.py"]
    assert serve.count("serving_state.boot(") == 1
    for text in SOURCES.values():
        assert "SqliteBackend(" not in text and "TieredBackend(" not in text
    assert "load_or_init_config(" not in serve
    state = (PACKAGE.parent / "serving" / "state.py").read_text(encoding="utf-8")
    assert state.count("SqliteBackend(") == state.count("TieredBackend(") == 1
    assert state.count("load_or_init_config(") == 2  # its def, and boot's call


def test_no_cli_module_outgrows_its_budget():
    assert not (PACKAGE.parent / "cli.py").exists()
    for name, text in SOURCES.items():
        assert len(text.splitlines()) <= 450, name
