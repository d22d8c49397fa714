"""Reproduction harness: one module per table/figure of the evaluation.

Run from the command line::

    python -m repro.experiments fig2          # scaled-down defaults
    python -m repro.experiments table1 --quick
    python -m repro.experiments fig3 --full   # the paper's exact scale
    python -m repro.experiments all

or call ``run_*``/``format_*`` pairs programmatically.
"""

# The figure/table modules pull in the whole evaluation harness (and
# scipy); the persistence/reporting utilities and the CLI should not pay
# for it.  Attribute access is resolved lazily (PEP 562): the harness
# modules load on first use.
import importlib

_LAZY = {
    "EvalConfig": "evaluation",
    "QueryEvaluation": "evaluation",
    "evaluate_all": "evaluation",
    "evaluate_query": "evaluation",
    "Fig2Config": "fig2",
    "Fig2Result": "fig2",
    "format_fig2": "fig2",
    "run_fig2": "fig2",
    "Fig3Config": "fig3",
    "Fig3Result": "fig3",
    "format_fig3": "fig3",
    "run_fig3": "fig3",
    "Fig4Config": "fig4",
    "Fig4Result": "fig4",
    "format_fig4": "fig4",
    "run_fig4": "fig4",
    "Fig5Result": "fig5",
    "format_fig5": "fig5",
    "run_fig5": "fig5",
    "Fig6Result": "fig6",
    "format_fig6": "fig6",
    "run_fig6": "fig6",
    "Table1Result": "table1",
    "format_table1": "table1",
    "run_table1": "table1",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "EvalConfig",
    "QueryEvaluation",
    "evaluate_all",
    "evaluate_query",
    "Fig2Config",
    "Fig2Result",
    "format_fig2",
    "run_fig2",
    "Fig3Config",
    "Fig3Result",
    "format_fig3",
    "run_fig3",
    "Fig4Config",
    "Fig4Result",
    "format_fig4",
    "run_fig4",
    "Fig5Result",
    "format_fig5",
    "run_fig5",
    "Fig6Result",
    "format_fig6",
    "run_fig6",
    "Table1Result",
    "format_table1",
    "run_table1",
]
