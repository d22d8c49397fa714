"""Plain-text reporting: ASCII tables and series for the experiment CLI.

The original figures are plots; a library without a display reproduces
them as aligned text tables and coarse trajectories that carry the same
information (who wins, by what factor, where the crossovers are), printed
both by ``python -m repro.experiments`` and by the benchmark suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["format_table", "format_ratio", "sparkline", "section"]

# numpy scalar types participate in the numeric-alignment and float
# formatting checks
_INTEGRAL = (int, np.integer)
_FLOATING = (float, np.floating)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table (numbers right-aligned)."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for col, text in enumerate(row):
            widths[col] = max(widths[col], len(text))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for original, row in zip(rows, cells):
        padded = []
        for col, text in enumerate(row):
            if isinstance(original[col], _INTEGRAL + _FLOATING):
                padded.append(text.rjust(widths[col]))
            else:
                padded.append(text.ljust(widths[col]))
        lines.append("  ".join(padded))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, _FLOATING):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 100:
            return f"{value:.0f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.3g}"
    return str(value)


def format_ratio(value: float | None) -> str:
    """Savings labels like the figures print them: '3.9x', '0.79x', '-'."""
    if value is None:
        return "-"
    if value >= 10:
        return f"{value:.0f}x"
    return f"{value:.2g}x"


_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """A coarse unicode trajectory for results-vs-samples curves."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        step = (len(vals) - 1) / (width - 1) if width > 1 else 0.0
        vals = [vals[round(i * step)] for i in range(width)]
    top = max(vals)
    if top <= 0:
        return _BLOCKS[0] * len(vals)
    span = len(_BLOCKS) - 1
    return "".join(
        _BLOCKS[int(round(min(max(v / top * span, 0.0), span)))] for v in vals
    )


def section(title: str) -> str:
    bar = "=" * max(8, len(title))
    return f"\n{bar}\n{title}\n{bar}"
