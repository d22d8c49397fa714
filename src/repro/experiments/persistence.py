"""Persisting experiment results: JSON for structures, CSV for tables.

The experiment modules return frozen dataclasses full of numpy arrays —
convenient in-process, useless to a plotting notebook or a CI artifact
store.  This module provides the bridge:

* :func:`to_jsonable` — recursively converts dataclasses, numpy arrays
  and scalars, mappings, and sequences into plain JSON-compatible data
  (arrays become lists, ``nan``/``inf`` become ``None`` — JSON has no
  spelling for them and downstream tools choke on the common
  ``NaN``-literal extension);
* :func:`save_json` / :func:`load_json` — write/read one result, with a
  small metadata envelope (experiment name, package version) so stored
  artifacts are self-describing;
* :func:`save_csv` — flat tables (Table I, Fig. 5 rows) for spreadsheets.

The experiment CLI exposes this via ``--json DIR``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import pathlib
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["to_jsonable", "save_json", "load_json", "save_csv"]

_ENVELOPE_KEY = "__repro__"


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-compatible plain data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot convert {type(obj).__name__} to JSON-compatible data")


def save_json(result: Any, path: str | pathlib.Path, name: str | None = None) -> pathlib.Path:
    """Serialize one experiment result with a self-describing envelope."""
    from .. import __version__

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        _ENVELOPE_KEY: {
            "name": name if name is not None else type(result).__name__,
            "version": __version__,
        },
        "result": to_jsonable(result),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_json(path: str | pathlib.Path) -> tuple[dict, dict]:
    """Read a stored result; returns ``(metadata, result_data)``."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if _ENVELOPE_KEY not in payload or "result" not in payload:
        raise ValueError(f"{path} is not a repro experiment artifact")
    return payload[_ENVELOPE_KEY], payload["result"]


def save_csv(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    path: str | pathlib.Path,
) -> pathlib.Path:
    """Write a flat table; cells pass through :func:`to_jsonable`."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            if len(row) != len(headers):
                raise ValueError("row width does not match headers")
            writer.writerow([to_jsonable(cell) for cell in row])
    return path
