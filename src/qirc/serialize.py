"""Deterministic serialization: JSON and CSV with one float spelling.

A float is printed as its ``repr``, the shortest text that reads back as the
same double (``NaN``, ``Infinity``, ``-Infinity`` for the special values), as
the standard ``json`` encoder prints it. So a rerun with the same
configuration reproduces every artifact byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np

from .states import DensityMatrix


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x: float) -> str:
    text = repr(float(x))
    return _SPECIAL.get(text, text)


def _plain(obj: Any) -> int | float:
    """The Python number of a numpy integer or floating scalar."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, default=_plain) + "\n"


def dumps_compact(obj: Any) -> str:
    """Single-line rendering with the same float formatting as dumps()."""
    return json.dumps(obj, default=_plain)


def state_to_dict(rho: DensityMatrix) -> dict:
    m = rho.matrix
    return {"dims": list(rho.dims), "matrix": np.stack([m.real, m.imag], -1).tolist()}


def state_from_dict(data: Any) -> DensityMatrix:
    if not isinstance(data, dict) or "dims" not in data or "matrix" not in data:
        raise ValueError("state file must contain 'dims' and 'matrix' keys")
    dims = data["dims"]
    raw = data["matrix"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("'matrix' must be a non-empty list of rows")
    try:
        m = np.array([[complex(e[0], e[1]) for e in row] for row in raw])
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    return DensityMatrix(m, dims)


def load_json(path: str) -> Any:
    """The JSON document in the file; a missing or invalid file raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_state(path: str) -> DensityMatrix:
    return state_from_dict(load_json(path))


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]],
              comments: Sequence[str] = ()) -> list[str]:
    """Render CSV lines; comment lines are prefixed with '#'."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt_float(v) if isinstance(v, (float, np.floating))
                              else str(int(v)) if isinstance(v, (int, np.integer))
                              else str(v) for v in row))
    return lines
