"""Deterministic serialization: JSON and CSV with fixed float formatting.

Floats are always rendered with 17 significant digits so that a rerun with
the same configuration reproduces every artifact byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np

from .states import DensityMatrix


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x: float) -> str:
    text = format(float(x), ".17g")
    return _SPECIAL.get(text, text)


def _emit(obj: Any, indent: int | None, level: int, pieces: list[str]) -> None:
    """Append the JSON text of obj; an indent of None renders one line."""
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        items = list(obj.items() if is_dict else obj)
        opening, closing = "{}" if is_dict else "[]"
        if not items:
            pieces.append(opening + closing)
            return
        if indent is None:
            sep, pad, end = ", ", "", ""
        else:
            sep, pad = ",\n", " " * (indent * (level + 1))
            opening, end = opening + "\n", "\n" + " " * (indent * level)
        pieces.append(opening)
        if not is_dict and all(isinstance(x, (float, np.floating)) for x in items):
            pieces.append(pad + (sep + pad).join(map(fmt_float, items)))  # same text, one join
        else:
            for i, item in enumerate(items):
                pieces.append(sep + pad if i else pad)
                if is_dict:
                    key, item = item
                    pieces.append(f"{json.dumps(str(key))}: ")
                _emit(item, indent, level + 1, pieces)
        pieces.append(end + closing)
    elif isinstance(obj, (str, bool)) or obj is None:
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(fmt_float(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any, indent: int = 2) -> str:
    pieces: list[str] = []
    _emit(obj, indent, 0, pieces)
    return "".join(pieces) + "\n"


def dumps_compact(obj: Any) -> str:
    """Single-line rendering with the same float formatting as dumps()."""
    pieces: list[str] = []
    _emit(obj, None, 0, pieces)
    return "".join(pieces)


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "matrix": [[[float(z.real), float(z.imag)] for z in row]
                   for row in rho.matrix],
    }


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


def load_state(path: str) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return state_from_dict(data)


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]],
              comments: Sequence[str] = ()) -> list[str]:
    """Render CSV lines; comment lines are prefixed with '#'."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(fmt_float(float(v)))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return lines
