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


def _layout(opening: str, indent: int | None, level: int) -> tuple[str, str, str, str]:
    """Item separator, item pad, opening and closing pad of a container at level."""
    if indent is None:
        return ", ", "", opening, ""
    pad = " " * (indent * (level + 1))
    return ",\n", pad, opening + "\n", "\n" + " " * (indent * level)


def _float_items(items: list, indent: int | None, level: int) -> str | None:
    """The text of the items of a list at level, when all are floats or all are
    lists of n floats, from one %.17g template: fmt_float's text; else None."""
    if all(isinstance(x, (float, np.floating)) for x in items):
        item, flat = "%.17g", items
    elif (n := len(items[0]) if isinstance(items[0], list) else 0) and all(
            isinstance(x, list) and len(x) == n and all(isinstance(v, float) for v in x)
            for x in items):
        sep, pad, opening, end = _layout("[", indent, level + 1)
        item = opening + pad + (sep + pad).join(["%.17g"] * n) + end + "]"
        flat = [v for x in items for v in x]
    else:
        return None
    sep, pad, _, _ = _layout("[", indent, level)
    text = pad + (sep + pad).join([item] * len(items)) % tuple(flat)
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _emit(obj: Any, indent: int | None, level: int, pieces: list[str]) -> None:
    """Append the JSON text of obj; an indent of None renders one line."""
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        items = list(obj.items() if is_dict else obj)
        opening, closing = "{}" if is_dict else "[]"
        if not items:
            pieces.append(opening + closing)
            return
        sep, pad, opening, end = _layout(opening, indent, level)
        pieces.append(opening)
        if not is_dict and (text := _float_items(items, indent, level)) is not None:
            pieces.append(text)
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


def dumps(obj: Any) -> str:
    pieces: list[str] = []
    _emit(obj, 2, 0, pieces)
    return "".join(pieces) + "\n"


def dumps_compact(obj: Any) -> str:
    """Single-line rendering with the same float formatting as dumps()."""
    pieces: list[str] = []
    _emit(obj, None, 0, pieces)
    return "".join(pieces)


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
