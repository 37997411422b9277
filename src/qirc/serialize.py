"""Deterministic serialization: JSON and CSV with one float spelling.

A float is printed as its ``repr``, the shortest text that reads back as the
same double (``NaN``, ``Infinity``, ``-Infinity`` for the special values), as
the standard ``json`` encoder prints it. So a rerun with the same
configuration reproduces every artifact byte for byte.
"""

from __future__ import annotations

import functools
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


# Stands in for a state's matrix while the encoder renders the rest of a document.
_MARK = "\x00qirc-matrix\x00"
_QUOTED = json.dumps(_MARK)


def _lift(obj: Any, found: list, key: Any = None) -> Any:
    """obj with every "matrix" value that is a list of equally long rows of
    [re, im] float pairs, as ``state_to_dict`` writes, replaced by _MARK; the
    (rows, cols, entries) of each are appended to found, in encoder order."""
    if isinstance(obj, dict):
        return {k: _lift(v, found, k) for k, v in obj.items()}
    if key == "matrix" and type(obj) is list and obj and type(obj[0]) is list and obj[0]:
        rows, cols = len(obj), len(obj[0])
        flat = [x for r in obj if type(r) is list and len(r) == cols
                for p in r if type(p) is list and len(p) == 2 for x in p if type(x) is float]
        if len(flat) == 2 * rows * cols:
            found.append((rows, cols, flat))
            return _MARK
    return [_lift(v, found) for v in obj] if isinstance(obj, (list, tuple)) else obj


@functools.cache
def _template(rows: int, cols: int, indent: int) -> str:
    """The %-template of a rows x cols matrix of [re, im] pairs, laid out as the
    indented encoder lays it out under a key indented by ``indent`` spaces."""
    pad = "\n" + " " * indent
    pair = f"[{pad}      %s,{pad}      %s{pad}    ]"
    row = f"[{pad}    " + f",{pad}    ".join([pair] * cols) + f"{pad}  ]"
    return f"[{pad}  " + f",{pad}  ".join([row] * rows) + f"{pad}]"


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)`` and a newline, byte for byte. A state's
    matrix is rendered through one cached template, and the standard encoder,
    whose indented mode is pure Python, renders the rest."""
    found = []
    pieces = json.dumps(_lift(obj, found), indent=2, default=_plain).split(_QUOTED)
    if len(pieces) != len(found) + 1:  # a string of the document equals _MARK
        return json.dumps(obj, indent=2, default=_plain) + "\n"
    out = [pieces[0]]
    for (rows, cols, flat), piece in zip(found, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        out += [_template(rows, cols, len(line) - len(line.lstrip(" ")))
                % tuple(map(fmt_float, flat)), piece]
    return "".join(out) + "\n"


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
