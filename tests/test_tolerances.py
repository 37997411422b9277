"""Every small threshold of the library is named in ``tolerances.py``, and
every name there is used."""

import ast
from pathlib import Path

import qirc

SRC = Path(qirc.__file__).resolve().parent


def test_no_small_float_literal_outside_tolerances():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < node.value < 1e-3):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, "thresholds outside tolerances.py: " + ", ".join(found)


def test_every_tolerance_is_read_elsewhere():
    # a threshold no other module reads checks nothing
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    names = {t.id for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert names, "no constants found in tolerances.py"
    assert sorted(names - read) == []
