"""Every module-level function and class of the library is used: read by
some module of ``qirc`` or exported by ``qirc/__init__.py``."""

import ast
from pathlib import Path

import qirc

SRC = Path(qirc.__file__).resolve().parent


def test_every_definition_is_read_or_exported():
    # code that nothing reads and nobody can import from the package is dead
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.stem}.{node.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert defined, "no definitions found in qirc"
    assert sorted(q for name, q in defined if name not in read | exported) == []
