"""Every module-level function, class and assignment of the library is used:
read by some module of ``qirc`` or exported by ``qirc/__init__.py``. Every
``module.name`` the README quotes still exists."""

import ast
import importlib
import re
from pathlib import Path

import qirc

SRC = Path(qirc.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("resources", "linalg", "channels", "states", "claims", "dynamics", "serialize",
           "cli", "generators", "families", "tolerances")


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_definition_is_read_or_exported():
    # code and constants that nothing reads and nobody can import from the
    # package are dead
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(name, f"{path.stem}.{name}") for node in tree.body
                    for name in _defined_names(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert defined, "no definitions found in qirc"
    assert any(q == "states.SIGMA_Z" for _, q in defined), "assignments not scanned"
    assert sorted(q for name, q in defined if name not in read | exported) == []


def test_readme_names_resolve():
    # a backticked `module.name` in the README names qirc.module.name
    pattern = rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)"
    names = sorted(set(re.findall(pattern, README.read_text(encoding="utf-8"))))
    assert names, "no module names found in the README"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"qirc.{module}"), name)]
    assert missing == []
