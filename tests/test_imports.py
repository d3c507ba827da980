"""No module of the package imports a name it never uses.

The check reads each module's syntax tree (the standard library's `ast`),
so it needs no linter.  `__init__` is left out: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cnslab"


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that nothing else reads,
    quoted annotations included, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg,
                                                   args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_nothing_reads():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Dict, List, Optional\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return np.zeros(x)\n")
    assert unused_imports(source) == ["os", "Dict"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
