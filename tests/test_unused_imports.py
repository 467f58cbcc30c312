"""Every name a module of the package, a test module or a demo imports is
used in that module. The package's ``__init__.py`` is left out: its
imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jifnorm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _annotations(tree: ast.AST):
    """Every annotation of an argument, a return or an assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                        a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as Optional["RefTable"] uses its names too
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                used.update(m.id for m in ast.walk(quoted)
                            if isinstance(m, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = ("from typing import Optional, Sequence\nimport json, os\n"
              "def f(x: Optional[int]) -> 'Sequence[int]':\n"
              "    return [x, 'json', os.sep]\n")
    assert unused_imports(source) == ["json (line 2)"]


def _module_id(path: Path) -> str:
    """A package module by its name, a test or a demo with its folder."""
    return (path.name if path.parent == PACKAGE
            else f"{path.parent.name}/{path.name}")


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
