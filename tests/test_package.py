"""The package needs numpy only at run time; scipy serves the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mtcpp"


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_never_imports_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [m.name for m in modules if "scipy" in _imported_roots(m)] == []


def test_scipy_is_listed_only_as_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(deps):
        return [re.split(r"[\s<>=!~\[;]", dep, maxsplit=1)[0] for dep in deps]

    assert names(project["dependencies"]) == ["numpy"]
    extras = project["optional-dependencies"]
    assert [extra for extra, deps in extras.items() if "scipy" in names(deps)] == ["test"]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; names in `__all__` count as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [
        m
        for folder in ("src/mtcpp", "tests", "scripts")
        for m in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert len(modules) > 20
    unused = {
        str(m.relative_to(ROOT)): names for m in modules if (names := _unused_imports(m))
    }
    assert unused == {}
