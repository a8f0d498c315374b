"""Every public name has a consumer.

A name in the ``__all__`` of a ``hexch`` module must be referenced at least
once outside its own definition: in the package (``__init__.py``'s
re-exports aside), in a demo or in the bench.  A reference is an ``ast``
Name, the attribute of an Attribute, or an imported name; a comment or a
docstring does not count.  A public name that only tests reach belongs in
the tests.  The package and ``pyproject.toml`` name one version.
"""

import ast
import re
from pathlib import Path

import pytest

import hexch

SRC = Path(hexch.__file__).resolve().parent
ROOT = SRC.parent.parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CONSUMERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _definitions(tree: ast.Module) -> dict[str, range]:
    """The lines of each top-level definition, by the name it binds."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans[name] = range(node.lineno, node.end_lineno + 1)
    return spans


def _references(tree: ast.Module) -> dict[str, list[int]]:
    """The lines on which each name is referenced."""
    refs: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.setdefault(node.id, []).append(node.lineno)
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, []).append(node.lineno)
        elif isinstance(node, ast.alias):
            refs.setdefault(node.name.rsplit(".", 1)[-1], []).append(node.lineno)
    return refs


REFERENCES = {path: _references(_tree(path)) for path in CONSUMERS}
PUBLIC = [(path, name) for path in MODULES for name in _public(_tree(path))]


def test_the_scan_sees_the_package_demos_and_bench():
    assert {p.parent.name for p in CONSUMERS} == {"hexch", "demos", "bench"}
    assert len(PUBLIC) > 40


@pytest.mark.parametrize("path, name", PUBLIC, ids=[f"{p.stem}.{n}" for p, n in PUBLIC])
def test_every_public_name_has_a_consumer(path, name):
    own = _definitions(_tree(path)).get(name, range(0))
    users = [
        f"{where.relative_to(ROOT)}:{line}"
        for where, refs in REFERENCES.items()
        for line in refs.get(name, ())
        if not (where == path and line in own)
    ]
    assert users, f"{path.stem}.{name} is referenced nowhere outside its definition"


def test_pyproject_names_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]*)"$', text, flags=re.MULTILINE) == [hexch.__version__]
