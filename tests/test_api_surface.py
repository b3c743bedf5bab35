"""The package holds no API that only the tests use.

Every function, method and class defined under `src/pdisc`, and every
module-level name bound by assignment there, must be used elsewhere in
the package, in the benchmark harness (`bench/`) or in `scripts/`.  A
method is used only through an attribute (`.name`) there; a function,
class or module-level name also through a bare name or an import alias.
A string constant in `bench/` or `scripts/` is a use of any of them,
since the benchmark tracer looks functions up by name.  Dunder names,
which the language reads, are exempt.  A helper that only tests need
belongs in the tests, as an oracle module next to them
(`tests/enclosure.py`, `tests/sturm.py`), or in the test module that
uses it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pdisc"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(*dirs: Path) -> Iterator[tuple[Path, ast.AST]]:
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _assigned(tree: ast.Module) -> Iterator[ast.Name]:
    """Each name that a module-level assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    yield node


def _uses(tree: ast.AST, strings: bool) -> Iterator[tuple[bool, str]]:
    """(through an attribute, name) for each use in the tree; a name
    being bound is not a use of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield False, node.id
        elif isinstance(node, ast.Attribute):
            yield True, node.attr
        elif isinstance(node, ast.alias):
            yield False, node.name.rsplit(".", 1)[-1]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield True, node.value


def test_every_package_definition_is_used_outside_the_tests():
    defined: dict[tuple[bool, str], str] = {}
    uses: set[tuple[bool, str]] = set()
    for path, tree in _trees(PACKAGE):
        uses.update(_uses(tree, strings=False))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
                is_method = id(node) in methods and not isinstance(node, ast.ClassDef)
                defined.setdefault((is_method, node.name), f"{path.relative_to(ROOT)}:{node.lineno}")
        for node in _assigned(tree):
            if not (node.id.startswith("__") and node.id.endswith("__")):
                defined.setdefault((False, node.id), f"{path.relative_to(ROOT)}:{node.lineno}")
    for _, tree in _trees(ROOT / "bench", ROOT / "scripts"):
        uses.update(_uses(tree, strings=True))
    attributes = {name for through_attribute, name in uses if through_attribute}
    names = {name for _, name in uses}
    unused = sorted(
        f"{where} {name}"
        for (is_method, name), where in defined.items()
        if name not in (attributes if is_method else names)
    )
    assert not unused, unused
