"""The package holds no API that only the tests use.

Every function, method and class defined under `src/pdisc` must be used
elsewhere in the package, in the benchmark harness (`bench/`) or in
`scripts/`.  A use is a name, an attribute or an import alias there, or
a string constant in `bench/` or `scripts/`, since the benchmark tracer
looks functions up by name.  Dunder methods, which the language calls,
are exempt.  A helper that only tests need belongs in the tests, as an
oracle module next to them (`tests/enclosure.py`, `tests/sturm.py`).
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


def _uses(tree: ast.AST, strings: bool) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_definition_is_used_outside_the_tests():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path, tree in _trees(PACKAGE):
        used.update(_uses(tree, strings=False))
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    for _, tree in _trees(ROOT / "bench", ROOT / "scripts"):
        used.update(_uses(tree, strings=True))
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, unused
