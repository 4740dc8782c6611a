"""Every function, class and method in src/ has a caller in src/.

A name that only tests call belongs in tests/ (oracles.py, scroll_helpers.py),
not in the package.  The scan is by name: a definition counts as called when
its name is read anywhere in src/syzlab (as a plain name or an attribute).
"""

from __future__ import annotations

import ast
from pathlib import Path

import syzlab

SRC = Path(syzlab.__file__).parent

# the library API the README documents, and what the benchmark compares
ALLOWED = {
    "linear_syzygies": "documented per-syzygy library API (README 'Library')",
    "quadrics_involved": "documented per-syzygy library API",
    "strip_timings": "report comparison used by the benchmark and by tests",
}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes
    (dunder methods excluded: the language calls them)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_src_name_has_a_src_caller():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for qualname, name in _definitions(tree):
            defined[f"{path.stem}.{qualname}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 100  # the scan sees the package
    uncalled = sorted(q for q, name in defined.items() if name not in read and name not in ALLOWED)
    assert uncalled == [], f"names in src/ that nothing in src/ calls: {uncalled}"
    stale = sorted(name for name in ALLOWED if name not in defined.values())
    assert stale == [], f"allowlisted names that no longer exist: {stale}"
