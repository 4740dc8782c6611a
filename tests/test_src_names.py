"""Every function, class and method in src/ has a caller in src/.

A name that only tests call belongs in tests/ (oracles.py, scroll_helpers.py),
not in the package.  Two guards check it.  The name scan counts a definition
as called when its name is read anywhere in src/syzlab (as a plain name or an
attribute).  A name shared with a live definition passes that scan, so the
call trace also runs every command line pipeline and the README library
calls in a fresh interpreter and fails on any function or method of src/
that is never entered.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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
    """(qualname, name, is_function) of the top-level functions and classes
    and of the methods of those classes (dunder methods excluded: the
    language calls them)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, isinstance(node, ast.FunctionDef)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, True


def trace_pipelines(workdir: str) -> list[str]:
    """module.qualname of every src/ function entered while the command
    line pipelines and the README library calls run; the profile hook is
    set only around them, after every import."""
    from contextlib import redirect_stdout
    from io import StringIO

    from syzlab import (
        GradedRing,
        ScrollFrame,
        betti_table,
        fourgonal_curve,
        linear_syzygies,
        quadrics_involved,
        syz2_span,
    )
    from syzlab.cli import main
    from syzlab.models import CURVE_FAMILIES

    def path(name: str) -> str:
        return str(Path(workdir) / name)

    runs = [
        ["construct", family, *([] if family in ("genus5", "veronese") else ["--genus", "7"]),
         "--out", path(f"{family}.json")]
        for family in CURVE_FAMILIES
    ]
    runs += [
        ["construct", "fourgonal", "--genus", "7", "--frame", "1,1,2", "--a", "2", "--b", "0",
         "--prime", "101", "--out", path("framed.json")],
        ["analyze", path("fourgonal.json"), "--betti-max-p", "2", "--out", path("report.json")],
        ["export-ideal", path("bielliptic.json"), "--out", path("ideal.txt")],
        ["verify-theorem", "--genus-range", "5..7"],
    ]
    entered: set[str] = set()
    src = str(SRC)

    def profile(frame, event, arg) -> None:
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        with redirect_stdout(StringIO()):
            for argv in runs:
                assert main(argv) == 0, argv
        model = fourgonal_curve(ScrollFrame((1, 1, 1)), a=1, b=0, seed=7)
        ring = GradedRing(model.genus, model.prime)
        syzygies = linear_syzygies(ring, model.quadrics)
        syz2_span(ring, model.quadrics)
        betti_table(ring, model.quadrics, expected_genus=model.genus)
        quadrics_involved(ring, model.quadrics, syzygies[0])
    finally:
        sys.setprofile(None)
    return sorted(entered)


def test_every_src_function_is_entered_by_a_pipeline(tmp_path):
    # a fresh interpreter: functools caches warmed by other tests would
    # hide the functions they wrap
    env = {k: v for k, v in os.environ.items() if k != "SYZLAB_PRIME"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)])
    code = (
        "import json, sys, test_src_names as t; "
        "print(json.dumps(t.trace_pipelines(sys.argv[1])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    entered = set(json.loads(done.stdout))
    never = sorted(
        f"{path.stem}.{qualname}"
        for path in sorted(SRC.glob("*.py"))
        for qualname, name, is_function in _definitions(ast.parse(path.read_text()))
        if is_function and name not in ALLOWED and f"{path.stem}.{qualname}" not in entered
    )
    assert never == [], f"src/ functions that no pipeline enters: {never}"


def test_every_src_name_has_a_src_caller():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for qualname, name, _ in _definitions(tree):
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
