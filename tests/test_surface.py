"""Every top-level function and class of the package has a caller.

A caller is library code, a CLI command, the benchmark or a tool; tests and
demos do not count. The check reads the source: a definition is called when
a top-level statement of a scanned file, other than the definition itself,
mentions its name as a name, an attribute or a whole string constant. The
benchmark looks up what it wraps by name, so its strings count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planemix"
SCANNED = [path for folder in (PACKAGE, ROOT / "perfbench", ROOT / "tools")
           for path in sorted(folder.rglob("*.py"))
           if path.name != "__init__.py" and not path.name.startswith("test_")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# The finite-difference and one-plane logistic-regression oracles in the
# tests check training through these two.
ALLOWED = {"total_loss", "gradients"}


def _mentions(node) -> set[str]:
    """Names, attribute names and whole string constants under node."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found.add(child.value)
    return found


def test_every_top_level_function_and_class_has_a_caller():
    assert {path.parent.name for path in SCANNED} == {"planemix", "perfbench",
                                                      "tools"}
    parsed = [(path, stmt, _mentions(stmt)) for path in SCANNED
              for stmt in ast.parse(path.read_text()).body]
    uncalled = sorted(
        f"{path.stem}.{stmt.name}" for path, stmt, _ in parsed
        if path.parent == PACKAGE and isinstance(stmt, DEFINITIONS)
        and stmt.name not in ALLOWED
        and not any(stmt.name in said for _, other, said in parsed
                    if other is not stmt))
    assert uncalled == [], uncalled
