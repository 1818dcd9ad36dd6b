"""The package's import layering, read from the source."""

import ast
from pathlib import Path

import planemix

SOURCES = sorted(Path(planemix.__file__).parent.glob("*.py"))


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "planemix"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "planemix" for a in node.names)
    return False


def _function_level_imports(node, owner=None):
    """(function name) of each package import inside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_level_imports(child, child.name)
        elif owner is not None and _is_package_import(child):
            yield owner
        else:
            yield from _function_level_imports(child, owner)


def test_only_select_lift_imports_the_package_at_call_time():
    # select_lift probes through workflow.fit, and workflow imports features,
    # so its import waits for call time. It stays in features because the
    # benchmark, which is frozen, wraps features.select_lift by that name.
    found = [(path.stem, owner) for path in SOURCES
             for owner in _function_level_imports(ast.parse(path.read_text()))]
    assert found == [("features", "select_lift")]
