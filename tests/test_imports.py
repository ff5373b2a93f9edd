"""Every name a module imports is used in that module.

No lint tool is a dependency, so the check parses each module with `ast`:
an imported name counts as used when it appears as a name anywhere in the
module or is listed in the module's `__all__`.  Star imports and
`__future__` imports bind nothing to check and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted(
    path
    for folder in ("src/harmonium", "tests", "demos", "tools", "benchmark")
    for path in (ROOT / folder).glob("*.py")
)


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = [f"line {lineno}: {name}" for lineno, name in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\nfrom math import pi, tau\nprint(pi)\n")
    used = _used(tree)
    assert [name for _, name in _imported(tree) if name not in used] == ["os", "system", "tau"]
