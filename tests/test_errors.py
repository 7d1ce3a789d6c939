"""Every error class the package declares is one it raises."""
import ast
from pathlib import Path

import memoplate

PACKAGE = Path(memoplate.__file__).parent


def declared_errors() -> set[str]:
    """Names of the MemoplateError subclasses defined in errors.py."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    found = {"MemoplateError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.add(node.name)
    return found - {"MemoplateError"}


def raised_names() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    declared = declared_errors()
    assert "DomainError" in declared and "ConfigError" in declared
    assert sorted(declared - raised_names()) == []
