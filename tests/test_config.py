"""The numeric policy keeps its one home."""

import ast
from pathlib import Path

import netpeel

PACKAGE = Path(netpeel.__file__).resolve().parent


def _refers_to_eps(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "EPS":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "EPS":
            return True
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "EPS" for alias in node.names):
                return True
    return False


def test_only_config_refers_to_eps():
    """Every round-off factor is a named constant of `config`, not `k * EPS`."""
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "config.py" and _refers_to_eps(ast.parse(path.read_text()))
    ]
    assert offenders == []
    assert _refers_to_eps(ast.parse((PACKAGE / "config.py").read_text()))
