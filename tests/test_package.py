"""Top-level re-exports: ``__all__`` lists exactly what the package imports."""

import ast
from pathlib import Path

import tabreason


def test_all_matches_the_public_names_the_package_imports():
    tree = ast.parse(Path(tabreason.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(tabreason.__all__)) == []
    assert len(set(tabreason.__all__)) == len(tabreason.__all__)
    missing = [name for name in tabreason.__all__ if not hasattr(tabreason, name)]
    assert missing == []
