"""Top-level re-exports: ``__all__`` lists exactly what the package imports."""

import ast
import os
import subprocess
import sys
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


def test_importing_the_package_loads_no_http_client_module():
    """The HTTP stack is imported where a request is made, not by ``import tabreason``."""
    code = (
        "import sys, tabreason\n"
        "print(sorted(m for m in ('ssl', 'http.client', 'urllib.request', 'email.utils',"
        " 'hashlib') if m in sys.modules))\n"
        "print(tabreason.HttpBackend.__name__)\n"
    )
    src = str(Path(tabreason.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\nHttpBackend\n"
