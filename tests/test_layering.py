"""The numpy-only layers import neither scipy nor the modules built on it.

core, calib and procedures serve `adjust` and `combine`, which never call
into scipy; keeping these layers free of it lets the command line defer
scipy to the subcommands that use it.
"""

import ast
from pathlib import Path

import epmt

PACKAGE = Path(epmt.__file__).parent
FORBIDDEN = ("scipy", "epmt.constructors", "epmt.sim")


def imported_modules(path):
    """Every module a source file imports, relative imports resolved."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("epmt" if node.level else "", node.module)))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def forbidden_imports(path):
    return sorted(
        name for name in set(imported_modules(path)) if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )


def test_numpy_only_layers_import_no_scipy_constructors_or_sim():
    # the scan sees the imports it must rule out
    assert forbidden_imports(PACKAGE / "constructors.py") == ["scipy", "scipy.special"]
    assert "epmt.sim" in forbidden_imports(PACKAGE / "cli.py")
    for module in ("core", "calib", "procedures"):
        assert forbidden_imports(PACKAGE / f"{module}.py") == [], module
