"""The numpy-only layers import neither scipy nor the modules built on it,
and every module keeps one function per computation.

core, calib and procedures serve `adjust` and `combine`, which never call
into scipy; keeping these layers free of it lets the command line defer
scipy to the subcommands that use it. Public functions validate and
compute in one place, so no module has a private `_name` twin beside one.
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


def private_twins(source: str) -> list:
    """Module-level `_name` definitions beside a public `name`."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return sorted(name for name in names if name.startswith("_") and name[1:] in names)


def test_numpy_only_layers_have_no_private_twins():
    # the scan sees a twin when there is one
    assert private_twins("def _f(x):\n    pass\n\n\ndef f(x):\n    return _f(x)\n") == ["_f"]
    # every module is scanned, not only the numpy-only layers the name recalls
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "constructors.py", "sim.py"} <= {path.name for path in modules}
    for path in modules:
        assert private_twins(path.read_text()) == [], path.name
