"""The numpy-only layers import neither scipy nor the modules built on it,
every module keeps one function per computation, and one module starts
worker processes.

core, calib and procedures, with the CSV layer table, serve `adjust` and
`combine`, which never call into scipy; keeping these layers free of it
lets the command line defer scipy to `simulate` and `moderate`, the
subcommands that use it, and it does (tests/test_cli.py checks a fresh
import). Public functions validate
and compute in one place, so no module has a private `_name` twin beside
one. Every public method of a public class is read somewhere in the
package, so no member serves only the tests. Only sim forks, and no
module imports multiprocessing or concurrent.futures: the campaign
harness owns the one process pool, and decides how workers start.
"""

import ast
from importlib import import_module
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


def imports_under(path, packages) -> list:
    """The modules a source file imports from any of the packages."""
    return sorted(
        name for name in set(imported_modules(path)) if any(name == p or name.startswith(p + ".") for p in packages)
    )


def forbidden_imports(path):
    return imports_under(path, FORBIDDEN)


def test_numpy_only_layers_import_no_scipy_constructors_or_sim():
    # the scan sees the imports it must rule out
    assert forbidden_imports(PACKAGE / "constructors.py") == ["scipy", "scipy.special"]
    assert "epmt.sim" in forbidden_imports(PACKAGE / "cli.py")
    for module in ("core", "calib", "procedures", "table"):
        assert forbidden_imports(PACKAGE / f"{module}.py") == [], module


POOL_MODULES = ("multiprocessing", "concurrent.futures")


def fork_calls(path) -> int:
    """How many calls to os.fork, or to a fork imported by name, a source file makes."""
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "fork" or getattr(node.func, "id", None) == "fork")
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_only_sim_starts_worker_processes(tmp_path):
    """sim's campaign pool alone starts worker processes, forking them
    itself: no module imports the process pool modules, and one decides
    how workers start."""
    # the scan sees a pool import, also one deferred into a function, and a fork
    planted = tmp_path / "planted.py"
    planted.write_text("def f():\n    from concurrent import futures\n    import multiprocessing.context\n    os.fork()\n")
    assert imports_under(planted, POOL_MODULES) == ["concurrent.futures", "multiprocessing.context"]
    assert fork_calls(planted) == 1
    modules = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in modules if imports_under(path, POOL_MODULES)] == []
    assert [path.name for path in modules if fork_calls(path)] == ["sim.py"]


def defined_names(source: str) -> set:
    """The names a module's own top-level definitions and assignments bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def private_twins(source: str) -> list:
    """Module-level `_name` definitions beside a public `name`."""
    names = defined_names(source)
    return sorted(name for name in names if name.startswith("_") and name[1:] in names)


def test_numpy_only_layers_have_no_private_twins():
    # the scan sees a twin when there is one
    assert private_twins("def _f(x):\n    pass\n\n\ndef f(x):\n    return _f(x)\n") == ["_f"]
    # every module is scanned, not only the numpy-only layers the name recalls
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "constructors.py", "sim.py"} <= {path.name for path in modules}
    for path in modules:
        assert private_twins(path.read_text()) == [], path.name


def public_members(source: str):
    """(class, member) for each public method or property of a public top-level class."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def attributes_read(source: str) -> set:
    """Every attribute name a module reads, as in `obj.name`."""
    return {
        node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_members(sources) -> list:
    """Public members, as "Class.member", whose name no source reads as an attribute."""
    read = set().union(*map(attributes_read, sources))
    return sorted(f"{cls}.{name}" for source in sources for cls, name in public_members(source) if name not in read)


# the members that may stay unread in the package, each with its reason
UNREAD_EXEMPT = {
    "RejectionResult.rejected": "bench/test_bench.py reads it; its removal waits for ROADMAP item 2, stage 3",
}


PLANTED = """
class Shown:
    def used(self):
        return self.unread_too

    @property
    def unread(self):
        return 1

    def _private(self):
        pass


class _Hidden:
    def hidden(self):
        pass


def caller(x):
    return x.used()
"""


def test_every_public_member_is_read_in_the_package():
    """No public method or property exists only for the tests or the benchmark."""
    # the scan sees an unread member when there is one
    assert unread_members([PLANTED]) == ["Shown.unread"]
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_members(sources) == sorted(UNREAD_EXEMPT)


def test_package_names_resolve_to_their_defining_module():
    """epmt.__all__ is the one list of public names: each is the object
    of the one module that defines it, not a re-export of it elsewhere."""
    layers = ("core", "calib", "procedures", "constructors", "sim")
    # every module but the command line's is a layer; cli has its own run_campaign
    assert {path.stem for path in PACKAGE.glob("*.py")} == {*layers, "__init__", "__main__", "cli", "table"}
    defined = {layer: defined_names((PACKAGE / f"{layer}.py").read_text()) for layer in layers}
    for name in epmt.__all__:
        (owner,) = [module for module, names in defined.items() if name in names]
        assert getattr(epmt, name) is getattr(import_module(f"epmt.{owner}"), name), name
