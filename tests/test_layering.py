"""Module boundaries of the package, read from its source with ast."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conelab"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SYMBOLIC = {"conelab.asymptotics", "conelab.rational", "conelab.symbol_algebra"}


def _imports(path: Path):
    """(module, imported names) of every import in a source file; relative ones as conelab.*."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                mod = f"conelab.{mod}" if mod else "conelab"
            yield mod, {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()


def test_only_kernels_imports_lapack():
    users = {path.name for path in SRC.glob("*.py") for mod, names in _imports(path)
             if mod.startswith("scipy.linalg.lapack")
             or (mod == "scipy.linalg" and "lapack" in names)}
    assert users == {"_kernels.py"}


def test_tip_analysis_imports_no_producer_of_trajectories():
    # the fit consumes arrays, whatever marched or integrated them
    producers = {"conelab.heat_solver", "conelab.cli", "conelab._kernels", "conelab.operators",
                 "conelab.power_calculus"}
    for mod, names in _imports(SRC / "tip_analysis.py"):
        assert mod not in producers, mod
        if mod == "conelab":
            assert not producers & {f"conelab.{n}" for n in names}, names


def test_numeric_modules_import_no_symbolic_module():
    for name in ("operators.py", "mellin_sobolev.py"):
        for mod, names in _imports(SRC / name):
            assert mod not in SYMBOLIC, (name, mod)
            if mod == "conelab":
                assert not SYMBOLIC & {f"conelab.{n}" for n in names}, (name, names)


def test_only_cone_geometry_constructs_modes():
    # the cross-section spectrum is built in one module: CrossSection.mode_table
    def builds_mode(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "Mode" or getattr(node.func, "attr", None) == "Mode")
    builders = {path.name for path in SRC.glob("*.py")
                if any(builds_mode(node) for node in ast.walk(ast.parse(path.read_text())))}
    assert builders == {"cone_geometry.py"}


def _named(tree) -> Counter:
    """How often a tree names each identifier: as a name, an attribute or an imported name."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named[node.name.rpartition(".")[2]] += 1
    return named


def test_every_function_is_named_outside_its_own_def():
    # a function or method that neither the package nor the benchmark names
    # anywhere but in its own body has no caller; dunder methods are exempt
    trees = {path: ast.parse(path.read_text())
             for path in (*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py")))}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    orphans = [f"{path.name}:{node.name}" for path, tree in trees.items() if path.parent == SRC
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))
               and named[node.name] == _named(node)[node.name]]
    assert orphans == []


def test_only_cli_forks():
    # process creation stays in one place, the snapshot writers of cli._SnapshotWriters, and
    # so do their pipes: _kernels and heat_solver hand each snapshot row to a callable
    def names(node, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and getattr(node.value, "id", None) == "os") or (
            isinstance(node, ast.ImportFrom) and node.module == "os"
            and attr in {alias.name for alias in node.names})
    trees = {path.name: list(ast.walk(ast.parse(path.read_text()))) for path in SRC.glob("*.py")}
    users = {name: sum(names(node, "fork") for node in nodes) for name, nodes in trees.items()}
    assert {name: n for name, n in users.items() if n} == {"cli.py": 1}
    assert {name for name, nodes in trees.items()
            if any(names(node, "pipe") for node in nodes)} == {"cli.py"}
