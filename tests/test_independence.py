"""The oracles stay independent of the code they check, read from each
module's imports with ast."""

import ast
import re
from collections import Counter
from pathlib import Path

import borcherds_cm

PACKAGE = Path(borcherds_cm.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"

ORACLES = ("locwhit", "gzoracle")
CHECKED = ("kappa", "cmvalue", "forms")


def _imports(module, folder=PACKAGE):
    """{imported package module: names taken from it} for every import
    of a borcherds_cm module in module, at any depth, relative or not."""
    edges = {}
    tree = ast.parse((folder / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level and node.module is None) or (
                not node.level and node.module == "borcherds_cm"
            ):
                # from . import module, or from borcherds_cm import module
                for a in node.names:
                    edges.setdefault(a.name, set())
                continue
            if node.level:
                target = node.module
            elif (node.module or "").startswith("borcherds_cm."):
                target = node.module.removeprefix("borcherds_cm.")
            else:
                continue
            edges.setdefault(target, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("borcherds_cm."):
                    edges.setdefault(a.name.removeprefix("borcherds_cm."), set())
    return edges


def test_imports_are_read():
    assert _imports("kappa").keys() == {"arith", "lattice", "quadfield"}
    assert _imports("locwhit")["lattice"] == {"check_coset"}


def test_oracles_import_none_of_the_code_they_check():
    for oracle in ORACLES:
        assert not _imports(oracle).keys() & set(CHECKED), oracle
    # locwhit refuses a foreign coset as kappa does, and reads nothing
    # else from lattice
    assert _imports("locwhit").get("lattice", {"check_coset"}) == {"check_coset"}
    assert "lattice" not in _imports("gzoracle")


def test_checked_code_imports_no_oracle():
    for module in ("kappa", "cmvalue", "lattice"):
        assert not _imports(module).keys() & set(ORACLES), module


def test_the_reference_report_imports_no_checked_report_code():
    # tests/reference.py recomputes what kappa and cmvalue compute
    imported = _imports("reference", TESTS)
    assert "lattice" in imported
    assert not imported.keys() & {"kappa", "cmvalue"}


def _names(tree):
    """Counter of the identifiers tree names: variables, attributes,
    imported names, and string constants that are dotted identifiers (as
    bench/tracer.py names what it wraps)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def _definitions(tree):
    """(dotted name, node) for each module-level def and class of tree and
    each non-dunder def in a class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_library_definition_has_a_caller_outside_the_tests():
    # code that only tests call belongs in the tests
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    }
    used = sum(map(_names, trees.values()), Counter())
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node in _definitions(tree)
        if not used[node.name] - _names(node)[node.name]
    ]
    assert unused == []
