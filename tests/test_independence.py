"""The oracles stay independent of the code they check, read from each
module's imports with ast."""

import ast
from pathlib import Path

import borcherds_cm

PACKAGE = Path(borcherds_cm.__file__).parent

ORACLES = ("locwhit", "gzoracle")
CHECKED = ("kappa", "cmvalue", "forms")


def _imports(module):
    """{imported package module: names taken from it} for every import
    of a borcherds_cm module in module, at any depth, relative or not."""
    edges = {}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                # from . import module
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
