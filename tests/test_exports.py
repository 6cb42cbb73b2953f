"""Every public name of the package is used by the package itself.

Source that only tests call belongs in the tests, unless it is a
correctness oracle; the oracles are listed here with the reason each
one stays.
"""

import ast
from pathlib import Path

import wavecast

PACKAGE = Path(wavecast.__file__).parent

# exported, called by no module of the package, and kept on purpose
ORACLES = {
    "sc_resolvent_dense": "dense stability-corrected resolvent, the "
                          "oracle of criterion 04",
    "sctde_scalar": "scalar form of the corrected kernel and of its "
                    "branch-cut rule, which the matrix route follows",
    "impedance_error": "independently sampled absorbing-layer error, "
                       "checked against the stored one in criterion 01",
    "eval_impedance_cf": "direct evaluation of the continued-fraction "
                         "ladder, checked against the partial fractions",
}


def _used_names():
    """Names each module of the package loads, outside the top-level
    definition of the same name."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_exports_are_used_by_the_package():
    unused = _exported() - _used_names() - set(ORACLES)
    assert not unused, f"exported but only tests use them: {sorted(unused)}"


def test_oracles_are_exported_and_unused():
    # an oracle the package starts to call no longer needs its entry
    assert set(ORACLES) <= _exported()
    assert not set(ORACLES) & _used_names()
