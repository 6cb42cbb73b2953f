"""Everything the package defines is something the package uses.

Source that only tests call belongs in the tests, unless it is a
correctness oracle, and a parameter default that no caller of the
package overrides is a constant.  The checks read the package's AST and
match by name, without types: a definition whose name the package also
loads for something else (a local variable, a numpy function) passes
unseen.  The C kernels' exported functions are held to the same rule
through their _native.load signatures.  The oracles, the kernels' test
seams and the diagnostic parameters that only tests set are listed here
with the reason each one stays.
"""

import ast
import re
from pathlib import Path

import wavecast

PACKAGE = Path(wavecast.__file__).parent
MODULES = [ast.parse(path.read_text())
           for path in sorted(PACKAGE.glob("*.py"))
           if path.name != "__init__.py"]

# defined, called by no module of the package, and kept on purpose
ORACLES = {
    "eval_impedance_cf": "direct evaluation of the continued-fraction "
                         "ladder, checked against the partial fractions",
    "SourceSignature.spectrum": "exact transform of the wavelet, behind "
                                "the Hankel route of "
                                "test_analytic_matches_hankel_route",
    "WaveOperator.a_mat": "A as a CSR matrix (scipy.sparse, from the "
                          "`test` extra): the oracle of the compiled "
                          "stencil product and of the dense tests; "
                          "perfbench/child.py reads its nnz, so it can "
                          "move to tests/support.py once the bench counts "
                          "nnz from the stencil factors",
}

# exported by a C kernel, bound by its loader, and called only by tests
SEAMS = {
    "lanczos_sum": "the recursion's pairwise sum of the row partials, "
                   "which lanczos_run shows only under a square root: "
                   "test_kernel_sums_as_np_sum checks it against np.sum",
    "lanczos_div": "the recursion's complex division: "
                   "test_kernel_divides_as_numpy checks it against numpy",
}
# the path probe that every kernel source defines and _native.load binds
# and calls itself
PROBE = "kernel_simd"

# parameters with a default that no call in the package sets, and the
# tests that set them
DIAGNOSTICS = {
    "run_fdtd.n_pml": "n_pml = 0 closes the box: the PML test and the "
                      "closed-box oracle test of test_reference.py "
                      "(perfbench/child.py also reads it)",
    "main.argv": "every test of test_cli.py",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(qualified name, node) of each module-level function and class,
    and of each method and property."""
    for tree in MODULES:
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                yield top.name, top
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef):
                        yield f"{top.name}.{node.name}", node


def _loads(node, inside=()):
    """(name, ids of the enclosing definitions) of each name loaded."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, inside
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, inside
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = (*inside, id(node))
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, inside)


LOADS = [load for tree in MODULES for load in _loads(tree)]


def _used(name, node=None):
    """Whether the package loads name outside the definition node."""
    return any(n == name and id(node) not in inside for n, inside in LOADS)


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _signatures():
    """callee name -> [(qualified name, positional parameter names,
    parameters with a default)] for each function, method and class
    (a class is called through its __init__ or its dataclass fields)."""
    out = {}
    for qual, node in _definitions():
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            if "." in qual and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list):
                positional = positional[1:]  # self or cls
            if node.name == "__init__":  # Cls(...) calls Cls.__init__
                cls = qual.split(".")[0]
                out.setdefault(cls, []).append((cls, positional, defaulted))
            elif not _dunder(node.name):
                out.setdefault(node.name, []).append(
                    (qual, positional, defaulted))
        elif any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            out.setdefault(node.name, []).append((node.name, [
                f.target.id for f in fields], [
                f.target.id for f in fields if _has_default(f.value)]))
    return out


def _has_default(value):
    """Whether a dataclass field with this assigned value has a default."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return True


def _sets(call, positional, param):
    """Whether call sets param by keyword or by position; a call that
    unpacks * or ** arguments sets every parameter."""
    keys = {k.arg for k in call.keywords}
    if None in keys or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return param in keys or (param in positional
                             and positional.index(param) < len(call.args))


def _unset_defaults():
    """Qualified parameter names that have a default no call sets."""
    signatures = _signatures()
    unset = {f"{qual}.{p}" for sigs in signatures.values()
             for qual, _, defaulted in sigs for p in defaulted}
    for tree in MODULES:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for qual, positional, defaulted in signatures.get(name, ()):
                unset -= {f"{qual}.{p}" for p in defaulted
                          if _sets(call, positional, p)}
    return unset


def test_exports_are_used_by_the_package():
    tops = {node.name: node for tree in MODULES for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = {name for name in _exported()
              if not _used(name, tops.get(name))} - set(ORACLES)
    assert not unused, f"exported but only tests use them: {sorted(unused)}"


def test_definitions_are_used_by_the_package():
    unused = {qual for qual, node in _definitions()
              if not _dunder(node.name) and not _used(node.name, node)}
    unused -= set(ORACLES)
    assert not unused, f"defined but only tests use them: {sorted(unused)}"


def test_defaults_are_set_by_the_package():
    unset = _unset_defaults() - set(DIAGNOSTICS)
    assert not unset, f"defaults no package call sets: {sorted(unset)}"


def test_oracles_and_diagnostics_are_current():
    # an entry the package starts to use no longer needs to be listed
    defined = dict(_definitions())
    assert set(ORACLES) <= set(defined)
    assert not [q for q in ORACLES if _used(defined[q].name, defined[q])]
    assert set(DIAGNOSTICS) <= _unset_defaults()


def _c_exports(source):
    """Names of the functions a C source defines with external linkage:
    a definition at column 0 whose return type is a plain C type (the
    package's static functions all start with static or a macro)."""
    text = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    return set(re.findall(r"^(?:int|void|double|long)\b[\s*]*(\w+)\s*\(",
                          text, flags=re.M))


def _load_signatures():
    """source name -> the function names of its _native.load signatures."""
    out = {}
    for tree in MODULES:
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "_native.load"):
                name, signatures = call.args
                out[name.value] = {k.value for k in signatures.keys}
    return out


def test_kernel_exports_are_bound_and_used():
    # each function a kernel exports is bound by its loader and called by
    # the package, or is the probe _native.load binds and calls, or is a
    # listed seam
    bound = _load_signatures()
    sources = {path.name: _c_exports(path.read_text())
               for path in sorted(PACKAGE.glob("*.c"))}
    assert set(bound) == set(sources)
    unbound = {f"{name}:{f}" for name, exports in sources.items()
               for f in exports - bound[name] - {PROBE}}
    unused = {f"{name}:{f}" for name, exports in sources.items()
              for f in exports - set(SEAMS) - {PROBE} if not _used(f)}
    assert not unbound, f"exported but not bound: {sorted(unbound)}"
    assert not unused, f"exported but only tests call them: {sorted(unused)}"
    assert not [f for f in SEAMS if _used(f)]
    native = ast.parse((PACKAGE / "_native.py").read_text())
    assert PROBE in {name for name, _ in _loads(native)}
    assert all(PROBE in exports for exports in sources.values())
