"""The package namespace: what it re-exports, and the README's import."""

import ast
import re
from pathlib import Path

import pytest

import radpfd
from radpfd import contour, exact, report, saddle, specfun

LAYERS = (exact, specfun, saddle, contour, report)


def test_surface_is_the_union_of_the_layer_surfaces():
    union = {"__version__"}.union(*(layer.__all__ for layer in LAYERS))
    assert set(radpfd.__all__) == union
    assert len(radpfd.__all__) == len(union)


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer in LAYERS for name in layer.__all__],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_name_is_the_layer_object(layer, name):
    assert getattr(radpfd, name) is getattr(layer, name)


def test_readme_import_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(from radpfd import \(.*?\n\))\n", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    names = re.findall(r"^\s+(\w+),", block, re.M)
    assert names and all(namespace[name] is getattr(radpfd, name) for name in names)


# public names that no code in src/radpfd calls, kept on purpose
UNUSED_IN_SRC = {
    "polylog_jonquiere": "acceptance test c8 checks it; nothing else needs Li_{1-s}(e^z)",
    "oracle_spec": "perfbench sizes its Cauchy-oracle grid with it",
}


def test_every_public_name_is_used_in_the_package():
    """Each name of radpfd.__all__ but the exempt ones is read as a name or
    an attribute somewhere in the package's code, and each exempt one is
    not.  Docstrings, comments, imports, def/class lines and __all__
    strings are not reads."""
    src = Path(radpfd.__file__).resolve().parent
    read = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = set(radpfd.__all__) - {"__version__"} - read
    assert unused == UNUSED_IN_SRC.keys()


def test_every_imported_name_is_read():
    """No module of the package binds a name by an import and never reads
    it; a refactor that drops the last use of an import must drop the
    import too.  Future imports bind nothing the module reads."""
    src = Path(radpfd.__file__).resolve().parent
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name) for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unread += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert unread == []


# the underscore names one module of the package imports from another
PRIVATE_IMPORTS = {
    "cli": {
        "contour._arc_integral",
        "contour._full_arc_integral",
        "exact._to_mpf",
        "report._exact_window",
        "saddle._saddle_precision",
        "specfun._GUARD",
        "specfun._check_precision",
        "specfun._split_map",
    },
    "report": {
        "contour._integrals",
        "exact._to_mpf",
        "saddle._saddle_precision",
        "specfun._GUARD",
        "specfun._check_precision",
    },
    "contour": {
        "specfun._GUARD",
        "specfun._check_precision",
        "specfun._dilog_value",
        "specfun._mantissas",
        "specfun._pi2_over_6",
        "specfun._split_map",
    },
    "saddle": {"specfun._GUARD", "specfun._phi_pair", "specfun._split_map"},
}


def test_private_imports_between_modules_are_listed():
    """Every `from .module import _name` in the package is on the list
    above, and every listed one is still made: a new reach into another
    module's private names is an edit of this list."""
    src = Path(radpfd.__file__).resolve().parent
    found = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.setdefault(path.stem, set()).update(
                    f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")
                )
    assert {stem: names for stem, names in found.items() if names} == PRIVATE_IMPORTS


# the names each module of the package imports from mpmath.libmp or one of
# its submodules: mpmath internals, outside its public API
MPMATH_INTERNALS = {
    "exact": {"mpmath.libmp.from_rational"},
    "contour": {
        "mpmath.libmp.from_man_exp",
        "mpmath.libmp.mpf_add",
        "mpmath.libmp.mpf_div",
        "mpmath.libmp.mpf_mul",
        "mpmath.libmp.round_nearest",
        "mpmath.libmp.libelefun.cos_sin_basecase",
        "mpmath.libmp.libelefun.exp_basecase",
        "mpmath.libmp.libelefun.ln2_fixed",
        "mpmath.libmp.libelefun.pi_fixed",
    },
}


def test_mpmath_internals_are_listed():
    """Every name imported from mpmath.libmp or its submodules (or the
    modules themselves, by `import mpmath.libmp` or `from mpmath import
    libmp`) is on the list above, and every listed one is still imported:
    a new reach into mpmath's internals is an edit of this list."""
    src = Path(radpfd.__file__).resolve().parent
    found = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            internal = {name for name in names if name.startswith("mpmath.libmp")}
            if internal:
                found.setdefault(path.stem, set()).update(internal)
    assert found == MPMATH_INTERNALS


# dataclass fields that no code in src/radpfd reads, kept on purpose
UNREAD_FIELDS = {
    "OracleValue.node_doubling_delta": "the oracle's quadrature-error diagnostic, for a run trace",
    "EvalResult.error_estimate": "the error bound of dilog and polylog_jonquiere, for a run trace",
}


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return isinstance(target, ast.Name) and target.id == "dataclass"


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in the package but the exempt ones is read
    as an attribute somewhere in the package's code, and each exempt one is
    not: a field that every caller ignores restates a value or should go.
    Reads are matched by attribute name, not by class."""
    src = Path(radpfd.__file__).resolve().parent
    fields, read = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(d) for d in node.decorator_list
            ):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{node.name}.{stmt.target.id}"] = stmt.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert "SaddleData.z0" in fields
    unread = {name for name, attr in fields.items() if attr not in read}
    assert unread == UNREAD_FIELDS.keys()
