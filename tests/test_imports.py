"""Checks on what the package imports, statically and in fresh interpreters."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _private_numpy_imports(tree: ast.AST) -> list[str]:
    """Every imported numpy path with a component that starts with '_'."""
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
    return [
        p for p in paths
        if p.split(".")[0] == "numpy" and any(part.startswith("_") for part in p.split("."))
    ]


def _imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import, function-local ones too."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def _imports(tree: ast.AST, module: str) -> bool:
    """Whether a package module imports the package's ``module``, or a name
    from it, relatively or absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == f"starktoric.{module}" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in (module, f"starktoric.{module}"):
                return True
            if node.module in (None, "starktoric") and any(
                alias.name == module for alias in node.names
            ):
                return True
    return False


def _importers(module: str) -> list[str]:
    """Every package module other than ``module`` that imports it."""
    return [
        p.stem for p in MODULES
        if p.stem != module
        and _imports(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), module)
    ]


def test_sources_found():
    assert any(p.name == "toric_profile.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_numpy_api(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_numpy_imports(tree) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from numpy.linalg._umath_linalg import lstsq", ["numpy.linalg._umath_linalg.lstsq"]),
        ("import numpy._core.multiarray as m", ["numpy._core.multiarray"]),
        ("from numpy import _core", ["numpy._core"]),
        ("import numpy as np\nfrom numpy.exceptions import RankWarning", []),
        ("from .elliptic import _agm", []),
        ("from __future__ import annotations", []),
    ],
    ids=["private_module", "import_as", "private_name", "public", "relative", "future"],
)
def test_private_numpy_imports_are_detected(source, found):
    assert _private_numpy_imports(ast.parse(source)) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_scipy_import(path):
    # scipy is an oracle of the tests and the benchmark, not a dependency
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "scipy" not in _imported_roots(tree)


def test_scipy_imports_are_detected():
    source = "def f():\n    from scipy.special import ellipj\nimport scipy as sp\nfrom .scipy import x"
    assert _imported_roots(ast.parse(source)) == {"scipy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_dataclasses_import(path):
    # a dataclass compiles and execs generated source as its module loads;
    # the records are named tuples and slotted classes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "dataclasses" not in _imported_roots(tree)


@pytest.mark.parametrize(
    "source, found",
    [
        ("from dataclasses import dataclass, field", True),
        ("import dataclasses as dc", True),
        ("def f():\n    from dataclasses import replace", True),
        ("from typing import NamedTuple\nfrom .dataclasses import x", False),
    ],
    ids=["from", "import_as", "function_local", "other"],
)
def test_dataclasses_imports_are_detected(source, found):
    assert ("dataclasses" in _imported_roots(ast.parse(source))) is found


def test_only_periods_imports_quadrature():
    # quadrature is an oracle: period_oracle is its one caller in the package
    assert _importers("quadrature") == ["periods"]


def test_only_periods_and_dynamics_import_elliptic():
    # the profile takes every elliptic quantity through the periods; the
    # package namespace resolves the module on first access
    import starktoric

    assert _importers("elliptic") == ["dynamics", "periods"]
    assert starktoric.elliptic.__name__ == "starktoric.elliptic"


def _import_time_statements(node: ast.AST) -> ast.Module:
    """The import statements below node that run when the module is
    imported (all but those in function bodies), as a module."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            found.append(child)
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += _import_time_statements(child).body
    return ast.Module(body=found, type_ignores=[])


def _import_time_layers(tree: ast.AST) -> list[str]:
    """The package modules that a module imports as it is imported."""
    statements = _import_time_statements(tree)
    return [p.stem for p in MODULES if _imports(statements, p.stem)]


def test_cli_imports_only_errors_at_module_level():
    # each subcommand imports the layers it runs, and numpy where it uses it
    path = SRC / "starktoric" / "cli.py"
    assert _import_time_layers(ast.parse(path.read_text(encoding="utf-8"))) == ["errors"]
    _loaded("import sys, starktoric.cli\nassert 'numpy' not in sys.modules")


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .errors import DomainError\nfrom . import periods", ["errors", "periods"]),
        ("import starktoric.dynamics as d\nfrom starktoric import elliptic",
         ["dynamics", "elliptic"]),
        ("if True:\n    from .stark_model import hill_grid", ["stark_model"]),
        ("def f():\n    from .dynamics import Trajectory\nfrom __future__ import annotations\n"
         "import numpy.linalg", []),
    ],
    ids=["relative", "absolute", "nested", "function_local"],
)
def test_import_time_layers_are_detected(source, found):
    assert _import_time_layers(ast.parse(source)) == found


def _loaded(source: str, *argv: str) -> list[str]:
    """The package's modules, dataclasses if it is loaded (no layer loads
    it) and json if it is loaded (only verify does), in sys.modules after a
    fresh interpreter runs source with argv, the last line it prints."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    source += ("\nprint(sorted(m for m in sys.modules"
               " if m.split('.')[0] == 'starktoric' or m in ('dataclasses', 'json')))")
    done = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("starktoric", ["starktoric"]),
        ("starktoric.cli", ["starktoric", "starktoric.cli", "starktoric.errors"]),
    ],
    ids=["package", "cli"],
)
def test_bare_import_loads_no_layer(module, loaded):
    assert _loaded(f"import sys, {module}") == loaded


_STATE = "1,0.9,-0.8,1.233077450933233"
_PERIODS = ["elliptic", "periods", "stark_model"]
_FLOW = ["dynamics", "elliptic", "levi_civita", "periods", "stark_model"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["periods", "--eps", "0.05", "--c", "1.0"], [*_PERIODS, "quadrature"]),
        (["profile", "--eps", "0.05", "--samples", "5"], [*_PERIODS, "toric_profile"]),
        (["verify", "--eps", "0.05", "--samples", "5"], [*_PERIODS, "toric_profile", "json"]),
        (["flow", "--eps", "0.05", "--init", _STATE, "--duration", "0.1"], _FLOW),
        (["flow", "--eps", "0.05", "--init", _STATE, "--duration", "0.1", "--check-lc"], _FLOW),
        (["hill", "--eps", "0.05", "--resolution", "10"], ["stark_model"]),
    ],
    ids=["periods", "profile", "verify", "flow", "flow_check_lc", "hill"],
)
def test_each_subcommand_loads_only_its_layers(argv, layers):
    source = "import sys\nfrom starktoric.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = _loaded(source, *argv, "--out", os.devnull)
    # json, which only verify writes, is not a layer
    expected = [m if m == "json" else f"starktoric.{m}" for m in layers]
    assert loaded == sorted(["starktoric", "starktoric.cli", "starktoric.errors", *expected])


def test_package_namespace_is_lazy():
    import starktoric

    assert starktoric.__all__ == ["elliptic", "stark_model", "levi_civita", "periods",
                                  "dynamics", "toric_profile"]
    assert callable(starktoric.periods.tau1)
    namespace = {}
    exec("from starktoric import *", namespace)
    assert {name: namespace[name] for name in starktoric.__all__} == {
        name: sys.modules[f"starktoric.{name}"] for name in starktoric.__all__}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_layer'"):
        starktoric.no_such_layer


def _name_pair(node: ast.AST, op: type) -> frozenset | None:
    """{x, y} if node is x <op> y of two names."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, op) \
            and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name):
        return frozenset((node.left.id, node.right.id))
    return None


def _agm_steps(tree: ast.AST) -> list[str]:
    """Every function that takes an AGM step: sqrt(a * b) of two names whose
    sum a + b it also forms."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            sums = {_name_pair(node, ast.Add) for node in nodes}
            roots = {
                _name_pair(node.args[0], ast.Mult) for node in nodes
                if isinstance(node, ast.Call) and len(node.args) == 1
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt"
            }
            if (sums & roots) - {None}:
                found.append(fn.name)
    return found


def test_one_agm_loop():
    # every elliptic quantity comes from one AGM kernel
    steps = [
        f"{p.stem}.{name}" for p in MODULES
        for name in _agm_steps(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
    ]
    assert steps == ["elliptic._agm"]


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(a, b):\n    return 0.5 * (a + b), np.sqrt(a * b)", ["f"]),
        ("def g(x, y):\n    s = x + y\n    return math.sqrt(y * x)", ["g"]),
        ("def h(eps, b2):\n    return np.sqrt(eps * b2) * (b2 + 1.0)", []),
        ("def k(a, b):\n    return a + b, np.sqrt(a * b + 1.0)", []),
    ],
    ids=["numpy", "math", "no_mean", "not_a_product"],
)
def test_agm_steps_are_detected(source, found):
    assert _agm_steps(ast.parse(source)) == found


def _negated_name(node: ast.AST) -> str | None:
    """x if node is -x of a name."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Name):
        return node.operand.id
    return None


def _is_inverse_cube(node: ast.AST) -> bool:
    """d / (r2 * sqrt(r2)): a kick over the cube of a distance from its square."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    cube = node.right
    if not (isinstance(cube, ast.BinOp) and isinstance(cube.op, ast.Mult)):
        return False
    root = cube.right
    return (
        isinstance(cube.left, ast.Name) and isinstance(root, ast.Call)
        and getattr(root.func, "id", getattr(root.func, "attr", None)) == "sqrt"
        and [getattr(arg, "id", None) for arg in root.args] == [cube.left.id]
    )


def _is_force(node: ast.AST) -> bool:
    """-z - k*z*z*z of the oscillator (the negated name again in the
    subtrahend), -q1 / r3 - eps of the planar field, or its kick's
    d / (r2 * sqrt(r2))."""
    if _is_inverse_cube(node):
        return True
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    left = node.left
    if isinstance(left, ast.BinOp) and isinstance(left.op, ast.Div) \
            and isinstance(left.right, ast.Name):
        return _negated_name(left.left) is not None
    name = _negated_name(left)
    return name is not None and any(getattr(n, "id", None) == name for n in ast.walk(node.right))


def _is_stepping_loop(node: ast.AST) -> bool:
    """for _ in range(count)."""
    return (
        isinstance(node, ast.For) and getattr(node.target, "id", None) == "_"
        and isinstance(node.iter, ast.Call) and getattr(node.iter.func, "id", None) == "range"
        and [getattr(arg, "id", None) for arg in node.iter.args] == ["count"]
    )


def _holders(tree: ast.AST, test) -> list[str]:
    """Every function that holds a node passing ``test``."""
    return [
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and any(test(node) for node in ast.walk(fn))
    ]


@pytest.mark.parametrize("test", [_is_stepping_loop, _is_force], ids=["loop", "force"])
def test_one_oscillator_and_one_planar_stepping_loop(test):
    # aim 2: the oscillator flows are closed form, the period included, so
    # only the raw planar flow is stepped, and no other function steps a
    # flow or evaluates a force
    found = [
        f"{p.stem}.{name}" for p in MODULES
        for name in _holders(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), test)
    ]
    assert found == ["dynamics._planar_flow"]


_RETIRED_STEPPERS = {"_oscillate", "_crossing", "_CHUNK"}


def test_no_module_steps_an_oscillator():
    # the oscillator kernel lives on only in the tests' oracles, and the
    # period search's crossing solver and stretch length are gone: no module
    # defines, imports or names any of them
    named = [f"{p.stem}:{node.lineno}" for p in MODULES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
             if {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}
             & _RETIRED_STEPPERS]
    assert named == []


@pytest.mark.parametrize(
    "source, loops, forces",
    [
        ("def f(z, w, k, count):\n    for _ in range(count):\n        w += -z - k * z * z * z",
         ["f"], ["f"]),
        ("def g(q1, r3, eps):\n    return -q1 / r3 - eps", [], ["g"]),
        ("def kick(d, r2, q1, q2, p1, p2, f):\n    g = d / (r2 * sqrt(r2))\n"
         "    return p1 - (g * q1 + f), p2 - g * q2", [], ["kick"]),
        ("def kick_math(d, r2):\n    return d / (r2 * math.sqrt(r2))", [], ["kick_math"]),
        ("def h(n):\n    for _ in range(n):\n        pass", [], []),
        ("def k(w, a, b):\n    return -w / (a * b) - a, -w - a * b, -a / b", [], []),
        ("def m(a, b):\n    return a / (b * sqrt(a)), a / (sqrt(b) * b), a * (b * sqrt(b))",
         [], []),
    ],
    ids=["oscillator", "planar", "planar_kick", "planar_kick_attribute", "other_loop",
         "not_a_force", "not_a_kick"],
)
def test_steppers_are_detected(source, loops, forces):
    tree = ast.parse(source)
    assert (_holders(tree, _is_stepping_loop), _holders(tree, _is_force)) == (loops, forces)


_SPLITTING = {"_W0", "_W1", "_DRIFT_OUT", "_DRIFT_IN"}


def _splitting_name(node: ast.AST) -> bool:
    """Whether node names a splitting constant, bare or as a module attribute."""
    return getattr(node, "id", getattr(node, "attr", None)) in _SPLITTING


def _scales_splitting_constant(node: ast.AST) -> bool:
    """c * h or h * c of a splitting constant c and anything but a number:
    a stage length formed from a step length."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    return any(
        _splitting_name(c) and not isinstance(h, ast.Constant)
        for c, h in ((node.left, node.right), (node.right, node.left))
    )


def _splitting_definitions(tree: ast.AST) -> set[str]:
    """The splitting constants a module assigns."""
    return {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id in _SPLITTING
    }


def test_one_splitting_scheme():
    # one stepped scheme, Yoshida's: its constants live in dynamics, and only
    # the stepping loop turns them into stage lengths
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    scaled = [f"{stem}.{name}" for stem, tree in trees.items()
              for name in _holders(tree, _scales_splitting_constant)]
    assert scaled == ["dynamics._planar_flow"]
    defined = {stem: _splitting_definitions(tree) for stem, tree in trees.items()}
    assert {stem: names for stem, names in defined.items() if names} == {"dynamics": _SPLITTING}


@pytest.mark.parametrize(
    "source, scaled, defined",
    [
        ("def f(h):\n    return _DRIFT_OUT * h, h * _W0", ["f"], set()),
        ("def g(mid):\n    return dynamics._W1 * (0.5 * mid)", ["g"], set()),
        ("_W1 = 1.35\n_DRIFT_IN = 0.5 * (_W0 + _W1)", [], {"_W1", "_DRIFT_IN"}),
        ("def k(h, w):\n    return 0.5 * _W1, h * w", [], set()),
    ],
    ids=["stage_lengths", "attribute", "definitions", "not_a_step"],
)
def test_splitting_stages_are_detected(source, scaled, defined):
    tree = ast.parse(source)
    assert (_holders(tree, _scales_splitting_constant), _splitting_definitions(tree)) == (
        scaled, defined)


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .quadrature import integrate", True),
        ("from . import elliptic, quadrature", True),
        ("def f():\n    from starktoric.quadrature import integrate", True),
        ("import starktoric.quadrature as q", True),
        ("from starktoric import quadrature", True),
        ("from .elliptic import _k_dlog\nimport numpy.polynomial", False),
    ],
    ids=["relative_from", "relative_module", "local", "absolute", "absolute_module", "other"],
)
def test_quadrature_imports_are_detected(source, found):
    assert _imports(ast.parse(source), "quadrature") is found


def _names_imported_from(tree: ast.AST, module: str) -> set[str]:
    """Every name imported from the package's ``module``, relatively or absolutely."""
    return {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"starktoric.{module}")
        for alias in node.names
    }


def _called_names(tree: ast.AST, module: str, own: bool = False) -> set[str]:
    """Every name that code calls from the package's ``module``: x.f(...) of
    any x, and f(...) of a name f imported from the module, or of any name
    where the code is the module itself (``own``)."""
    imported = _names_imported_from(tree, module)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            elif isinstance(node.func, ast.Name) and (own or node.func.id in imported):
                called.add(node.func.id)
    return called


# the callers that count: the package, the acceptance criteria and the benchmark's worker
CALLERS = [*MODULES, Path(__file__).resolve().parent / "test_acceptance.py",
           SRC.parent / "perfbench" / "worker.py"]
# ROADMAP item 21 maps a physical (field, energy) pair through rescale_state;
# until then it has no caller
UNCALLED = {"stark_model.rescale_state"}


@pytest.mark.parametrize("layer", ["elliptic", "periods", "toric_profile", "levi_civita",
                                   "stark_model", "dynamics", "quadrature"])
def test_every_export_has_a_caller(layer):
    # a public function that no layer, acceptance criterion or benchmark op calls goes
    module = importlib.import_module(f"starktoric.{layer}")
    called = set().union(*(
        _called_names(ast.parse(p.read_text(encoding="utf-8")), layer, own=p.stem == layer)
        for p in CALLERS
    ))
    functions = [name for name in module.__all__ if inspect.isfunction(getattr(module, name))]
    assert [f"{layer}.{name}" for name in functions
            if name not in called and f"{layer}.{name}" not in UNCALLED] == []


@pytest.mark.parametrize(
    "source, own, found",
    [
        ("from .periods import tau1, tau2\ntau1(eps, c)", False, {"tau1"}),
        ("from starktoric import toric_profile as tp\ntp.moment_image(eps, c)", False,
         {"moment_image"}),
        ("def phi(x):\n    return x\nphi(0.5)", False, set()),
        ("def phi(x):\n    return x\nphi(0.5)", True, {"phi"}),
        ("from .periods import tau2\nf = tau2\n", False, set()),
    ],
    ids=["imported", "attribute", "same_name_elsewhere", "own_module", "not_called"],
)
def test_calls_are_detected(source, own, found):
    assert _called_names(ast.parse(source), "periods", own) == found


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .elliptic import _agm, ellip_k", {"_agm", "ellip_k"}),
        ("def f():\n    from starktoric.elliptic import ellip_k_d1", {"ellip_k_d1"}),
        ("from . import elliptic\nfrom .periods import tau1\nimport starktoric.elliptic", set()),
    ],
    ids=["relative", "absolute_local", "modules_only"],
)
def test_names_imported_from_are_detected(source, found):
    assert _names_imported_from(ast.parse(source), "elliptic") == found


def test_elliptic_exports_no_oracle():
    from starktoric import elliptic

    assert not [name for name in elliptic.__all__ if "oracle" in name]


def _caught_names(tree: ast.AST) -> set[str]:
    """The bare names that the except clauses below tree catch."""
    caught = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {t.id for t in types if isinstance(t, ast.Name)}
    return caught


def test_every_exception_class_is_an_error_family_that_the_cli_catches():
    # the exit-code contract names two ways to fail, each with its own
    # class; a class that only the tests catch by name goes
    defined = []
    for path in MODULES:
        name = "starktoric" if path.stem == "__init__" else f"starktoric.{path.stem}"
        defined += [f"{path.stem}.{cls}" for cls, obj in vars(importlib.import_module(name)).items()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == name]
    assert sorted(defined) == ["errors.DomainError", "errors.NumericsError"]
    tree = ast.parse((SRC / "starktoric" / "cli.py").read_text(encoding="utf-8"))
    (main,) = (node for node in tree.body if getattr(node, "name", None) == "main")
    assert {"DomainError", "NumericsError"} <= _caught_names(main)


@pytest.mark.parametrize(
    "source, found",
    [
        ("try:\n    f()\nexcept (DomainError, errors.X) as exc:\n    pass", {"DomainError"}),
        ("try:\n    f()\nexcept NumericsError:\n    pass\nexcept:\n    pass", {"NumericsError"}),
        ("raise DomainError('x')", set()),
    ],
    ids=["tuple", "bare_and_catch_all", "raise_only"],
)
def test_caught_names_are_detected(source, found):
    assert _caught_names(ast.parse(source)) == found


_CONVERSION_ERRORS = {"TypeError", "ValueError", "OverflowError"}


def _catches_a_failed_conversion(node: ast.AST) -> bool:
    """An except clause that names TypeError, ValueError or OverflowError."""
    return isinstance(node, ast.ExceptHandler) and bool(_caught_names(node) & _CONVERSION_ERRORS)


def _calls_the_conversion(node: ast.AST) -> bool:
    """A call of _floats, bare or as a module attribute."""
    return isinstance(node, ast.Call) and \
        getattr(node.func, "id", getattr(node.func, "attr", None)) == "_floats"


def test_one_conversion_of_outside_numbers():
    # stark_model._floats turns every outside argument into floats, and only
    # it, the integer check and the CLI's argparse type catch a failed
    # conversion: a second converter would have to catch one too
    assert _holders_in_package(_catches_a_failed_conversion) == [
        "cli._float_list", "stark_model._floats", "stark_model.check_count"]
    assert _holders_in_package(_calls_the_conversion) == [
        "elliptic._checked", "stark_model.check_real", "stark_model.check_real_array",
        "stark_model.check_pair"]


@pytest.mark.parametrize(
    "source, catches, calls",
    [
        ("def f(x):\n    try:\n        return float(x)\n    except (TypeError, ValueError):\n"
         "        raise DomainError(x)", ["f"], []),
        ("def g(x):\n    try:\n        return int(x)\n    except OverflowError:\n        pass",
         ["g"], []),
        ("def h(m):\n    return _floats(m, 'm', 'real'), stark_model._floats(m, 'm', 'real')",
         [], ["h"]),
        ("def k(x):\n    try:\n        return floats(x)\n    except (DomainError, OSError):\n"
         "        pass", [], []),
    ],
    ids=["tuple", "overflow", "conversion", "other"],
)
def test_conversions_are_detected(source, catches, calls):
    tree = ast.parse(source)
    assert (_holders(tree, _catches_a_failed_conversion), _holders(tree, _calls_the_conversion)) == (
        catches, calls)


def _evaluates_quartic(node: ast.AST) -> bool:
    """float_power(...), bare or as an attribute, or anything ** 4."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None)) == "float_power"
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
        and isinstance(node.right, ast.Constant) and node.right.value == 4


def _product_factors(node: ast.AST) -> list:
    """The factors of a product, its parentheses flattened."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _product_factors(node.left) + _product_factors(node.right)
    return [node]


def _is_eight(node: ast.AST) -> bool:
    """The constant 8 or -8."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 8


def _scales_eps_by_eight(node: ast.AST) -> bool:
    """A product with the factors eps and 8 or -8: the kernel argument
    x = -+8 eps c, or the separatrix energy 1/(8 eps)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    factors = _product_factors(node)
    return any(getattr(f, "id", None) == "eps" for f in factors) and any(map(_is_eight, factors))


def _separatrix_comparison(node: ast.AST) -> bool:
    """A comparison with 8 eps inside an operand, as in e >= 1/(8 eps)."""
    return isinstance(node, ast.Compare) and any(
        _scales_eps_by_eight(sub) for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)
    )


def _holders_in_package(test) -> list[str]:
    return [
        f"{p.stem}.{name}" for p in MODULES
        for name in _holders(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), test)
    ]


def test_one_home_for_each_factor_invariant():
    # levi_civita evaluates the factor energies; periods forms the kernel
    # argument x = -+8 eps c and tests x < 1, and every other module calls them
    assert _holders_in_package(_evaluates_quartic) == ["levi_civita._factor_energy"]
    assert _holders_in_package(_scales_eps_by_eight) == ["periods._kernel_arg"]
    assert [f for f in _holders_in_package(_separatrix_comparison)
            if not f.startswith("periods.")] == []


@pytest.mark.parametrize(
    "source, quartic, scaled, compared",
    [
        ("def f(z, w, eps):\n    return 0.5 * w * w - 0.5 * eps * z ** 4", ["f"], [], []),
        ("def g(z):\n    return np.float_power(z, 4)", ["g"], [], []),
        ("def h(eps, c):\n    return -8.0 * eps * c, 8.0 * (eps * c)", [], ["h"], []),
        ("def k(e, eps):\n    return 8.0 * e * eps < 1.0", [], ["k"], ["k"]),
        ("def m(e, eps):\n    return e >= 1.0 / (8.0 * eps)", [], ["m"], ["m"]),
        ("def n(z, x, eps, c):\n    return z ** 3, 2.0 * eps * c, 8.0 * c, x < 1.0", [], [], []),
    ],
    ids=["power", "float_power", "kernel_arg", "kernel_arg_test", "separatrix_energy", "other"],
)
def test_factor_invariants_are_detected(source, quartic, scaled, compared):
    tree = ast.parse(source)
    assert (_holders(tree, _evaluates_quartic), _holders(tree, _scales_eps_by_eight),
            _holders(tree, _separatrix_comparison)) == (quartic, scaled, compared)


_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
               ast.GeneratorExp)


def _loops(tree: ast.AST) -> list[str]:
    """The node type of every loop: a for or while statement or a comprehension."""
    return [type(node).__name__ for node in ast.walk(tree) if isinstance(node, _LOOP_NODES)]


def test_stark_model_has_no_loop():
    # the Hill region is closed form: no component labeller and no grid
    # refinement loop
    path = SRC / "starktoric" / "stark_model.py"
    assert _loops(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("for n in (256, 512):\n    pass", ["For"]),
        ("def f(parent, i):\n    while parent[i] != i:\n        i = parent[i]", ["While"]),
        ("roots = [find(i) for i in range(n)]", ["ListComp"]),
        ("a = {i: 0 for i in x}, {i for i in x}", ["DictComp", "SetComp"]),
        ("ok = any(v > 0 for v in x)", ["GeneratorExp"]),
        ("ok = bool((b[1:] & u[:-1]).any() or (b[:, 1:] & u[:, :-1]).any())", []),
    ],
    ids=["for", "while", "list", "dict_set", "generator", "shifted_and"],
)
def test_loops_are_detected(source, found):
    assert _loops(ast.parse(source)) == found
