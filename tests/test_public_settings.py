"""The per-call tolerance and solver settings of the public API and the source.

Checks read their tolerances from ``relkin.config.TOL``; a parameter that
overrides one exists only where a caller sets it.  A new one shows up here
as an edit to ``KEPT``, or, for a private function, to ``PRIVATE_KEPT``.
"""
import ast
import inspect
from pathlib import Path

import relkin

KNOBS = {"tol", "tol_drift", "residual", "max_newton"}

KEPT = {
    ("SpatialRotation.__init__", "tol"),      # three callers, three values
    ("LorentzMap.is_lorentz", "tol"),         # predicates: the tolerance is the question
    ("LorentzMap.is_antisymmetric", "tol"),
    ("transport_path", "tol_drift"),          # the CLI's --tol
    ("precession_series", "tol_drift"),
}


def public_callables():
    """Every exported function, and each exported class's constructor and public methods."""
    for name in relkin.__all__:
        obj = getattr(relkin, name)
        if inspect.isclass(obj):
            yield obj.__init__
            yield from (m for k, m in inspect.getmembers(obj, callable) if not k.startswith("_"))
        elif callable(obj):
            yield obj


def test_only_the_kept_settings_remain():
    found = {
        (fn.__qualname__, param)
        for fn in public_callables()
        if (getattr(fn, "__module__", None) or "").startswith("relkin")
        for param in inspect.signature(fn).parameters
        if param in KNOBS
    }
    assert found == KEPT


#: private functions that take a tolerance: the callers of each need different values
PRIVATE_KEPT = {
    ("_orthogonal", "tol"),             # TOL.constraint, and TOL.drift when observing
    ("_require_drift", "tol"),          # the caller's tol_drift, for RK4 and exact states
    ("_path_rows", "tol_drift"),        # transport_path's and precession_series's tol_drift
    ("run_scenario", "tol"),            # the CLI's --tol, down to the runners
    ("_run_boost_compose", "tol"),
    ("_run_circular_thomas", "tol"),
    ("_run_transport", "tol"),
    ("_run_precess", "tol"),
}


def tolerance_parameters(tree: ast.AST, prefix: str = ""):
    """(qualified name, parameter) of every function in the tree that takes a tol or tol_drift."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in {"tol", "tol_drift"}:
                        yield name, arg.arg
            yield from tolerance_parameters(node, name + ".")


def test_only_the_kept_tolerance_parameters_remain_in_the_source():
    # every other check reads TOL where it compares
    found = set()
    for path in sorted(Path(relkin.__file__).parent.glob("*.py")):
        found |= set(tolerance_parameters(ast.parse(path.read_text())))
    assert found == KEPT | PRIVATE_KEPT
