"""The per-call tolerance and solver settings of the public API.

Checks read their tolerances from ``relkin.config.TOL``; a parameter that
overrides one exists only where a caller sets it.  A new one shows up here
as an edit to ``KEPT``.
"""
import inspect

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
