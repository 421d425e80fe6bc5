"""Numerical tolerances.

Every check in the package reads its tolerance from a field of the
module-level ``TOL`` instance where it compares; the few fixed solver constants
(the discrete Thomas rotation's 1e-10, the frame-time inversion's 1e-12
residual and 50 Newton steps) sit beside the code that uses them.  Per-call
settings remain only where a caller sets them: ``tol_drift`` of
``transport_path`` and ``precession_series`` (the CLI's ``--tol``), the
``tol`` of ``SpatialRotation`` (three callers use three values), and the
``tol`` of the predicates ``LorentzMap.is_lorentz`` and ``is_antisymmetric``,
whose tolerance is the question they answer; privately, ``_orthogonal``
(``constraint``, or ``drift`` when observing) and the drift check that
``transport._path_rows`` hands to ``_rk4``.  The form, carry and orthogonality
residuals are each one kernel in ``minkowski``.
The package never assigns to ``TOL``: the CLI passes ``--tol`` down as an
argument, so concurrent runs with different tolerances do not interfere.
"""
from dataclasses import dataclass


@dataclass
class Tolerances:
    constraint: float = 1e-12       # algebraic identities in double precision
    numeric: float = 1e-10          # matrix exponentials, composed numerics
    drift: float = 1e-8             # conserved-quantity drift along an integration
    rank: float = 1e-10             # relative singular-value cutoff for coplanarity
    velocity_match: float = 1e-9    # endpoint velocity equality for closed-loop rotations
    degenerate_angle: float = 1e-8  # below this angle no rotation axis is reported


TOL = Tolerances()
