"""Default numerical tolerances.

Every check in the package accepts an explicit tolerance argument; when it
is omitted the check falls back to the corresponding field of the
module-level ``TOL`` instance.  The package never assigns to ``TOL``: the
CLI passes ``--tol`` down as an argument, so concurrent runs with
different tolerances do not interfere.
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
