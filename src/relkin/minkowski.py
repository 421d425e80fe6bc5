"""Minkowski vector space with signature (-,+,+,+) in natural units (c = 1).

Conventions fixed here and assumed by every other module:

* the basis (e0, e1, e2, e3) is orthonormal, e0 timelike, e1..e3 spacelike,
  and is declared positively oriented;
* the Lorentz product of x and y is  -x0*y0 + x1*y1 + x2*y2 + x3*y3;
* four-velocities square to -1 and have a positive time component;
* time and length share one scalar unit, so velocities are dimensionless
  and spatial speeds are bounded by 1.

Tensor conventions:  (a (x) b) x = a (b . x)  and the wedge map acts as
(x ^ y) z = x (y . z) - y (x . z), all dots being Lorentz products.
"""
from __future__ import annotations

import math

import numpy as np

from .config import TOL
from .errors import ConstraintViolation

#: Metric matrix of the Lorentz form in the fixed basis.
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)

#: decorates the public arithmetic whose overflow reaches a finiteness check, so the inf
#: or NaN is rejected there without a numpy warning first; numpy's decorator form is
#: reentrant, a ``with`` on this one instance is not
_silent_overflow = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class FourVector:
    """Spacetime vector, stored as four real components in the fixed basis."""

    __slots__ = ("components",)

    def __init__(self, components):
        arr = np.array(components, dtype=float)  # a copy, frozen below
        if arr.shape != (4,):
            raise ConstraintViolation(
                f"a four-vector needs exactly 4 components, got shape {arr.shape}"
            )
        if not all(map(math.isfinite, arr.tolist())):
            raise ConstraintViolation("four-vector components must be finite")
        arr.setflags(write=False)
        self.components = arr

    def norm(self) -> float:
        """Euclidean magnitude of a spacelike vector.

        The Lorentz square of a spacelike vector is non-negative; tiny
        negative values from roundoff are clamped to zero, genuinely
        timelike vectors are rejected.
        """
        return _norm(self.components.tolist(), type(self).__name__)

    @_silent_overflow
    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.components + other.components)

    @_silent_overflow
    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.components - other.components)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.components)

    @_silent_overflow
    def __mul__(self, scalar: float) -> "FourVector":
        return FourVector(self.components * float(scalar))

    __rmul__ = __mul__

    @_silent_overflow
    def __truediv__(self, scalar: float) -> "FourVector":
        return FourVector(self.components / float(scalar))

    def __repr__(self) -> str:
        return _text(self.components.tolist(), type(self).__name__)


def _text(c, name: str = "FourVector") -> str:
    # the repr of a four-vector of class ``name`` with components c
    return f"{name}({', '.join(format(v, '.6g') for v in c)})"


def _norm(c, name: str = "FourVector") -> float:
    # FourVector.norm of four floats c, the components of a ``name``
    sq = _mdot(c, c)
    if not math.isfinite(sq):
        raise ConstraintViolation(f"the Lorentz square of {_text(c, name)} overflows")
    if sq < -TOL.constraint * max(1.0, max(map(abs, c)) ** 2):
        raise ConstraintViolation(f"norm of a timelike vector (square = {sq})")
    return math.sqrt(max(sq, 0.0))


class AbsoluteVelocity(FourVector):
    """Future-directed four-velocity: u.u = -1 and positive time component."""

    __slots__ = ()

    def __init__(self, components):
        super().__init__(components)
        sq = lorentz_dot(self, self)
        if not abs(sq + 1.0) <= TOL.constraint:  # a NaN square fails too
            raise ConstraintViolation(f"four-velocity must square to -1, got {sq}")
        if self.components[0] <= 0.0:
            raise ConstraintViolation("four-velocity must be future directed")

    @classmethod
    def from_3velocity(cls, v3) -> "AbsoluteVelocity":
        """Four-velocity of a point moving with spatial velocity ``v3``
        relative to the base frame e0.  Requires |v3| < 1."""
        v3 = np.asarray(v3, dtype=float)
        if v3.shape != (3,):
            raise ConstraintViolation("3-velocity needs exactly 3 components")
        with np.errstate(over="ignore"):  # an overflow gives inf, which the check rejects
            speed_sq = float(v3 @ v3)
        if speed_sq >= 1.0:
            raise ConstraintViolation(f"speed must be below 1, got |v| = {math.sqrt(speed_sq)}")
        gamma = 1.0 / math.sqrt(1.0 - speed_sq)
        return cls([gamma, gamma * v3[0], gamma * v3[1], gamma * v3[2]])

    @classmethod
    def rest(cls) -> "AbsoluteVelocity":
        """The base frame velocity e0."""
        return _REST


class LorentzMap:
    """Linear map on Minkowski space stored as a 4x4 real array.

    Composition is array multiplication; ``A(x)`` applies the map to a
    four-vector.  Scalar multiples, sums and negation are provided so that
    antisymmetric generators form the expected algebra.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)  # a copy, frozen below
        if m.shape != (4, 4):
            raise ConstraintViolation(f"a Lorentz map needs a 4x4 array, got {m.shape}")
        if not all(map(math.isfinite, m.ravel().tolist())):
            raise ConstraintViolation("map entries must be finite")
        m.setflags(write=False)
        self.matrix = m

    @_silent_overflow
    def __call__(self, x: FourVector) -> FourVector:
        return FourVector(self.matrix @ x.components)

    @_silent_overflow
    def __matmul__(self, other: "LorentzMap") -> "LorentzMap":
        return LorentzMap(self.matrix @ other.matrix)

    @_silent_overflow
    def __add__(self, other: "LorentzMap") -> "LorentzMap":
        return LorentzMap(self.matrix + other.matrix)

    @_silent_overflow
    def __sub__(self, other: "LorentzMap") -> "LorentzMap":
        return LorentzMap(self.matrix - other.matrix)

    def __neg__(self) -> "LorentzMap":
        return LorentzMap(-self.matrix)

    @_silent_overflow
    def __mul__(self, scalar: float) -> "LorentzMap":
        return LorentzMap(self.matrix * float(scalar))

    __rmul__ = __mul__

    @_silent_overflow
    def is_lorentz(self, tol: float | None = None) -> bool:
        """True when the map preserves the Lorentz form on the fixed basis."""
        tol = TOL.constraint if tol is None else tol
        return bool(_form_error(self.matrix) <= tol)

    @_silent_overflow
    def is_antisymmetric(self, tol: float | None = None) -> bool:
        """True when (Ax).y = -x.(Ay) on the fixed basis."""
        tol = TOL.constraint if tol is None else tol
        residual = METRIC @ self.matrix + self.matrix.T @ METRIC
        return float(np.max(np.abs(residual))) <= tol

    def __repr__(self) -> str:
        return f"{type(self).__name__}({np.array2string(self.matrix, precision=6)})"


def _vector(components: np.ndarray) -> FourVector:
    # a FourVector of checked, read-only components, without the constructor's copy and checks
    out = FourVector.__new__(FourVector)
    out.components = components
    return out


def _map(matrix: np.ndarray) -> LorentzMap:
    # a LorentzMap of a checked, read-only matrix, without the constructor's copy and checks
    out = LorentzMap.__new__(LorentzMap)
    out.matrix = matrix
    return out


def lorentz_dot(x: FourVector, y: FourVector) -> float:
    """Lorentz product -x0*y0 + x1*y1 + x2*y2 + x3*y3.

    The summation order is fixed, so the result is exactly symmetric in
    its arguments.
    """
    # on Python floats, which overflow to inf or nan without a numpy warning
    return _mdot(x.components.tolist(), y.components.tolist())


def _form_error(m: np.ndarray):
    """Largest entry of |m^T G m - G|: how far m is from preserving the Lorentz form.

    A float for one [4, 4] map, one value per map for an [n, 4, 4] stack, with
    the same bits: stacked ``np.matmul`` makes each map's own BLAS call.  NaN
    where a map's entries are, so a check ``not _form_error(m) <= tol`` rejects it.
    """
    return np.abs(np.swapaxes(m, -1, -2) @ METRIC @ m - METRIC).max(axis=(-2, -1))


def _carry_error(m: np.ndarray, x, y):
    # largest component of |m x - y|, how far m is from carrying x onto y: for one map and
    # four components x, or per map of a stack and [n, 4] rows x, in the same bits
    return np.abs((m @ np.asarray(x)[..., None])[..., 0] - y).max(axis=-1)


def _orthogonal(v, z, tol: float):
    # |v.z| <= tol max(1, max |z|), z a space vector of v: for four floats, or per column of
    # [4, n] columns; a NaN fails.  tol is TOL.constraint, or TOL.drift when observing
    return abs(_mdot(v, z)) <= tol * np.maximum(1.0, np.abs(z).max(axis=0))


def _mdot(a, b) -> float:
    # Lorentz product of raw arrays or 4-float tuples, in lorentz_dot's order
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def project_spatial(u: AbsoluteVelocity, x: FourVector) -> FourVector:
    """Project ``x`` onto the space vectors of the frame ``u``.

    Returns x + u (u.x), the component of x orthogonal to u; idempotent.
    """
    return FourVector(x.components + u.components * lorentz_dot(u, x))


def wedge(x: FourVector, y: FourVector) -> LorentzMap:
    """Antisymmetric map z -> x (y.z) - y (x.z).

    Generates rotations when x, y are spacelike and boosts when one of
    them is timelike.
    """
    return LorentzMap(_wedge(x.components.tolist(), y.components.tolist()))


def _lowered(x) -> tuple:
    # METRIC @ x for four floats, or four per-row arrays; adding 0.0 signs its zeros as
    # numpy's product does
    return -x[0] + 0.0, x[1] + 0.0, x[2] + 0.0, x[3] + 0.0


def _wedge(a, b, k=1.0) -> list[list]:
    # k (outer(a, G b) - outer(b, G a)) entry by entry as numpy forms it, as nested lists;
    # a and b are four floats or [4, n] columns with n factors k; k = 1.0 is exact
    ga, gb = _lowered(a), _lowered(b)
    return [[(ai * gbj - bi * gaj) * k for gaj, gbj in zip(ga, gb)] for ai, bi in zip(a, b)]


def _rows(x) -> np.ndarray:
    # the [n, ...] array of nested per-row arrays; contiguous, so that stacked np.matmul
    # on it makes each single matrix's BLAS call, slice by slice
    return np.ascontiguousarray(np.moveaxis(np.array(x), -1, 0))


def exp_map(generator: LorentzMap, t: float = 1.0) -> LorentzMap:
    """Exponential e^(t A) of an antisymmetric map, a Lorentz transformation.

    In closed form (Coll & San Jose, Gen. Rel. Grav. 22, 811 (1990)).
    Rejects generators that are not antisymmetric with respect to the
    Lorentz form, since only those exponentiate to form-preserving maps.
    """
    if not generator.is_antisymmetric():
        raise ConstraintViolation("exp_map needs an antisymmetric generator")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # LorentzMap rejects inf and nan
            return LorentzMap(_lorentz_exp(generator.matrix, float(t)))
    except (OverflowError, ValueError) as exc:  # math.sinh overflows, math.sin(inf)
        raise ConstraintViolation(f"exp_map of this generator at t = {t} overflows") from exc


def _lorentz_exp(m: np.ndarray, t: float) -> np.ndarray:
    """e^(t m) for an antisymmetric m, whose eigenvalues are +-a and +-ib.

    p = a^2 - b^2 = 1/2 tr m^2 and q = a^2 b^2 = Pf(G m)^2; the smaller
    square is q over the larger, so neither comes from a cancellation.
    With r = a^2 + b^2, the boost part B = (m^3 + b^2 m)/r and the rotation
    part R = (a^2 m - m^3)/r satisfy B R = 0, so e^(t m) = e^(t R) + e^(t B) - I.
    Where r t^2 < 1 that split loses accuracy, and the Taylor series in
    I, m, m^2, m^3, reduced by m^4 = p m^2 + q I, is summed instead.
    """
    m2 = m @ m
    m3 = m2 @ m
    p = 0.5 * float(np.trace(m2))
    pf = float(m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2])
    q, r = pf * pf, math.hypot(p, 2.0 * abs(pf))
    if not r * t * t >= 1.0:
        c = (1.0, 0.0, 0.0, 0.0)  # coefficients of I, m, m^2, m^3, by Horner's rule
        for k in range(30, 0, -1):
            f = t / k
            c = (1.0 + f * q * c[3], f * c[0], f * (c[1] + p * c[3]), f * c[2])
        return c[0] * np.eye(4) + c[1] * m + c[2] * m2 + c[3] * m3
    big = 0.5 * (r + abs(p))
    a2, b2 = (big, q / big) if p >= 0.0 else (q / big, big)
    out = _elliptic_exp((a2 * m - m3) / r, math.sqrt(b2), t)  # e^(t R)
    a = math.sqrt(a2)
    if a > 0.0:  # plus e^(t B) - I, its cosh - 1 written as 2 sinh^2(a t / 2)
        bp = (m3 + b2 * m) / r
        sh = math.sinh(0.5 * a * t) / a
        out = out + (math.sinh(a * t) / a) * bp + (2.0 * sh * sh) * (bp @ bp)
    return out


def _elliptic_exp(m: np.ndarray, rate: float, t: float) -> np.ndarray:
    # exact exponential for antisymmetric maps with m^3 = -rate^2 m
    if rate == 0.0:
        return np.eye(4)
    ph = rate * t
    return _elliptic_of(m, rate, math.sin(ph), math.cos(ph))


def _elliptic_rows(m: np.ndarray, rate: float, ts) -> np.ndarray:
    # _elliptic_exp at each of the times ts as an [n, 4, 4] stack, libm's sin and cos per
    # time; each slice equals the single call bit for bit (rate must be nonzero)
    phases = [rate * t for t in ts]
    si = np.array([math.sin(ph) for ph in phases])[:, None, None]
    c = np.array([math.cos(ph) for ph in phases])[:, None, None]
    return _elliptic_of(m, rate, si, c)


def _elliptic_of(m: np.ndarray, rate: float, si, c) -> np.ndarray:
    # I + (sin / rate) m + ((1 - cos) / rate^2) m^2, for the phase's sin and cos as floats
    # or as [n, 1, 1] arrays
    return np.eye(4) + (si / rate) * m + ((1.0 - c) / rate ** 2) * (m @ m)


def antisymmetric_magnitude(generator: LorentzMap) -> float:
    """Rotation rate sqrt(1/2 Tr(A* A)) of a rotation-like antisymmetric map.

    Meaningful for generators acting as a rotation on a spacelike plane
    (zero elsewhere); rejects generators whose invariant is negative,
    i.e. boost-dominated ones.
    """
    m = generator.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        sq = 0.5 * float(np.trace((METRIC @ m.T @ METRIC) @ m))
    if not math.isfinite(sq):
        raise ConstraintViolation("generator is too large: its squared magnitude overflows")
    scale = max(1.0, float(np.max(np.abs(m))) ** 2)
    if sq < -TOL.constraint * scale:
        raise ConstraintViolation(f"generator is boost-like, squared magnitude {sq}")
    return math.sqrt(max(sq, 0.0))


def orthonormal_spatial_frame(
    u: AbsoluteVelocity,
) -> tuple[FourVector, FourVector, FourVector]:
    """Orthonormal basis (f1, f2, f3) of the space vectors of frame ``u``.

    Gram-Schmidt on the projections of e1, e2, e3; the projections are
    always independent because u is timelike.  The resulting basis makes
    (u, f1, f2, f3) positively oriented, and reduces to (e1, e2, e3) for
    the base frame.  Runs on floats, each entry in the order of the
    FourVector arithmetic x + u (u.x), f - g (g.f), f / |f|.
    """
    uc = u.components.tolist()
    frame: list[list[float]] = []
    for e in _UNITS[1:]:
        d = _mdot(uc, e)
        f = [ej + uj * d for ej, uj in zip(e, uc)]
        for g in frame:
            d = _mdot(g, f)
            f = [fj - gj * d for fj, gj in zip(f, g)]
        n = _norm(f)
        if n == 0.0:
            raise ConstraintViolation("the space vectors of this velocity are degenerate")
        frame.append([fj / n for fj in f])
    return FourVector(frame[0]), FourVector(frame[1]), FourVector(frame[2])


E0 = FourVector([1.0, 0.0, 0.0, 0.0])
E1 = FourVector([0.0, 1.0, 0.0, 0.0])
E2 = FourVector([0.0, 0.0, 1.0, 0.0])
E3 = FourVector([0.0, 0.0, 0.0, 1.0])
ZERO = FourVector([0.0, 0.0, 0.0, 0.0])
BASIS = (E0, E1, E2, E3)
_UNITS = tuple(e.components.tolist() for e in BASIS)

_REST = AbsoluteVelocity([1.0, 0.0, 0.0, 0.0])
