"""Coordinate-free special-relativity kinematics.

Absolute Lorentz boosts between four-velocities, the residual rotation of
boost chains, Fermi-Walker transport of gyroscopic vectors with an exact
circular-orbit operator, and the precession any inertial frame observes.
Everything is exact linear algebra on four-vectors in natural units
(c = 1, signature -+++).  The one numerical engine is a fixed-step RK4
propagator, cross-validated against closed forms; the Lorentz exponential
is itself a closed form, with a series only for near-null generators.
"""

from .boosts import (
    Boost,
    SpatialRotation,
    boost,
    coplanar,
    gamma_factor,
    relative_acceleration,
    relative_velocity,
    rotation_angle_axis,
    thomas_rotation_discrete,
)
from .config import TOL, Tolerances
from .errors import (
    ConstraintViolation,
    DriftViolation,
    KinematicsError,
    ScenarioError,
    VelocityMismatch,
)
from .minkowski import (
    BASIS,
    E0,
    E1,
    E2,
    E3,
    METRIC,
    ZERO,
    AbsoluteVelocity,
    FourVector,
    LorentzMap,
    antisymmetric_magnitude,
    exp_map,
    lorentz_dot,
    orthonormal_spatial_frame,
    project_spatial,
    wedge,
)
from .precession import (
    FrameInstant,
    PrecessionSample,
    SpecialInstantPair,
    central_frame_precession,
    initial_frame_special_instants,
    observe_gyroscope,
    precession_rate,
    precession_series,
    rate_components,
)
from .transport import (
    GyroState,
    ThomasAngle,
    circular_thomas_angle,
    circular_transport_generator,
    fermi_walker_derivative,
    thomas_rotation_circular,
    thomas_rotation_general,
    transport_circular_exact,
    transport_numeric,
    transport_operator_numeric,
    transport_path,
)
from .worldlines import (
    CircularWorldLine,
    InertialWorldLine,
    WorldLine,
    frame_time_of_proper_time,
    proper_time_of_frame_time,
)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteVelocity",
    "BASIS",
    "Boost",
    "CircularWorldLine",
    "ConstraintViolation",
    "DriftViolation",
    "E0",
    "E1",
    "E2",
    "E3",
    "FourVector",
    "FrameInstant",
    "GyroState",
    "InertialWorldLine",
    "KinematicsError",
    "LorentzMap",
    "METRIC",
    "PrecessionSample",
    "ScenarioError",
    "SpatialRotation",
    "SpecialInstantPair",
    "ThomasAngle",
    "TOL",
    "Tolerances",
    "VelocityMismatch",
    "WorldLine",
    "ZERO",
    "antisymmetric_magnitude",
    "boost",
    "central_frame_precession",
    "circular_thomas_angle",
    "circular_transport_generator",
    "coplanar",
    "exp_map",
    "fermi_walker_derivative",
    "frame_time_of_proper_time",
    "gamma_factor",
    "initial_frame_special_instants",
    "lorentz_dot",
    "observe_gyroscope",
    "orthonormal_spatial_frame",
    "precession_rate",
    "precession_series",
    "project_spatial",
    "proper_time_of_frame_time",
    "rate_components",
    "relative_acceleration",
    "relative_velocity",
    "rotation_angle_axis",
    "thomas_rotation_circular",
    "thomas_rotation_discrete",
    "thomas_rotation_general",
    "transport_circular_exact",
    "transport_numeric",
    "transport_operator_numeric",
    "transport_path",
    "wedge",
]
