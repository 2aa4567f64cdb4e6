"""crackid: breaking-line identification in an elastic rectangle.

A 2D P1 finite-element library and CLI that locates an unknown cohesive
crack interface from boundary displacement measurements by gradient
descent on a penalty-regularised least-squares shape functional with
adjoint-based boundary gradients.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BoundViolated, ConfigError, CrackidError, DegenerateElement,
    InterfaceTooClose, InvalidPoisson, MissingAdjacentTriangle,
    NoConvergence, NotPositiveDefinite, NumericalOverflow,
)
from .geometry import BrokenMesh, InterfaceGraph, build_mesh  # noqa: F401
from .fem import DofField, IsotropicElasticity, lame_from_young  # noqa: F401
from .laws import CohesiveParams  # noqa: F401
from .driver import ExperimentConfig  # noqa: F401
