"""Exception types shared across the crackid package."""


class CrackidError(Exception):
    """Base class for all crackid errors."""


class InterfaceTooClose(CrackidError):
    """Breaking line comes within the safety margin of the outer boundary."""


class DegenerateElement(CrackidError):
    """A generated or supplied triangle has (near-)zero or negative area."""


class InvalidPoisson(CrackidError):
    """Poisson ratio outside (0, 0.5)."""


class NotPositiveDefinite(CrackidError):
    """Linear system is singular or indefinite on its free dofs."""


class NumericalOverflow(CrackidError):
    """A system matrix or load vector is not finite in double precision."""


class NoConvergence(CrackidError):
    """Nonlinear interface solver failed to reach its tolerance."""


class BoundViolated(CrackidError):
    """A constitutive law violates one of its analytic bounds.

    Carries the offending sample point in ``args[1]`` when available.
    """

    def __init__(self, message, s=None):
        super().__init__(message, s)
        self.s = s


class MissingAdjacentTriangle(CrackidError):
    """An interface edge has no triangle on one of its sides."""


class ConfigError(CrackidError):
    """Experiment configuration file is missing or inconsistent."""
