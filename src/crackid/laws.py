"""Constitutive interface laws: friction, cohesion and normal-compliance penalty.

Each law exists in a discrete variant (piecewise linear/constant), the one
the solvers use. The penalty and friction laws also have a smooth variant,
whose analytic bounds ``smooth_law_bounds_check`` verifies. All functions
are vectorised over numpy arrays and stateless; the penalty laws take eps
as a plain float, which ``driver.ExperimentConfig`` has already checked.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated

@dataclass(frozen=True)
class CohesiveParams:
    """Friction/cohesion parameters.

    F_b     friction bound (stress)
    delta   friction smoothing length (> 0, only the smooth law uses it)
    K_c     fracture-toughness scale (stress * length)
    kappa   cohesion length scale (> 0)
    """

    F_b: float = 1.0e-5
    delta: float = 1.0e-3
    K_c: float = 1.0e-3
    kappa: float = 1.0e-2

    def __post_init__(self):
        # written so that a NaN fails each check
        if not np.all(np.isfinite([self.F_b, self.delta, self.K_c, self.kappa])):
            raise ValueError("friction and cohesion parameters must be finite")
        if not (self.F_b >= 0.0 and self.K_c >= 0.0):
            raise ValueError("F_b and K_c must be nonnegative")
        if not (self.delta > 0.0 and self.kappa > 0.0):
            raise ValueError("delta and kappa must be positive")


# ----------------------------------------------------------------------
# Penalty law (normal compliance)
# ----------------------------------------------------------------------

def beta_smooth(s, eps):
    """C^1 mollified penalty: s/eps below -eps, -exp(2(s+eps)/(s-eps))
    on [-eps, eps), zero above. Concave, nondecreasing, <= 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    lo = s < -eps
    mid = (s >= -eps) & (s < eps)
    out[lo] = s[lo] / eps
    with np.errstate(under="ignore"):
        out[mid] = -np.exp(2.0 * (s[mid] + eps) / (s[mid] - eps))
    return out


def beta_smooth_prime(s, eps):
    """Derivative of beta_smooth; lies in [0, 1/eps]."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    lo = s < -eps
    mid = (s >= -eps) & (s < eps)
    out[lo] = 1.0 / eps
    d = s[mid] - eps
    with np.errstate(under="ignore"):
        out[mid] = 4.0 * eps * np.exp(2.0 * (s[mid] + eps) / d) / (d * d)
    return out


def beta_discrete(s, eps):
    """Discrete penalty min(0, s)/eps; -inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.minimum(0.0, np.asarray(s, dtype=float)) / eps


def beta_discrete_prime(s, eps):
    """Derivative of the discrete penalty: 1/eps on {s < 0}, else 0.

    The convention beta'(0) = 0 keeps the penalty inactive exactly on the
    contact-free set.
    """
    return np.where(np.asarray(s, dtype=float) < 0.0, 1.0 / eps, 0.0)


# ----------------------------------------------------------------------
# Friction law
# ----------------------------------------------------------------------

def friction_smooth_prime(s, params):
    s = np.asarray(s, dtype=float)
    # numpy's ** rounds as Python's, but overflows to inf, not an OverflowError
    return params.F_b * s / np.sqrt(np.float64(params.delta) ** 2 + s * s)


def friction_smooth_second(s, params):
    s = np.asarray(s, dtype=float)
    d2 = np.float64(params.delta) ** 2
    return params.F_b * d2 / (d2 + s * s) ** 1.5


def friction_discrete_prime(s, params):
    """Discrete friction traction F_b * sgn(s), with sgn(0) = 0."""
    return params.F_b * np.sign(np.asarray(s, dtype=float))


# ----------------------------------------------------------------------
# Cohesion law
# ----------------------------------------------------------------------

def cohesion_discrete_prime(s, params):
    """Discrete cohesive traction (K_c/kappa) * ind{|s| < kappa}.

    Half-open at |s| = kappa, consistent with the a.e. derivative of
    (K_c/kappa) * min(kappa, |s|).
    """
    s = np.asarray(s, dtype=float)
    return (params.K_c / params.kappa) * (np.abs(s) < params.kappa)


# ----------------------------------------------------------------------
# Bounds check
# ----------------------------------------------------------------------

@dataclass
class LawBoundsReport:
    sample_count: int
    max_friction_prime: float
    max_friction_second: float
    max_beta_offset: float


def smooth_law_bounds_check(params, eps):
    """Verify the analytic bounds of the smooth laws, at the friction and
    cohesion ``params`` and the penalty eps > 0, on a sampled grid of
    10 000 points per law.

    Checks, with K_f1 = F_b, K_f2 = F_b/delta and K_beta = K_beta1 = 1:
      |alpha_f'| <= K_f1,     |alpha_f''| <= K_f2,
      |beta(s) + [s]^-/eps| <= 1,    0 <= beta' <= 1/eps,
      beta(s)[s]^+ >= -eps,   beta(s)[s]^- <= -([s]^-)^2/eps + eps.

    Raises BoundViolated with the first offending sample of the first
    failed check. A NaN value fails, and so do a sample or a bound that is
    not finite: an overflow never passes, nor warns.
    """
    sample_count = 10_000
    tol = 1e-12  # roundoff slack on the closed-form bounds

    with np.errstate(all="ignore"):   # what overflows fails below instead
        s_pen = np.linspace(-10.0 * eps, 10.0 * eps, sample_count)
        b = np.asarray(beta_smooth(s_pen, eps), dtype=float)
        bp = np.asarray(beta_smooth_prime(s_pen, eps), dtype=float)
        s_neg = np.maximum(0.0, -s_pen)
        offset = np.abs(b + s_neg / eps)
        comp_minus = b * s_neg - (-(s_neg**2) / eps + eps)
        s_fric = np.linspace(-10.0 * params.delta, 10.0 * params.delta, sample_count)
        fp = np.abs(friction_smooth_prime(s_fric, params))
        fpp = np.abs(friction_smooth_second(s_fric, params))
        checks = (
            ("|beta + [s]^-/eps| exceeds K_beta = 1", s_pen, offset, 1.0 + tol),
            ("beta' outside [0, 1/eps]", s_pen, -bp, tol / eps),
            ("beta' outside [0, 1/eps]", s_pen, bp, (1.0 + tol) / eps),
            ("beta(s)[s]^+ below -eps", s_pen, -b * np.maximum(0.0, s_pen),
             eps * (1.0 + tol)),
            ("beta(s)[s]^- above -([s]^-)^2/eps + eps", s_pen, comp_minus, eps * tol),
            ("|alpha_f'| exceeds K_f1 = F_b", s_fric, fp, params.F_b * (1.0 + tol)),
            ("|alpha_f''| exceeds K_f2 = F_b/delta", s_fric, fpp,
             params.F_b / params.delta * (1.0 + tol)),
        )
    for message, s, value, bound in checks:
        finite = np.isfinite(s) & np.isfinite(bound)
        ok = finite & (value <= bound)
        if not ok.all():
            i = int(np.argmin(ok))
            if not finite[i]:
                message += ": sample or bound not finite"
            raise BoundViolated(message, float(s[i]))

    return LawBoundsReport(
        sample_count=sample_count,
        max_friction_prime=float(fp.max()),
        max_friction_second=float(fpp.max()),
        max_beta_offset=float(offset.max()),
    )
