"""Constitutive law values, derivatives and analytic bounds."""

import numpy as np
import pytest

from crackid import laws
from crackid.errors import BoundViolated
from crackid.laws import CohesiveParams


@pytest.fixture
def params():
    return CohesiveParams(F_b=1e-5, delta=1e-3, K_c=1e-3, kappa=1e-2)


class TestBetaSmooth:
    def test_zero_above_eps(self):
        eps = 0.3
        assert laws.beta_smooth(eps, eps) == 0.0
        assert laws.beta_smooth(2 * eps, eps) == 0.0

    def test_linear_branch(self):
        eps = 0.25
        assert laws.beta_smooth(-2 * eps, eps) == pytest.approx(-2.0, rel=1e-15)

    def test_value_at_zero_is_minus_exp_minus_two(self):
        for eps in (1e-8, 1e-3, 0.5):
            assert laws.beta_smooth(0.0, eps) == pytest.approx(-np.exp(-2.0), rel=1e-14)

    def test_continuity_at_minus_eps(self):
        eps = 0.1
        left = laws.beta_smooth(-eps - 1e-12, eps)
        right = laws.beta_smooth(-eps + 1e-12, eps)
        assert abs(left - right) < 1e-9

    def test_monotone_and_concave_on_grid(self):
        eps = 0.05
        s = np.linspace(-5 * eps, 5 * eps, 4001)
        b = laws.beta_smooth(s, eps)
        d1 = np.diff(b)
        assert np.all(d1 >= -1e-12 * np.max(np.abs(b)))
        d2 = np.diff(b, 2)
        assert np.all(d2 <= 1e-12 * np.max(np.abs(b)))

    def test_prime_matches_finite_differences(self):
        eps = 0.07
        rng = np.random.default_rng(7)
        s = rng.uniform(-3 * eps, 3 * eps, 500)
        # keep clear of the C^1 break points at +-eps
        s = s[(np.abs(s + eps) > 1e-2 * eps) & (np.abs(s - eps) > 1e-2 * eps)]
        step = 1e-7 * eps
        fd = (laws.beta_smooth(s + step, eps) - laws.beta_smooth(s - step, eps)) / (2 * step)
        an = laws.beta_smooth_prime(s, eps)
        scale = np.maximum(np.abs(an), 1e-3 / eps)
        assert np.max(np.abs(an - fd) / scale) < 1e-6

    def test_prime_range(self):
        eps = 0.02
        s = np.linspace(-10 * eps, 10 * eps, 10001)
        bp = laws.beta_smooth_prime(s, eps)
        assert np.all(bp >= 0.0)
        assert np.all(bp <= 1.0 / eps + 1e-9 / eps)


class TestBetaDiscrete:
    def test_values(self):
        eps = 0.5
        assert laws.beta_discrete(-eps, eps) == -1.0
        assert laws.beta_discrete(0.5, eps) == 0.0
        assert laws.beta_discrete_prime(0.5, eps) == 0.0

    def test_small_eps_evaluation(self):
        eps = 1e-8
        assert laws.beta_discrete(-3e-8, eps) == pytest.approx(-3.0, rel=1e-12)
        assert laws.beta_discrete_prime(-3e-8, eps) == pytest.approx(1e8, rel=1e-12)

    def test_zero_convention(self):
        assert laws.beta_discrete_prime(0.0, 1e-4) == 0.0

    def test_discrete_close_to_smooth(self):
        # both laws sit within K_beta = 1 of -[s]^-/eps, so they differ by <= 1
        eps = 1e-3
        s = np.linspace(-20 * eps, 20 * eps, 20001)
        gap = np.abs(laws.beta_discrete(s, eps) - laws.beta_smooth(s, eps))
        assert np.max(gap) <= 1.0 + 1e-12


class TestFrictionCohesion:
    def test_friction_discrete_reference_value(self, params):
        assert laws.friction_discrete_prime(0.2, params) == pytest.approx(1e-5)
        assert laws.friction_discrete_prime(0.0, params) == 0.0
        assert laws.friction_discrete_prime(-0.2, params) == pytest.approx(-1e-5)

    def test_cohesion_discrete_values(self, params):
        assert laws.cohesion_discrete_prime(0.005, params) == pytest.approx(0.1)
        # half-open indicator at |s| = kappa
        assert laws.cohesion_discrete_prime(params.kappa, params) == 0.0
        assert laws.cohesion_discrete_prime(-params.kappa, params) == 0.0

    def test_smooth_friction_limits(self, params):
        s = np.linspace(-0.1, 0.1, 1001)
        slack = 1.0 + 1e-12  # bounds are attained, allow roundoff
        assert np.max(np.abs(laws.friction_smooth_prime(s, params))) <= params.F_b * slack
        assert np.max(laws.friction_smooth_second(s, params)) <= params.F_b / params.delta * slack


class TestBoundsCheck:
    def test_defaults_pass(self, params):
        report = laws.smooth_law_bounds_check(params, 1e-8)
        s = np.linspace(-1e-7, 1e-7, report.sample_count)   # the check's grid
        assert laws.beta_smooth_prime(s, 1e-8).min() >= 0.0
        assert report.max_beta_offset <= 1.0

    def test_endpoint_identity(self):
        # at s = -eps the compliance bound is tight: beta [s]^- = -eps
        eps = 0.3
        b = laws.beta_smooth(-eps, eps)
        assert b * eps == pytest.approx(-eps)
        assert b * eps <= -(eps**2) / eps + eps + 1e-15

    def test_adversarial_beta_rejected(self, params, monkeypatch):
        def bad_beta(s, eps):
            return -2.0 * np.maximum(0.0, -np.asarray(s)) / eps

        monkeypatch.setattr(laws, "beta_smooth", bad_beta)
        with pytest.raises(BoundViolated):
            laws.smooth_law_bounds_check(params, 1e-4)

    def test_adversarial_beta_prime_rejected(self, params, monkeypatch):
        def bad_beta_prime(s, eps):
            return np.full_like(np.asarray(s, dtype=float), 2.0 / eps)

        monkeypatch.setattr(laws, "beta_smooth_prime", bad_beta_prime)
        with pytest.raises(BoundViolated):
            laws.smooth_law_bounds_check(params, 1e-4)


class TestParamValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CohesiveParams(delta=0.0)
