import cmath
import math

import mpmath
import pytest

from superchar.elliptic import (
    divisor_sigma, eisenstein_b, p_bar_constant_series,
    p_bar_eval, p_bar_prime_eval, p_bar_series, super_zeta,
    super_zeta_lemma_residual, wp_lattice_direct, wp_numeric, z_action,
    zeta_bar_eval, zeta_bar_series, zeta_tilde_eval, zeta_tilde_taylor,
)
from superchar.grassmann import EPS, DELTA, GrassmannNumber, odd
from superchar.series_core import EvalPoint, TXSeries

# sigma_1(1..10) and sigma_3(1..8)
SIGMA1 = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
SIGMA3 = [1, 9, 28, 73, 126, 252, 344, 585]

TAU = 0.2 + 1.3j
Q = cmath.exp(2j * cmath.pi * TAU)


def _row_sum(z, k):
    """sum_{n in Z} (z + n)^{-k} via Hurwitz zeta values."""
    return complex(mpmath.zeta(k, z) + (-1) ** k * mpmath.zeta(k, 1 - z))


def b_n_lattice_sum(n, tau, cutoff):
    """Lattice sum for b_n = (2n+1) sum' gamma^{-2n-2} over gamma = m tau + j,
    summed row by row (inner integer direction resummed exactly), matching
    the conditionally convergent prescription for n = 0: the oracle for the
    q-series ``eisenstein_b``."""
    tau = complex(tau)
    k = 2 * n + 2
    total = 2 * complex(mpmath.zeta(k))  # the m = 0 row
    for m in range(1, cutoff + 1):
        total += _row_sum(m * tau, k) + _row_sum(-m * tau, k)
    return (2 * n + 1) * total


def wp_hurwitz_rows(k, tau, alpha, tol=1e-13):
    """sum_{(m,n)} (alpha + m tau + n)^{-k} for k >= 3, each row resummed
    with Hurwitz zeta values until a pair of rows is below ``tol`` of the
    total: the oracle for the Lipschitz shell sum of ``wp_numeric``."""
    total = _row_sum(alpha, k)
    for m in range(1, 5000):
        t = _row_sum(alpha + m * tau, k) + _row_sum(alpha - m * tau, k)
        total += t
        if abs(t) <= tol * max(1.0, abs(total)):
            return total
    raise RuntimeError("lattice row sum failed to converge")


class TestDivisorSigma:
    def test_frozen_values(self):
        assert [divisor_sigma(1, m) for m in range(1, 11)] == SIGMA1
        assert [divisor_sigma(3, m) for m in range(1, 9)] == SIGMA3


class TestEisensteinB:
    def test_constant_terms(self):
        # b_n(q=0) = (2n+1) * 2 zeta(2n+2)
        pt_const = {0: math.pi ** 2 / 3.0,
                    1: math.pi ** 4 / 15.0,
                    2: 2.0 * math.pi ** 6 / 189.0}
        for n, expected in pt_const.items():
            b = eisenstein_b(n, 10)
            assert b.series.coeff(0, 0).real == pytest.approx(expected)

    def test_against_lattice_sum(self):
        # row-resummed lattice sum as an independent oracle
        pt = EvalPoint(TAU, 0.0)
        for n in (0, 1, 2):
            series_val, _ = eisenstein_b(n, 40).evaluate(pt)
            lattice_val = b_n_lattice_sum(n, TAU, 80)
            assert abs(series_val - lattice_val) < 1e-10 * abs(lattice_val)

    def test_lattice_sum_matches_other_tau(self):
        tau = -0.35 + 0.9j
        pt = EvalPoint(tau, 0.0)
        for n in (0, 1):
            series_val, _ = eisenstein_b(n, 60).evaluate(pt)
            lattice_val = b_n_lattice_sum(n, tau, 80)
            assert abs(series_val - lattice_val) < 1e-9 * abs(lattice_val)


class TestAnnulusSeries:
    def test_zeta_bar_rows(self):
        # x^0 row is the single constant -1/2; x^j row is -1 - sum_n q^{nj};
        # x^-j row is sum_n q^{nj}
        s = zeta_bar_series(10, 12)
        for (k, n), c in s.coeffs.items():
            if k == 0:
                expected = -0.5 if n == 0 else 0.0
            elif k > 0:
                expected = -1.0 if (n == 0 or n % k == 0) else 0.0
            else:
                expected = 1.0 if (n > 0 and n % (-k) == 0) else 0.0
            assert c == pytest.approx(expected)
        assert s.coeff(0, 0) == pytest.approx(-0.5)

    def test_zeta_quasi_periodicity_exact(self):
        n_x, n_q = 10, 12
        s0 = zeta_bar_series(n_x, n_q)
        s1 = zeta_bar_series(n_x, n_q, shift=1)
        diff = s1 - (s0 + TXSeries.monomial(-1.0, 0, 0, n_q, n_x))
        assert diff.max_abs_coeff() == 0.0

    def test_p_bar_shift_invariance_exact(self):
        n_x, n_q = 10, 12
        p0 = p_bar_series(n_x, n_q)
        p1 = p_bar_series(n_x, n_q, shift=1)
        assert (p1 - p0).max_abs_coeff() == 0.0

    def test_x_derivative_identity_exact(self):
        n_x, n_q = 10, 12
        s = zeta_bar_series(n_x, n_q)
        p = p_bar_series(n_x, n_q)
        assert (s.t_d_dt() + p).max_abs_coeff() == 0.0

    def test_series_matches_numeric_eval(self):
        q, x = 0.08, 0.55 + 0.1j
        s = zeta_bar_series(24, 14)
        v = s.evaluate(x, q)
        assert abs(v - zeta_bar_eval(x, q)) < 1e-5
        p = p_bar_series(24, 14)
        assert abs(p.evaluate(x, q) - p_bar_eval(x, q)) < 1e-4

    def test_p_bar_constant_coefficients(self):
        s = p_bar_constant_series(10)
        for m, sig in enumerate(SIGMA1, start=1):
            assert s.coeff(m, 0) == pytest.approx(2.0 * sig)


class TestOddZetaTaylor:
    def test_pole_row(self):
        s = zeta_tilde_taylor(8, 10)
        assert s.coeff(-1, 0) == pytest.approx(1.0)

    def test_even_coefficients_vanish(self):
        s = zeta_tilde_taylor(8, 10)
        for (k, n), c in s.coeffs.items():
            if k % 2 == 0:
                assert c == 0j

    def test_taylor_matches_numeric(self):
        s = zeta_tilde_taylor(12, 20)
        t = 0.09 + 0.02j
        v = sum(c * t ** k * Q ** n for (k, n), c in s.coeffs.items())
        assert abs(v - zeta_tilde_eval(t, TAU)) < 1e-9


class TestNumericEvaluators:
    def test_zeta_ellipticity_up_to_one(self):
        x = 0.6 + 0.3j
        lhs = zeta_bar_eval(Q * x, Q)
        rhs = zeta_bar_eval(x, Q) - 1.0
        assert abs(lhs - rhs) < 1e-11

    def test_p_bar_is_elliptic(self):
        x = 0.6 + 0.3j
        assert abs(p_bar_eval(Q * x, Q) - p_bar_eval(x, Q)) < 1e-11

    def test_p_bar_prime_by_finite_difference(self):
        x = 0.6 + 0.3j
        h = 1e-6
        fd = (p_bar_eval(x + h, Q) - p_bar_eval(x - h, Q)) / (2 * h)
        assert abs(p_bar_prime_eval(x, Q) - fd) < 1e-6

    def test_wp_k1_is_odd_zeta(self):
        alpha = 0.31 + 0.07j
        assert abs(wp_numeric(1, TAU, alpha)
                   - zeta_tilde_eval(alpha, TAU)) < 1e-12

    def test_wp_k2_is_p_bar(self):
        alpha = 0.31 + 0.07j
        x = cmath.exp(2j * cmath.pi * alpha)
        lhs = wp_numeric(2, TAU, alpha)
        rhs = (2j * cmath.pi) ** 2 * p_bar_eval(x, Q)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    @pytest.mark.parametrize("tau, alpha", [
        (TAU, 0.31 + 0.07j), (-0.35 + 0.9j, 0.12 - 0.2j),
        (0.1 + 0.7j, 0.47 + 0.01j)])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_wp_lipschitz_matches_hurwitz_rows(self, k, tau, alpha):
        fast = wp_numeric(k, tau, alpha)
        slow = wp_hurwitz_rows(k, tau, alpha)
        assert abs(fast - slow) <= 1e-12 * abs(slow)

    def test_wp_k3_against_direct_lattice(self):
        alpha = 0.31 + 0.07j
        for k in (3, 4):
            fast = wp_numeric(k, TAU, alpha)
            slow = wp_lattice_direct(k, TAU, alpha, 60)
            assert abs(fast - slow) < 1e-4 * max(abs(fast), 1.0)


class TestSuperZeta:
    Y = cmath.exp(2j * cmath.pi * (0.37 + 0.11j))
    X = cmath.exp(2j * cmath.pi * 0.13)

    def test_reduces_to_zeta_bar(self):
        # at theta = 0 the body is zeta_bar and the epsilon-delta component
        # carries the p_bar correction
        z = super_zeta(self.X, GrassmannNumber(0.0), Q, self.Y)
        assert abs(z.c0 - zeta_bar_eval(self.X, Q)) < 1e-12
        expected = -zeta_bar_eval(self.X, Q) * p_bar_eval(self.X, Q) \
            / (1.0 - self.Y)
        assert abs(z.ced - expected) < 1e-12

    def test_theta_component(self):
        z = super_zeta(self.X, DELTA, Q, self.Y)
        expected = -p_bar_eval(self.X, Q) / ((1.0 - self.Y) * self.X)
        # delta theta picks out the epsilon-delta slot
        base = super_zeta(self.X, GrassmannNumber(0.0), Q, self.Y)
        assert abs((z - base).ced - expected) < 1e-12

    def test_rejects_y_one(self):
        with pytest.raises(ZeroDivisionError):
            super_zeta(self.X, DELTA, Q, 1.0)

    def test_action_is_affine(self):
        x2, th2 = z_action(self.X, odd(0.4, -0.2), Q, self.Y)
        assert abs(x2.c0 - Q * self.X) < 1e-14
        assert th2.is_odd(1e-14)

    def test_lemma_grid(self):
        thetas = [GrassmannNumber(0.0), odd(1.0, 0.0), odd(0.0, 1.0),
                  odd(0.3, 0.7), odd(-0.5, 0.25)]
        for theta in thetas:
            r = super_zeta_lemma_residual(self.X, theta, Q, self.Y)
            assert r < 1e-8
