import cmath
import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from superchar.elliptic import (
    _SHELL_TOL, _shell_sum, bernoulli, divisor_sigma, eisenstein,
    eisenstein_b, p_bar_eval, p_bar_series, super_zeta,
    super_zeta_lemma_residual, wp_numeric, z_action,
    zeta_bar_eval, zeta_bar_series, zeta_tilde_eval, zeta_tilde_taylor,
)
from superchar.grassmann import EPS, DELTA, GrassmannNumber, odd
from superchar.series_core import EXACT_TWO_PI_I, EvalPoint, Prefactor

# sigma_1(1..10) and sigma_3(1..8)
SIGMA1 = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
SIGMA3 = [1, 9, 28, 73, 126, 252, 344, 585]
# the Bernoulli numbers B_2, B_4, B_6, B_8
BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30)}
# (n_x, n_q) of the closed-form row tests
ANNULUS_ORDERS = [(0, 0), (3, 7), (12, 12)]

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


def wp_lattice_direct(k, tau, alpha, cutoff):
    """Raw truncated double lattice sum for p_k (k >= 3); slowly convergent,
    an independent cross-check of wp_numeric."""
    if k < 3:
        raise ValueError("direct double sum requires k >= 3")
    tau = complex(tau)
    alpha = complex(alpha)
    total = 0j
    for m in range(-cutoff, cutoff + 1):
        for n in range(-cutoff, cutoff + 1):
            total += (alpha + m * tau + n) ** (-k)
    return total


def exact_terms(s):
    """{(n, r2): c} over the nonzero terms of an exact rational series."""
    return {(n, r2): s.exact_coeff(n, r2) for n, r2, _ in s.terms()}


def annulus_rows(n_x, n_q, row):
    """{(n, 2k): c} of sum_{0 < |k| <= n_x} row(k) x^k, where row(k) is the
    list of (q-exponent, coefficient) of the x^k row."""
    return {(n, 2 * k): c for k in range(-n_x, n_x + 1) if k
            for n, c in row(k)}


def at_point(tau, z):
    """The EvalPoint at which y = z."""
    return EvalPoint(tau, cmath.log(z) / (2j * cmath.pi))


def wp_hurwitz_rows(k, tau, alpha, tol=1e-13):
    """sum_{(m,n)} (alpha + m tau + n)^{-k} for k >= 2, each row (absolutely
    convergent) resummed with Hurwitz zeta values until a pair of rows is
    below ``tol`` of the total: the oracle for the Lipschitz row sum of
    ``wp_numeric``."""
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


class TestEisenstein:
    # the classical constants -2k/B_k of E_2, E_4, E_6
    CLASSICAL = {2: -24, 4: 240, 6: -504}

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_classical_constants(self, k):
        e = eisenstein(k, 12)
        assert e.exact_coeff(0) == 1
        for m in range(1, 13):
            assert e.exact_coeff(m) == self.CLASSICAL[k] * divisor_sigma(
                k - 1, m)

    def test_weight_12_constant_is_a_fraction(self):
        e = eisenstein(12, 3)
        assert e.exact_coeff(1) == Fraction(65520, 691)
        assert e.exact_coeff(2) == Fraction(65520, 691) * (1 + 2 ** 11)

    @pytest.mark.parametrize("k", [0, 3, -2])
    def test_rejects_odd_or_small_weight(self, k):
        with pytest.raises(ValueError):
            eisenstein(k, 3)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_b_n_is_eisenstein_times_zeta(self, n):
        # b_n = (2n+1) 2 zeta(w) E_w with zeta(w) / pi^w = 1/6, 1/90, 1/945,
        # 1/9450, and 2 zeta(w) = 2 (zeta(w) / pi^w) (-1)^(w/2) / 2^w
        # (2 pi i)^w
        w = 2 * n + 2
        zeta_over_pi = [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945),
                        Fraction(1, 9450)][n]
        two_zeta = Prefactor(2 * zeta_over_pi * (-1) ** (w // 2) / 2 ** w,
                             w, w)
        assert eisenstein_b(n, 20) == eisenstein(w, 20) * (2 * n + 1) \
            * two_zeta


class TestEisensteinB:
    def test_constant_terms(self):
        # b_n(q=0) = (2n+1) * 2 zeta(2n+2)
        pt_const = {0: math.pi ** 2 / 3.0,
                    1: math.pi ** 4 / 15.0,
                    2: 2.0 * math.pi ** 6 / 189.0}
        for n, expected in pt_const.items():
            b = eisenstein_b(n, 10)
            assert b.coeffs.get((0, 0)).real == pytest.approx(expected)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rational_part_is_bernoulli_and_sigma(self, n):
        # b_n / (2 pi i)^w = -(2n+1) B_w / w! + (2 (2n+1) / (2n+1)!)
        # sum_m sigma_{2n+1}(m) q^m, w = 2n+2
        w = 2 * n + 2
        b = eisenstein_b(n, 20) * Prefactor(1, -w, -w)
        assert b.exact_coeff(0) == -(2 * n + 1) * BERNOULLI[w] \
            / math.factorial(w)
        for m in range(1, 21):
            assert b.exact_coeff(m) == Fraction(
                2 * (2 * n + 1) * divisor_sigma(2 * n + 1, m),
                math.factorial(2 * n + 1))

    def test_bernoulli_numbers_match_mpmath(self):
        for w in range(31):
            assert bernoulli(w) == Fraction(*mpmath.bernfrac(w)), w

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
        # x^0 row is the single constant -1/2 (-3/2 after the shift, as
        # zeta_bar(q x) = zeta_bar(x) - 1); x^k row is -sum_{m>=0} q^{mk};
        # x^-k row is sum_{m>=1} q^{mk}
        for (n_x, n_q), shift in itertools.product(ANNULUS_ORDERS, (0, 1)):
            s = zeta_bar_series(n_x, n_q, shift)
            expected = annulus_rows(n_x, n_q, lambda k: [
                (m * abs(k), -1 if k > 0 else 1)
                for m in range(0 if k > 0 else 1, n_q // abs(k) + 1)])
            expected[(0, 0)] = Fraction(-1, 2) - shift
            assert exact_terms(s) == expected
            assert s.exact_coeff(0, 0) == Fraction(-1, 2) - shift

    def test_p_bar_rows(self):
        # x^k row is k sum_{m>=0} q^{mk}; x^-k row is k sum_{m>=1} q^{mk}
        for (n_x, n_q), shift in itertools.product(ANNULUS_ORDERS, (0, 1)):
            expected = annulus_rows(n_x, n_q, lambda k: [
                (m * abs(k), abs(k))
                for m in range(0 if k > 0 else 1, n_q // abs(k) + 1)])
            assert exact_terms(p_bar_series(n_x, n_q, shift)) == expected

    def test_zeta_quasi_periodicity_exact(self):
        n_x, n_q = 10, 12
        s0 = zeta_bar_series(n_x, n_q)
        s1 = zeta_bar_series(n_x, n_q, shift=1)
        diff = s1 - (s0 - 1)
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
        assert (s.y_d_dy() + p).max_abs_coeff() == 0.0

    def test_series_matches_numeric_eval(self):
        # the exact annulus series against each Lipschitz row sum S_1, S_2
        # and S_3, with both truncations far below 1e-12 at this point
        q, x = 0.08, 0.55 + 0.1j
        pt = at_point(cmath.log(q) / (2j * cmath.pi), x)
        p = p_bar_series(80, 24)
        for series, value in [
                (zeta_bar_series(80, 24), zeta_bar_eval(x, q)[0]),
                (p, p_bar_eval(x, q)[0]),
                (p.y_d_dy(), _shell_sum(3, x, q)[0])]:
            assert abs(series.evaluate(pt)[0] - value) < 1e-12

    def test_p_bar_constant_coefficients(self):
        # the constant relating p_bar to the classical p-function,
        # p_2 = p + b_0 = (2 pi i)^2 p_bar, is
        # 1/12 + b_0/(2 pi i)^2 = 2 sum_m sigma_1(m) q^m
        s = eisenstein_b(0, 10) * Prefactor(1, -2, -2) + Fraction(1, 12)
        assert s.exact_coeff(0) == 0
        for m, sig in enumerate(SIGMA1, start=1):
            assert s.exact_coeff(m) == 2 * sig


class TestOddZetaTaylor:
    # y stands for u = 2 pi i t, and the series is 2 pi i times a rational
    # series in q and u

    def test_pole_row(self):
        s = zeta_tilde_taylor(8, 10) / EXACT_TWO_PI_I
        assert s.exact_coeff(0, -2) == 1
        assert s.coeffs.get((0, -2)) == 1

    def test_exact_coefficients(self):
        s = zeta_tilde_taylor(5, 2) / EXACT_TWO_PI_I
        # -beta_n: 1/12 = -B_2/2, -1/720 = B_4/(4 * 3!), 1/30240 =
        # -B_6/(6 * 5!) at q^0; -2 sigma_1(m) q^m at u
        assert {(n, r2): s.exact_coeff(n, r2) for n, r2, _ in s.terms()
                if r2 <= 2 or n == 0} == {
            (0, -2): 1, (0, 2): Fraction(1, 12), (0, 6): Fraction(-1, 720),
            (0, 10): Fraction(1, 30240), (1, 2): -2, (2, 2): -6}
        for n in (1, 2):
            assert s.exact_coeff(n, 6) == Fraction(
                -2 * divisor_sigma(3, n), math.factorial(3))

    def test_even_coefficients_vanish(self):
        # u^k is r2 = 2k
        s = zeta_tilde_taylor(8, 10)
        assert s.terms()
        assert all(r2 % 4 == 2 for _, r2, _ in s.terms())

    def test_taylor_matches_numeric(self):
        s = zeta_tilde_taylor(12, 20)
        t = 0.09 + 0.02j
        u = 2j * cmath.pi * t
        v = sum(c * u ** (r2 // 2) * Q ** n for n, r2, c in s.terms())
        assert abs(v - zeta_tilde_eval(t, TAU)[0]) < 1e-9


class TestNumericEvaluators:
    def test_zeta_ellipticity_up_to_one(self):
        x = 0.6 + 0.3j
        lhs = zeta_bar_eval(Q * x, Q)[0]
        rhs = zeta_bar_eval(x, Q)[0] - 1.0
        assert abs(lhs - rhs) < 1e-11

    def test_p_bar_is_elliptic(self):
        x = 0.6 + 0.3j
        assert abs(p_bar_eval(Q * x, Q)[0] - p_bar_eval(x, Q)[0]) < 1e-11

    def test_p_bar_prime_by_finite_difference(self):
        x = 0.6 + 0.3j
        h = 1e-6
        fd = (p_bar_eval(x + h, Q)[0] - p_bar_eval(x - h, Q)[0]) / (2 * h)
        # p_bar' = S_3 / x
        assert abs(_shell_sum(3, x, Q)[0] / x - fd) < 1e-6

    def test_wp_k1_is_odd_zeta(self):
        alpha = 0.31 + 0.07j
        assert abs(wp_numeric(1, TAU, alpha)[0]
                   - zeta_tilde_eval(alpha, TAU)[0]) < 1e-12

    @pytest.mark.parametrize("tau, alpha", [
        (TAU, 0.31 + 0.07j), (-0.35 + 0.9j, 0.12 - 0.2j),
        (0.1 + 0.7j, 0.47 + 0.01j)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_wp_lipschitz_matches_hurwitz_rows(self, k, tau, alpha):
        fast = wp_numeric(k, tau, alpha)[0]
        slow = wp_hurwitz_rows(k, tau, alpha)
        assert abs(fast - slow) <= 1e-12 * abs(slow)

    def test_wp_k3_against_direct_lattice(self):
        alpha = 0.31 + 0.07j
        for k in (3, 4):
            fast = wp_numeric(k, TAU, alpha)[0]
            slow = wp_lattice_direct(k, TAU, alpha, 60)
            assert abs(fast - slow) < 1e-4 * max(abs(fast), 1.0)


# Li_{1-k}(w) = sum_d d^(k-1) w^d in closed form, k = 1..4
POLYLOG = {1: lambda w: w / (1 - w), 2: lambda w: w / (1 - w) ** 2,
           3: lambda w: w * (1 + w) / (1 - w) ** 3,
           4: lambda w: w * (1 + 4 * w + w * w) / (1 - w) ** 4}


def mp_row_sum(k, x, q):
    """S_k(x) = sum_{n in Z} Li_{1-k}(q^n x) in 30-digit arithmetic, at the
    doubles x and q, summed until |q|^m is below 1e-34."""
    with mpmath.workdps(30):
        x, q = mpmath.mpc(x), mpmath.mpc(q)
        li = POLYLOG[k]
        total, qm = li(x), q
        while abs(qm) > mpmath.mpf(10) ** -34:
            total += li(qm * x) + (-1) ** k * li(qm / x)
            qm *= q
        return total


class TestRowSumBounds:
    """Each row-sum evaluator returns (value, bound): the rounding level
    and the tail that the stopping rule leaves, times the prefactor."""

    @staticmethod
    def evaluate(name, pt):
        """(value, bound, 30-digit value) of zeta_bar or wp_k at pt."""
        if name == "zeta_bar":
            value, bound = zeta_bar_eval(pt.y, pt.q)
            return value, bound, -0.5 - mp_row_sum(1, pt.y, pt.q)
        k = int(name[2:])
        value, bound = wp_numeric(k, pt.tau, pt.alpha)
        with mpmath.workdps(30):
            factor = (-2j * mpmath.pi) ** k / math.factorial(k - 1)
            return value, bound, factor * mp_row_sum(k, pt.y, pt.q)

    @pytest.mark.parametrize("name", ["zeta_bar", "wp2", "wp3", "wp4"])
    def test_bound_covers_the_error_at_small_im_tau(self, name):
        # |q| = 0.969: about a thousand shells of size up to 1 are summed
        # and the stopping rule leaves a tail 1 / (1 - |q|) = 32 times its
        # tolerance
        value, bound, ref = self.evaluate(name, EvalPoint(0.005j, 0.3))
        assert 0 < abs(value - ref) <= bound

    @pytest.mark.parametrize("k, name", [(1, "zeta_bar"), (2, "p_bar")])
    def test_row_sum_meets_its_tolerance_at_small_im_tau(self, k, name):
        # the shells left off after the stopping rule fires add up to about
        # _SHELL_TOL max(1, |S|), not 1 / (1 - |q|) = 32 times that
        pt = EvalPoint(0.005j, 0.3)
        row_sum = mp_row_sum(k, pt.y, pt.q)
        if name == "zeta_bar":
            value, ref = zeta_bar_eval(pt.y, pt.q)[0], -0.5 - row_sum
        else:
            value, ref = p_bar_eval(pt.y, pt.q)[0], row_sum
        assert abs(value - ref) <= 2 * _SHELL_TOL * max(1, abs(row_sum))

    @pytest.mark.parametrize("name", ["zeta_bar", "wp2", "wp3", "wp4"])
    def test_bound_is_near_rounding_at_moderate_im_tau(self, name):
        value, bound, ref = self.evaluate(name, EvalPoint(0.1 + 1.2j, 0.3))
        assert abs(value - ref) <= bound < 1e-13 * abs(value)


class TestSuperZeta:
    Y = cmath.exp(2j * cmath.pi * (0.37 + 0.11j))
    X = cmath.exp(2j * cmath.pi * 0.13)

    def test_reduces_to_zeta_bar(self):
        # at theta = 0 the body is zeta_bar and the epsilon-delta component
        # carries the p_bar correction
        z = super_zeta(self.X, GrassmannNumber(0.0), Q, self.Y)
        assert abs(z.c0 - zeta_bar_eval(self.X, Q)[0]) < 1e-12
        expected = -zeta_bar_eval(self.X, Q)[0] * p_bar_eval(self.X, Q)[0] \
            / (1.0 - self.Y)
        assert abs(z.ced - expected) < 1e-12

    def test_theta_component(self):
        z = super_zeta(self.X, DELTA, Q, self.Y)
        expected = -p_bar_eval(self.X, Q)[0] / ((1.0 - self.Y) * self.X)
        # delta theta picks out the epsilon-delta slot
        base = super_zeta(self.X, GrassmannNumber(0.0), Q, self.Y)
        assert abs((z - base).ced - expected) < 1e-12

    def test_rejects_y_one(self):
        with pytest.raises(ZeroDivisionError):
            super_zeta(self.X, DELTA, Q, 1.0)

    def test_action_is_affine(self):
        x2, th2 = z_action(self.X, odd(0.4, -0.2), Q, self.Y)
        assert abs(x2.c0 - Q * self.X) < 1e-14
        c0, _, _, ced = th2.components()
        assert abs(c0) <= 1e-14 and abs(ced) <= 1e-14

    def test_lemma_grid(self):
        thetas = [GrassmannNumber(0.0), odd(1.0, 0.0), odd(0.0, 1.0),
                  odd(0.3, 0.7), odd(-0.5, 0.25)]
        for t in (0.13, 0.21 + 0.04j, 0.35 - 0.02j, 0.08 + 0.09j, 0.44):
            x = cmath.exp(2j * cmath.pi * t)
            for theta in thetas:
                r = super_zeta_lemma_residual(x, theta, Q, self.Y)
                assert r < 1e-8, (t, theta)
