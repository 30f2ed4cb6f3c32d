import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from superchar import characters, jacobi_forms
from superchar.jacobi_forms import (
    discriminant_series, eisenstein_e4, eisenstein_e6, eta_series,
    expected_f1, jacobi_eisenstein_numeric,
    lemma_ratio, lemma_shift_residual, phi_10_1_eisenstein_numeric, phi_weak,
    quasi_jacobi_coeffs, theta_form, theta_offset_series, transformation_check,
)
from superchar.series_core import (
    EXACT_TWO_PI_I, EvalPoint, Prefactor, QYSeries,
)

# Ramanujan tau(1..10)
TAU_COEFFS = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643,
              -115920]
# sigma_3(1..8), sigma_5(1..6)
SIGMA3 = [1, 9, 28, 73, 126, 252, 344, 585]
SIGMA5 = [1, 33, 244, 1057, 3126, 8052]

POINT = EvalPoint(0.13 + 1.21j, 0.07 + 0.03j)


def theta_prime_zero(n_q):
    """d/d alpha theta at alpha = 0, from the theta series alone: 2 pi i
    y d/dy, then y = 1."""
    d = theta_offset_series(n_q).y_d_dy() * EXACT_TWO_PI_I
    return d.y_substitute_one()


class TestEtaAndDiscriminant:
    def test_discriminant_tau_coefficients(self):
        d = discriminant_series(10)
        for n, t in enumerate(TAU_COEFFS, start=1):
            assert d.exact_coeff(n, 0) == t

    def test_discriminant_from_eisenstein(self):
        # 1728 Delta = E4^3 - E6^2
        e4 = eisenstein_e4(10)
        e6 = eisenstein_e6(10)
        lhs = (e4 ** 3 - e6 ** 2) * Fraction(1, 1728)
        assert lhs == discriminant_series(10)

    def test_eisenstein_coefficients(self):
        e4 = eisenstein_e4(8)
        e6 = eisenstein_e6(6)
        assert e4.exact_coeff(0, 0) == 1
        for n, s in enumerate(SIGMA3, start=1):
            assert e4.exact_coeff(n, 0) == 240 * s
        for n, s in enumerate(SIGMA5, start=1):
            assert e6.exact_coeff(n, 0) == -504 * s


class TestTheta:
    def test_mantissa_support(self):
        th = theta_offset_series(15)
        assert th.q_offset == Fraction(1, 8)
        for (n, r2), c in th.coeffs.items():
            assert r2 % 2 == 1
            k = (r2 - 1) // 2
            assert n == k * (k + 1) // 2
            assert c == pytest.approx(-1j * (-1) ** (k % 2))

    def test_odd_in_alpha(self):
        tau = 0.2 + 1.1j
        th = theta_form(25)
        for alpha in (0.31 + 0.05j, 0.11 - 0.04j):
            up = th.evaluate(EvalPoint(tau, alpha))
            dn = th.evaluate(EvalPoint(tau, -alpha))
            assert abs(up + dn) < 1e-12 * abs(up)

    def test_zero_at_alpha_zero(self):
        th = theta_form(25)
        assert abs(th.evaluate(EvalPoint(0.2 + 1.1j, 0.0))) < 1e-14

    def test_quasi_periodicity_alpha_plus_tau(self):
        # theta(tau, alpha + tau) = -q^{-1/2} y^{-1} theta(tau, alpha)
        tau = 0.2 + 1.1j
        alpha = 0.31 + 0.05j
        th = theta_form(30)
        lhs = th.evaluate(EvalPoint(tau, alpha + tau))
        q = cmath.exp(2j * cmath.pi * tau)
        y = cmath.exp(2j * cmath.pi * alpha)
        rhs = -th.evaluate(EvalPoint(tau, alpha)) / (cmath.sqrt(q) * y)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_sign_flip_alpha_plus_one(self):
        tau = 0.2 + 1.1j
        th = theta_form(25)
        a = th.evaluate(EvalPoint(tau, 0.3))
        b = th.evaluate(EvalPoint(tau, 1.3))
        assert abs(a + b) < 1e-12 * abs(a)

    def test_theta_prime_zero_is_eta_cubed(self):
        # Jacobi's identity theta'(tau, 0) = 2 pi eta^3, on which phi_m1_half
        # rests
        for n_q in (0, 1, 20, 100):
            tp = theta_prime_zero(n_q)
            assert tp.q_offset == Fraction(1, 8)
            assert tp == eta_series(n_q) ** 3 * Prefactor(b=1)
            assert tp == eta_series(n_q, 3) * Prefactor(b=1)


class TestWeakForms:
    def test_phi_m1_half_leading_coefficient(self):
        f = phi_weak("phi_m1_half", 25)
        lead = f.alpha_derivative(1, EvalPoint(0.2 + 1.1j))
        assert abs(lead - 1.0) < 1e-8

    def test_phi_m2_1_is_square(self):
        f1 = phi_weak("phi_m1_half", 25)
        f2 = phi_weak("phi_m2_1", 25)
        v1 = f1.evaluate(POINT)
        v2 = f2.evaluate(POINT)
        assert v2 == pytest.approx((2j * cmath.pi) ** 2 * v1 * v1)

    def test_weights_and_indices(self):
        assert phi_weak("phi_m1_half", 10).index == Fraction(1, 2)
        assert phi_weak("phi_m2_1", 10).index == 1
        assert phi_weak("phi_10_1", 10).weight == 10
        assert phi_weak("phi_0_1", 10).weight == 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            phi_weak("nope", 10)

    def test_phi_10_1_matches_eisenstein_combination(self):
        f = phi_weak("phi_10_1", 40)
        for pt in (POINT, EvalPoint(-0.3 + 1.35j, 0.21 - 0.06j)):
            a = f.evaluate(pt)
            b = phi_10_1_eisenstein_numeric(pt, cutoff=80)
            assert abs(a - b) < 1e-3 * max(abs(a), abs(b))

    def test_phi_12_1_matches_eisenstein_combination(self):
        # phi_{12,1} = (E_4^2 E_{4,1} - E_6 E_{6,1}) / 144, the numeric
        # Jacobi-Eisenstein sums as the independent oracle
        f = phi_weak("phi_12_1", 40)
        v4 = eisenstein_e4(40)
        v6 = eisenstein_e6(40)
        for pt in (POINT, EvalPoint(-0.3 + 1.35j, 0.21 - 0.06j)):
            e4, e6 = v4.evaluate(pt)[0], v6.evaluate(pt)[0]
            b = (e4 * e4 * jacobi_eisenstein_numeric(4, 1, pt, cutoff=80)
                 - e6 * jacobi_eisenstein_numeric(6, 1, pt, cutoff=80)) / 144
            a = f.evaluate(pt)
            assert abs(a - b) < 1e-3 * max(abs(a), abs(b))

    def test_phi_0_1_times_discriminant(self):
        # phi_12_1 is the weight-10 heat operator on phi_10_1; Delta phi_0_1
        # is the product it replaces
        n_q = 60
        delta = discriminant_series(n_q)
        assert (phi_weak("phi_12_1", n_q).offset_series
                == delta * phi_weak("phi_0_1", n_q).offset_series)

    def test_phi_10_1_is_discriminant_times_phi_m2_1(self):
        n_q = 60
        assert (phi_weak("phi_10_1", n_q).offset_series
                == discriminant_series(n_q)
                * phi_weak("phi_m2_1", n_q).offset_series)

    def test_eta_powers_are_the_theta_prime_quotients(self):
        # the quotients by theta'(tau, 0) that eta^-3 and eta^-6 replace
        n_q = 60
        theta, tp = theta_offset_series(n_q), theta_prime_zero(n_q)
        inverse = tp.invert()
        assert phi_weak("phi_m1_half", n_q).offset_series == theta * inverse
        assert (phi_weak("phi_m2_1", n_q).offset_series
                == theta ** 2 * inverse ** 2 * EXACT_TWO_PI_I ** 2)


class TestJacobiEisensteinNumeric:
    def test_e41_at_alpha_zero_is_e4(self):
        pt = EvalPoint(0.1 + 1.3j, 0.0)
        num = jacobi_eisenstein_numeric(4, 1, pt, cutoff=60)
        ser, _ = eisenstein_e4(30).evaluate(pt)
        assert abs(num - ser) < 1e-5 * abs(ser)

    def test_e61_at_alpha_zero_is_e6(self):
        pt = EvalPoint(0.1 + 1.3j, 0.0)
        num = jacobi_eisenstein_numeric(6, 1, pt, cutoff=60)
        ser, _ = eisenstein_e6(30).evaluate(pt)
        assert abs(num - ser) < 1e-5 * abs(ser)

    @pytest.mark.parametrize("k, point", [
        (4, EvalPoint(0.13 + 1.21j, 0.07 + 0.03j)),
        (6, EvalPoint(-0.31 + 0.92j, 0.24 - 0.06j))])
    @pytest.mark.parametrize("cutoff", [40, 100])
    def test_matches_pair_by_pair_loop(self, k, point, cutoff):
        fast = jacobi_eisenstein_numeric(k, 1, point, cutoff)
        slow = _eisenstein_pair_by_pair(k, 1, point, cutoff)
        assert abs(fast - slow) <= 1e-12 * abs(slow)


def _ext_gcd(a, b):
    """Returns (g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    return old_r, old_u, old_v


def _completion_min_b(c, d):
    """An SL2 completion (a, b) of the coprime bottom row (c, d) with
    a*d - b*c = 1 and |b| minimal, by the extended Euclidean algorithm."""
    g, u, v = _ext_gcd(d, c)
    if g < 0:
        g, u, v = -g, -u, -v
    assert g == 1
    a, b = u, -v
    if d != 0:
        t = round(-b / d)
        a, b = min(((a + tt * c, b + tt * d) for tt in (t - 1, t, t + 1)),
                   key=lambda ab: abs(ab[1]))
    return a, b


def _eisenstein_pair_by_pair(k, m, point, cutoff):
    """The Jacobi-Eisenstein sum one coprime row (c, d) at a time, each with
    its completion from the extended Euclidean algorithm: the oracle for
    the vectorized ``jacobi_eisenstein_numeric``."""
    tau, alpha = point.tau, point.alpha
    lam = np.arange(-cutoff, cutoff + 1, dtype=float)
    total = 0j
    for c in range(-cutoff, cutoff + 1):
        for d in range(-cutoff, cutoff + 1):
            if math.gcd(c, d) != 1:
                continue
            a, b = _completion_min_b(c, d)
            denom = c * tau + d
            tau_p = (a * tau + b) / denom
            alpha_p = alpha / denom
            phase = (lam * lam * tau_p + 2.0 * lam * alpha_p
                     - c * alpha * alpha / denom)
            total += denom ** (-k) * np.exp(
                2j * math.pi * m * phase).sum()
    return 0.5 * total


class TestRatioLemma:
    def test_shift_residuals(self):
        for name in ("phi_m1_half", "phi_m2_1"):
            f = phi_weak(name, 30)
            for lam in (1, 2):
                r = lemma_shift_residual(f, 0.31, POINT, lam)
                assert abs(r) < 1e-6

    def test_integer_shift_invariance(self):
        f = phi_weak("phi_m2_1", 30)
        r = lemma_shift_residual(f, 0.31, POINT, 0, mu=1)
        assert abs(r) < 1e-10

    def test_pole_guard(self):
        f = phi_weak("phi_m1_half", 30)
        with pytest.raises(ZeroDivisionError):
            lemma_ratio(f, 0.0, POINT)

    def test_f1_closed_form(self):
        for name in ("phi_m1_half", "phi_m2_1"):
            f = phi_weak(name, 30)
            c = quasi_jacobi_coeffs(f, 1, POINT, radius=0.01)
            assert abs(c[0] - 1.0) < 1e-10  # normalization g(0) = 1
            assert abs(c[1] - expected_f1(f, POINT)) < 1e-6

    def test_f1_from_the_exact_derivative(self):
        # f'(alpha) from the series, not a finite difference: the closed
        # form then meets the FFT coefficient at the verify point
        pt = EvalPoint(0.2 + 1.1j, 0.23 + 0.11j)
        for f in (theta_form(30), phi_weak("phi_m1_half", 30),
                  phi_weak("phi_m2_1", 30)):
            f1 = quasi_jacobi_coeffs(f, 1, pt)[1]
            assert abs(f1 - expected_f1(f, pt)) < 1e-10, f.name

    def test_f1_pole_asymptotics(self):
        # for small alpha, F_1 approaches the simple pole 2m/alpha of the
        # normalized ratio
        f = phi_weak("phi_m1_half", 30)
        alpha = 0.004
        pt = EvalPoint(0.13 + 1.21j, alpha)
        c = quasi_jacobi_coeffs(f, 1, pt, radius=0.0004)
        assert abs(c[1] - 1.0 / alpha) < 0.05 * abs(1.0 / alpha)


class TestTransformationCheck:
    POINTS = [EvalPoint(0.2 + 1.1j, 0.31 + 0.07j),
              EvalPoint(-0.15 + 0.95j, 0.12 - 0.04j)]

    def test_phi_m2_1_full_group(self):
        rows = transformation_check(
            phi_weak("phi_m2_1", 30),
            [("shift", 1, 0), ("shift", 0, 1), ("shift", 1, 1),
             ("sl2", 0, -1, 1, 0), ("sl2", 1, 1, 0, 1)],
            self.POINTS)
        assert rows
        for label, _, resid in rows:
            assert resid <= 1e-6, (label, resid)

    def test_phi_0_1_weight_zero(self):
        rows = transformation_check(
            phi_weak("phi_0_1", 30),
            [("shift", 1, 0), ("sl2", 0, -1, 1, 0)],
            self.POINTS)
        for label, _, resid in rows:
            assert resid <= 1e-9, (label, resid)

    def test_phi_12_1_weight_twelve(self):
        rows = transformation_check(
            phi_weak("phi_12_1", 30),
            [("shift", 1, 0), ("shift", 0, 1), ("sl2", 0, -1, 1, 0),
             ("sl2", 1, 1, 0, 1)],
            self.POINTS)
        assert len(rows) == 8
        for label, _, resid in rows:
            assert resid <= 1e-9, (label, resid)

    ELEMENTS = [("shift", 1, 0), ("shift", 0, 1), ("shift", 1, 1),
                ("sl2", 0, -1, 1, 0), ("sl2", 1, 1, 0, 1)]

    @pytest.mark.parametrize("make", [
        lambda: phi_weak("phi_m2_1", 30),
        lambda: phi_weak("phi_m1_half", 30),
        lambda: jacobi_forms.JacobiForm(
            "chi-rank-8", 0, 2, characters.chi_character(
                characters.e8_lattice(), 30, "closed").chi),
    ], ids=["phi_m2_1", "phi_m1_half", "chi_E8"])
    def test_form_evaluated_once_per_point(self, monkeypatch, make):
        form = make()
        expected = transformation_per_element(form, self.ELEMENTS, self.POINTS)
        calls = []
        evaluate = QYSeries.evaluate

        def counted(series, point):
            calls.append(point)
            return evaluate(series, point)

        monkeypatch.setattr(QYSeries, "evaluate", counted)
        rows = transformation_check(form, self.ELEMENTS, self.POINTS)
        assert len(calls) == len(self.POINTS) * (len(self.ELEMENTS) + 1)
        assert rows == expected


def transformation_per_element(form, elements, points):
    """``transformation_check`` with the form evaluated at each point once
    per group element: the reference for evaluating it once per point."""
    out = []
    for element in elements:
        pairs = [jacobi_forms._transform_residual(form, element, p,
                                                  form.evaluate(p))
                 for p in points]
        num = sum(lhs * rhs.conjugate() for lhs, rhs in pairs)
        char = num / abs(num) if num else 1 + 0j
        label = jacobi_forms._element_label(element)
        label_c = f"{label}[char={char.real:+.6f}{char.imag:+.6f}j]"
        for p, (lhs, rhs) in zip(points, pairs):
            resid = abs(lhs - char * rhs) / max(abs(lhs), abs(rhs), 1e-30)
            out.append((label_c, p, resid))
    return out
