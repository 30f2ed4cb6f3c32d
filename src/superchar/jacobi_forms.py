"""Eta, theta, Eisenstein and weak Jacobi forms, quasi-periodicity ratios,
and numeric verification of Jacobi transformation laws.

Conventions: q = e^{2 pi i tau}, y = e^{2 pi i alpha};
eta = q^{1/24} prod (1 - q^n);
theta(tau, alpha) = (1/sqrt(-1)) sum_k (-1)^k q^{(k+1/2)^2/2} y^{k+1/2}.

Every form is one exact ``QYSeries``.  A fractional q-exponent (1/24 for
eta, 1/8 for theta) is the power c of q in its ``Prefactor``, and y^{1/2}
is carried as doubled integer exponents, so products cancel the offsets
exactly, and a sum of series with different offsets fails loudly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .elliptic import TWO_PI_I, eisenstein
from .series_core import (DEFAULT_Q_ORDER, EXACT_I, EXACT_TWO_PI_I, EvalPoint,
                          Prefactor, QYSeries, euler_product)


def eta_series(n_q=DEFAULT_Q_ORDER, k=1):
    """The k-th power of Dedekind eta, q^{k/24} prod (1 - q^n)^k for an
    integer k: the Euler product's power to q^n_q with q-offset k/24."""
    return euler_product(n_q, k) * Prefactor(c=Fraction(k, 24))


def discriminant_series(n_q=DEFAULT_Q_ORDER):
    """The normalized cusp form Delta = eta^24 = q prod (1 - q^n)^24
    (integer coefficients 1, -24, 252, ...), with q-offset 0."""
    return euler_product(n_q, 24) * QYSeries.monomial(1, 1, 0, n_q)


def theta_sum_terms(n_q):
    """The terms (n, k, (-1)^k) of sum_k (-1)^k q^n y^k, n = k(k+1)/2 <= n_q:
    the sum side of the Jacobi triple product."""
    k = 0
    while k * (k + 1) // 2 <= n_q:
        for kk in (k, -k - 1):
            yield kk * (kk + 1) // 2, kk, (-1) ** (kk % 2)
        k += 1


def _theta_mantissa(n_q):
    """sum_k (-i)(-1)^k q^{k(k+1)/2} y^{k+1/2} (the q^{1/8} offset removed)."""
    terms = {(n, 2 * k + 1): -sign for n, k, sign in theta_sum_terms(n_q)}
    return QYSeries(terms, n_q) * EXACT_I


def theta_offset_series(n_q=DEFAULT_Q_ORDER):
    """The odd Jacobi theta function: its mantissa with q-offset 1/8."""
    return _theta_mantissa(n_q) * Prefactor(c=Fraction(1, 8))


class JacobiForm:
    """A (weak/quasi) Jacobi form: weight, index and its exact series
    ``offset_series`` (a ``QYSeries``, q-offset included)."""

    __slots__ = ("name", "weight", "index", "offset_series")

    def __init__(self, name, weight, index, offset_series):
        self.name = name
        self.weight = weight
        self.index = Fraction(index)
        self.offset_series = offset_series

    def evaluate(self, point):
        return self.offset_series.evaluate(point)[0]

    def alpha_derivative(self, order, point):
        """(d/d alpha)^order f at ``point``, from the exact series."""
        d = self.offset_series
        for _ in range(order):
            d = d.y_d_dy() * EXACT_TWO_PI_I  # d/d alpha = 2 pi i y d/dy
        return d.evaluate(point)[0]


def theta_form(n_q=DEFAULT_Q_ORDER):
    return JacobiForm("theta", Fraction(1, 2), Fraction(1, 2),
                      theta_offset_series(n_q))


# ---------------------------------------------------------------------------
# classical Eisenstein series, and the numeric Jacobi-Eisenstein sum: the
# independent oracle for the exact phi_10_1 and phi_12_1
# ---------------------------------------------------------------------------

def eisenstein_e4(n_q=DEFAULT_Q_ORDER):
    return eisenstein(4, n_q)


def eisenstein_e6(n_q=DEFAULT_Q_ORDER):
    return eisenstein(6, n_q)


def _completions(c, box):
    """The d in ``box`` coprime to c, with SL2 completions (a, b) of the
    bottom rows (c, d), a d - b c = 1 and |b| minimal, as integer arrays."""
    d = np.array([d for d in box if math.gcd(c, d) == 1])
    if c == 0:  # d = +-1
        return d, d, 0 * d
    # a = d^-1 mod |c| (0 for |c| = 1), then (a, b) -> (a + t c, b + t d)
    a = np.array([pow(int(x), -1, abs(c)) for x in d])
    b = (a * d - 1) // c
    t = np.rint(-b / np.where(d == 0, 1, d)).astype(int) * (d != 0)
    return d, a + t * c, b + t * d


def jacobi_eisenstein_numeric(k, m, point, cutoff=40):
    """Numeric Jacobi-Eisenstein series of weight k and index m:

    E_{k,m}(tau, alpha) = 1/2 sum_{(c,d) coprime} sum_{lambda}
        (c tau + d)^{-k}
        e^{2 pi i m (lambda^2 tau' + 2 lambda alpha' - c alpha^2/(c tau + d))}

    with tau' = (a tau + b)/(c tau + d), alpha' = alpha/(c tau + d), the
    completion (a, b) chosen with |b| minimal; both the (c, d) box and the
    lambda range are truncated at ``cutoff``.  Each c is one numpy pass
    over its (d, lambda) grid, with the lambda terms from the recurrence
    w_{l+1} = w_l e(m ((2l + 1) tau' +- 2 alpha')), e(x) = exp(2 pi i x):
    products in place of one complex exponential per term.
    """
    tau = point.tau
    alpha = point.alpha
    box = range(-cutoff, cutoff + 1)
    total = 0j
    for c in box:
        d, a, b = _completions(c, box)
        denom = c * tau + d
        tau_p = ((a * tau + b) / denom)[:, None]
        alpha_p = (alpha / denom)[:, None]
        # e(2 m l tau') for l = 0 .. cutoff - 1
        steps = np.exp(2 * TWO_PI_I * m * tau_p) ** np.arange(cutoff)
        lam_sum = 1 + sum(
            np.cumprod(np.exp(TWO_PI_I * m * (tau_p + 2 * sign * alpha_p))
                       * steps, axis=1).sum(axis=1) for sign in (1, -1))
        const = np.exp(-TWO_PI_I * m * c * alpha * alpha / denom)
        total += (denom ** (-k) * const * lam_sum).sum()
    return 0.5 * total


# ---------------------------------------------------------------------------
# weak Jacobi forms
# ---------------------------------------------------------------------------

def phi_weak(name, n_q=DEFAULT_Q_ORDER):
    """The standard generators of weak Jacobi forms, as exact series
    (Eichler-Zagier, The Theory of Jacobi Forms, section 3 and Thm 9.3).
    phi_m1_half, phi_m2_1 and phi_10_1 are a power of theta times a power
    of eta, and phi_0_1 and phi_12_1 the heat operator on phi_m2_1 and
    phi_10_1, so no series is inverted:

    * ``phi_m1_half``: weight -1 index 1/2, theta / theta'(tau, 0)
      (leading Taylor coefficient in alpha exactly 1); by Jacobi's
      identity theta'(tau, 0) = 2 pi eta^3, so this is
      theta eta^-3 / (2 pi);
    * ``phi_m2_1``: weight -2 index 1, (2 pi i)^2 phi_m1_half^2 =
      -theta^2 eta^-6;
    * ``phi_0_1``: weight 0 index 1, the heat operator applied to phi_m2_1:
      6 ((y d/dy)^2 - 4 q d/dq) phi_m2_1 - 5 E_2 phi_m2_1, y + 10 + y^-1
      at q^0;
    * ``phi_10_1``: weight 10 index 1, the cusp form Delta phi_m2_1 =
      -theta^2 eta^18, Delta = eta^24 = q prod (1-q^n)^24;
    * ``phi_12_1``: weight 12 index 1, the cusp form Delta phi_0_1, as the
      heat operator at weight 10 applied to phi_10_1:
      6 ((y d/dy)^2 - 4 q d/dq) phi_10_1 + 19 E_2 phi_10_1.

    At weight k the heat operator's E_2 coefficient is 2k - 1; since
    q d/dq Delta = E_2 Delta, the weight-10 operator on Delta phi_m2_1 is
    Delta times the weight -2 one on phi_m2_1.
    """
    if name == "phi_m1_half":
        # theta eta^-3 with both q-offsets (1/8 and -1/8) left out
        series = (_theta_mantissa(n_q) * euler_product(n_q, -3)
                  * Prefactor(b=-1))
        return JacobiForm(name, -1, Fraction(1, 2), series)
    if name in ("phi_m2_1", "phi_10_1"):
        # theta^2 is q^{1/4} times the square of the mantissa: that offset
        # cancels the q^{-1/4} of eta^-6 and makes a whole q with the
        # q^{3/4} of eta^18
        square = _theta_mantissa(n_q) ** 2 * -1
        if name == "phi_m2_1":
            return JacobiForm(name, -2, 1, square * euler_product(n_q, -6))
        q = QYSeries.monomial(1, 1, 0, n_q)
        return JacobiForm(name, 10, 1, square * (euler_product(n_q, 18) * q))
    if name in ("phi_0_1", "phi_12_1"):
        base = phi_weak("phi_m2_1" if name == "phi_0_1" else "phi_10_1", n_q)
        f, k = base.offset_series, base.weight
        series = (6 * (f.y_d_dy().y_d_dy() - 4 * f.q_d_dq())
                  + (2 * k - 1) * eisenstein(2, n_q) * f)
        return JacobiForm(name, k + 2, 1, series)
    raise ValueError(f"unknown weak Jacobi form {name!r}")


# ---------------------------------------------------------------------------
# quasi-periodicity ratios and their Taylor data
# ---------------------------------------------------------------------------

def lemma_ratio(form, t, point):
    """The ratio f(tau, t + alpha) / f(tau, t)."""
    den = form.evaluate(EvalPoint(point.tau, t))
    if abs(den) < 1e-10:
        raise ZeroDivisionError(
            f"evaluation point t = {t} is within 1e-10 of a zero")
    num = form.evaluate(EvalPoint(point.tau, t + point.alpha))
    return num / den


def lemma_shift_residual(form, t, point, lam):
    """Relative residual of the ratio transformation law
    R(t + lam tau) = e^{-4 pi i m lam alpha} R(t)."""
    shifted = lemma_ratio(form, t + lam * point.tau, point)
    base = lemma_ratio(form, t, point)
    factor = cmath.exp(-2.0 * TWO_PI_I * float(form.index) * lam * point.alpha)
    rhs = factor * base
    return abs(shifted - rhs) / max(abs(shifted), abs(rhs), 1e-30)


def quasi_jacobi_coeffs(form, point):
    """The Taylor coefficients (F_0, F_1) of the normalized ratio

        g(t) = [f(tau, t+alpha)/f(tau, t)] * t^{2m} * a_{2m} / f(tau, alpha),

    where 2m is the order of vanishing of f at alpha = 0 and a_{2m} its
    leading Taylor coefficient; g(t) = sum F_i t^i with F_0 = g(0) = 1.
    Extracted by sampling g at 64 points on a circle |t| = 0.02 and taking
    an FFT.  g has no pole at t = -alpha, only a zero, so the circle need
    not shrink with alpha: at alpha = 0.004 it gives F_1 to 1e-14 relative,
    better than a circle of radius alpha / 10.
    """
    two_m = int(2 * form.index)
    fact = math.factorial(two_m)
    a_lead = form.alpha_derivative(two_m, EvalPoint(point.tau)) / fact
    f_alpha = form.evaluate(point)
    ts = 0.02 * np.exp(TWO_PI_I * np.arange(64) / 64)
    vals = np.array([lemma_ratio(form, t, point) * t ** two_m * a_lead
                     / f_alpha for t in ts])
    taylor = np.fft.fft(vals) / len(ts)
    return complex(taylor[0]), complex(taylor[1] / 0.02)


def expected_f1(form, point):
    """The closed-form first Taylor coefficient
    F_1 = f'(alpha)/f(alpha) - f^{(2m+1)}(0) / ((2m+1) f^{(2m)}(0))."""
    two_m = int(2 * form.index)
    zero = EvalPoint(point.tau)
    return (form.alpha_derivative(1, point) / form.evaluate(point)
            - form.alpha_derivative(two_m + 1, zero)
            / ((two_m + 1) * form.alpha_derivative(two_m, zero)))


# ---------------------------------------------------------------------------
# transformation-law verification
# ---------------------------------------------------------------------------

def _transform_residual(form, element, point, value):
    """(lhs, rhs) for one group element at a point where the form takes
    ``value``; the law is lhs = (character) * rhs, a unimodular constant."""
    kind = element[0]
    k = form.weight
    l = float(form.index)
    tau, alpha = point.tau, point.alpha
    if kind == "shift":
        lam, mu = element[1], element[2]
        lhs = form.evaluate(EvalPoint(tau, alpha + lam * tau + mu))
        factor = cmath.exp(-TWO_PI_I * l * (lam * lam * tau + 2 * lam * alpha))
    elif kind == "sl2":
        a, b, c, d = element[1:5]
        if a * d - b * c != 1:
            raise ValueError("not a unimodular matrix")
        denom = c * tau + d
        lhs = form.evaluate(EvalPoint((a * tau + b) / denom, alpha / denom))
        factor = denom ** float(k) * cmath.exp(
            TWO_PI_I * l * c * alpha * alpha / denom)
    else:
        raise ValueError(f"unknown element kind {element[0]!r}")
    return lhs, factor * value


def _element_label(element):
    if element[0] == "shift":
        return f"shift({element[1]},{element[2]})"
    return "sl2({},{};{},{})".format(*element[1:5])


def transformation_check(form, elements, points):
    """The residuals of the Jacobi transformation laws of ``form`` for the
    given group elements at the given points, as (label, point, residual)
    triples.

    For each element a best-fit unimodular character constant is measured
    from the sample points (half-integral index forms transform with a
    nontrivial character); the residual is relative to that constant,
    which is recorded in the element label.  The form is evaluated once at
    each point.
    """
    values = [form.evaluate(p) for p in points]
    out = []
    for element in elements:
        pairs = [_transform_residual(form, element, p, v)
                 for p, v in zip(points, values)]
        num = sum(lhs * rhs.conjugate() for lhs, rhs in pairs)
        char = num / abs(num) if num else 1 + 0j
        label = _element_label(element)
        label_c = f"{label}[char={char.real:+.6f}{char.imag:+.6f}j]"
        for p, (lhs, rhs) in zip(points, pairs):
            resid = abs(lhs - char * rhs) / max(abs(lhs), abs(rhs), 1e-30)
            out.append((label_c, p, resid))
    return out
