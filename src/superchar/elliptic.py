"""Elliptic series: Eisenstein series E_k and b_n, annulus expansions of
the multiplicative Weierstrass zeta and p functions, their numeric
evaluators, higher p-functions, and the Grassmann-extended zeta.

Conventions (lattice Z tau + Z, q = e^{2 pi i tau}, x = e^{2 pi i t}):

* Every expansion is an exact ``QYSeries`` in which y stands for x
  (annulus expansions) or for u = 2 pi i t (the Laurent expansion of
  zeta_tilde), at integral exponents: the coefficient of x^k q^n is
  ``coeff(n, 2 k)``.
* ``b_n = (2n+1) sum' gamma^(-2n-2)`` over nonzero lattice points, with the
  conditionally convergent n = 0 case summed row-by-row (inner sum over the
  integer direction first); it is (2n+1) 2 zeta(2n+2) E_{2n+2}.
* ``zeta_bar(x) = 1/2 + 1/(x-1) + sum_{n != 0} (1/(q^n x - 1) - 1/(q^n - 1))``
* Every numeric value is one Lipschitz row sum
  ``S_k(x) = sum_{n in Z} Li_{1-k}(q^n x)`` (k >= 1), where
  ``Li_{1-k}(w) = sum_{d>=1} d^(k-1) w^d = w A_{k-1}(w) / (1 - w)^k``
  (Eulerian polynomial A) and the n < 0 terms fold onto q^m / x through
  ``Li_{1-k}(1/w) = (-1)^k Li_{1-k}(w)``.  For k = 1 that inversion leaves
  a constant -1 per term, which the -1/(q^n - 1) of zeta_bar cancels.  So
  ``zeta_bar = -1/2 - S_1``, ``p_bar = S_2`` (hence ``x d/dx zeta_bar =
  -p_bar``, coefficient by coefficient in the annulus series) and
  ``p_bar' = S_3 / x``.  Each evaluator returns (value, bound): the error
  bound of its row sum times the modulus of the factor applied to it.
* ``zeta_tilde(t) = 1/t - b_0 t - b_1 t^3/3 - b_2 t^5/5 - ...`` and
  ``zeta_tilde(t) = 2 pi i zeta_bar(e^{2 pi i t})``.  With u = 2 pi i t and
  b_n = (2n+1) (2 pi i)^(2n+2) beta_n this is
  ``2 pi i (1/u - beta_0 u - beta_1 u^3 - ...)`` with rational q-series
  beta_n.
* ``p_k = ((-2 pi i)^k / (k-1)!) S_k`` for k >= 2 is the lattice sum
  ``sum_{(m,n)} (alpha + m tau + n)^(-k)``, each row summed in closed form
  by the Lipschitz formula ``sum_n (z + n)^(-k) = ((-2 pi i)^k / (k-1)!)
  Li_{1-k}(e^{2 pi i z})``; ``p_2`` is the classical p-function plus b_0.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .grassmann import GrassmannNumber, EPS, DELTA
from .series_core import EXACT_TWO_PI_I, Prefactor, QYSeries

TWO_PI_I = 2j * math.pi


def divisor_sigma(k, m):
    """Sum of k-th powers of the divisors of m."""
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


@functools.lru_cache(maxsize=None)
def bernoulli(w):
    """The Bernoulli number B_w (with B_1 = -1/2) as a Fraction, by the
    Akiyama-Tanigawa recurrence (M. Kaneko, "The Akiyama-Tanigawa algorithm
    for Bernoulli numbers", J. Integer Seq. 3, 2000), which yields B_1 with
    the opposite sign."""
    row = []
    for m in range(w + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return -row[0] if w == 1 else row[0]


def eisenstein(k, n_q):
    """The Eisenstein series E_k = 1 - (2k / B_k) sum_m sigma_{k-1}(m) q^m of
    even weight k >= 2 (E_2 is quasimodular), as an exact q-series."""
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    c = -2 * k / bernoulli(k)
    # int coefficients build the series about twice as fast as Fractions
    c = int(c) if c.denominator == 1 else c
    coeffs = {(m, 0): c * divisor_sigma(k - 1, m) for m in range(1, n_q + 1)}
    coeffs[(0, 0)] = 1
    return QYSeries(coeffs, n_q)


def eisenstein_b(n, n_q):
    """b_n = (2n+1) 2 zeta(w) E_w, w = 2n+2, as an exact q-series, with
    2 zeta(w) = (-B_w / w!) (2 pi i)^w."""
    if n < 0:
        raise ValueError("n must be >= 0")
    w = 2 * n + 2
    r = (2 * n + 1) * -bernoulli(w) / math.factorial(w)
    return eisenstein(w, n_q) * Prefactor(r, w, w)


# ---------------------------------------------------------------------------
# annulus expansions (valid for |q| < |x| < 1)
# ---------------------------------------------------------------------------

def zeta_bar_series(n_x, n_q, shift=0):
    """Annulus expansion of zeta_bar(q^shift x) to x^(+-n_x) and q^n_q, with
    integer coefficients and the constant 1/2.

    The defining sum is expanded term by term without re-indexing, so the
    quasi-periodicity zeta_bar(q x) = zeta_bar(x) - 1 is a nontrivial check.
    """
    coeffs = {(0, 0): Fraction(1, 2)}

    def add(n, k, c):
        coeffs[(n, 2 * k)] = coeffs.get((n, 2 * k), 0) + c

    n_big = n_q + abs(shift) + 2
    for n in range(-n_big, n_big + 1):
        m = n + shift
        # 1/(q^m x - 1) = -sum_{k>=0} (q^m x)^k if m >= 0, else
        # sum_{k>=1} (q^-m / x)^k
        for k in range(0 if m >= 0 else 1, n_x + 1):
            if abs(m) * k > n_q:
                break
            add(abs(m) * k, k if m >= 0 else -k, -1 if m >= 0 else 1)
        # -1/(q^n - 1): the same expansion at x = 1, with no bound on k
        if n:
            for k in range(0 if n > 0 else 1, n_q // abs(n) + 1):
                add(abs(n) * k, 0, 1 if n > 0 else -1)
    return QYSeries(coeffs, n_q)


def p_bar_series(n_x, n_q, shift=0):
    """Annulus expansion of p_bar(q^shift x) to x^(+-n_x) and q^n_q, with
    integer coefficients: q^m x / (1 - q^m x)^2 = sum_{k>=1} k (q^m x)^k if
    m >= 0, else sum_{k>=1} k (q^-m / x)^k."""
    coeffs = {}
    n_big = n_q + abs(shift) + 2
    for n in range(-n_big, n_big + 1):
        m = n + shift
        for k in range(1, n_x + 1):
            if abs(m) * k > n_q:
                break
            key = (abs(m) * k, 2 * k if m >= 0 else -2 * k)
            coeffs[key] = coeffs.get(key, 0) + k
    return QYSeries(coeffs, n_q)


def zeta_tilde_taylor(n_t, n_q):
    """Laurent expansion of the odd zeta function around t = 0 to u^n_t,
    exact, with y in the role of u = 2 pi i t:
    2 pi i (1/u - beta_0 u - beta_1 u^3 - ...), where
    beta_n = b_n / ((2n+1) (2 pi i)^(2n+2)) is a rational q-series."""
    out = QYSeries.monomial(1, 0, -2, n_q)
    n = 0
    while 2 * n + 1 <= n_t:
        w = 2 * n + 2
        beta = eisenstein(w, n_q) * (-bernoulli(w) / math.factorial(w))
        out = out - beta * QYSeries.monomial(1, 0, 4 * n + 2, n_q)
        n += 1
    return out * EXACT_TWO_PI_I


# ---------------------------------------------------------------------------
# numeric evaluators: the Lipschitz row sum S_k (geometric convergence,
# valid for any x off the poles x = q^n, not only inside the annulus)
# ---------------------------------------------------------------------------

_MAX_SHELLS = 5000
#: a row sum stops after three consecutive shells below this fraction of
#: (1 - |q|) max(1, |sum so far|)
_SHELL_TOL = 1e-14


@functools.lru_cache(maxsize=None)
def _eulerian(n):
    """The Eulerian numbers A(n, 0..n-1) (A(0, 0) = 1), the coefficients of
    the polynomial A_n with w A_n(w) / (1 - w)^(n+1) = sum_{d>=1} d^n w^d.
    The row is a palindrome, so Horner's rule may read it either way."""
    row = (1,)
    for m in range(1, n + 1):
        row = tuple((j + 1) * (row[j] if j < len(row) else 0)
                    + (m - j) * (row[j - 1] if j else 0) for j in range(m))
    return row


def _shell_sum(k, x, q):
    """(S, bound): S = Li_{1-k}(x) + sum_{m>=1} (Li_{1-k}(q^m x)
    + (-1)^k Li_{1-k}(q^m / x)), summed until three consecutive shells are
    below tol (1 - |q|) with tol = _SHELL_TOL max(1, |S|), so that the tail
    they leave off, shrinking like |q|^m, is about tol; and a bound on its
    error: the rounding level 2^-52 sum |Li| plus tol / (1 - |q|)."""
    gap = 1.0 - abs(q)
    if gap <= 0.0:
        raise ValueError("|q| must be < 1")
    eulerian = _eulerian(k - 1)
    sign = (-1) ** k

    def polylog(w):
        """Li_{1-k}(w)."""
        a = 0
        for c in eulerian:
            a = a * w + c
        return w * a / (1.0 - w) ** k

    total = polylog(x)
    size = abs(total)
    quiet = 0
    for m in range(1, _MAX_SHELLS + 1):
        qm = q ** m
        inner, outer = polylog(qm * x), polylog(qm / x)
        t = inner + sign * outer
        total += t
        size += abs(inner) + abs(outer)
        tol = _SHELL_TOL * max(1.0, abs(total))
        if abs(t) <= tol * gap:
            quiet += 1
            if quiet >= 3:
                return total, 2.0 ** -52 * size + tol / gap
        else:
            quiet = 0
    raise ValueError(f"the lattice sum did not converge in {_MAX_SHELLS} "
                     f"shells at |q| = {abs(q):.6g}: Im tau is too small")


def zeta_bar_eval(x, q):
    """Numeric zeta_bar(x) = -1/2 - S_1(x)."""
    s, bound = _shell_sum(1, x, q)
    return -0.5 - s, bound


def p_bar_eval(x, q):
    """Numeric p_bar(x) = S_2(x) = sum_n q^n x / (1 - q^n x)^2."""
    return _shell_sum(2, x, q)


def zeta_tilde_eval(t, tau):
    """Numeric odd zeta zeta_tilde(t) = 2 pi i zeta_bar(e^{2 pi i t})."""
    q = cmath.exp(TWO_PI_I * tau)
    value, bound = zeta_bar_eval(cmath.exp(TWO_PI_I * t), q)
    return TWO_PI_I * value, 2 * math.pi * bound


def wp_numeric(k, tau, alpha):
    """The k-th multiplicative Weierstrass function at (tau, alpha):
    zeta_tilde(alpha) for k = 1, else the lattice sum
    ((-2 pi i)^k / (k-1)!) S_k(e^{2 pi i alpha}) (for k = 2 the classical
    p plus b_0, (2 pi i)^2 p_bar)."""
    tau = complex(tau)
    alpha = complex(alpha)
    if k == 1:
        return zeta_tilde_eval(alpha, tau)
    if k < 1:
        raise ValueError("k must be >= 1")
    q = cmath.exp(TWO_PI_I * tau)
    x = cmath.exp(TWO_PI_I * alpha)
    factor = (-TWO_PI_I) ** k / math.factorial(k - 1)
    s, bound = _shell_sum(k, x, q)
    return factor * s, abs(factor) * bound


# ---------------------------------------------------------------------------
# Grassmann-extended zeta on the (1|1) superline of EPS and DELTA
# ---------------------------------------------------------------------------

def super_zeta(x, theta, q, y):
    """The Grassmann-extended zeta function of the pair (x, theta):

    Z = zeta_bar(x) (1 - eps delta p_bar(x)/(1-y))
        + theta eps p_bar(x) / ((1-y) x).

    ``x`` may be a Grassmann-even element (complex body plus nilpotent part),
    ``theta`` an odd element; ``q`` and ``y`` are complex scalars.
    """
    x = GrassmannNumber._coerce(x)
    theta = GrassmannNumber._coerce(theta)
    one_minus_y = 1 - y
    if one_minus_y == 0:
        raise ZeroDivisionError("y = 1 is a pole of the extended zeta")
    # zeta_bar and p_bar at x = x0 + n to first order in the nilpotent n
    # (n^2 = 0), with zeta_bar' = -p_bar / x and p_bar' = S_3 / x
    x0, n = x.body, x.nilpotent()
    s1, s2, s3 = (_shell_sum(k, x0, q)[0] for k in (1, 2, 3))
    zb = GrassmannNumber(-0.5 - s1) + n * (-s2 / x0)
    pb = GrassmannNumber(s2) + n * (s3 / x0)
    return (zb * (GrassmannNumber(1) - EPS * DELTA * pb * (1 / one_minus_y))
            + theta * EPS * pb * x.inverse() * (1 / one_minus_y))


def z_action(x, theta, q, y):
    """One step of the integer action on the pair (x, theta):
    (x, theta) -> (q (x + eps theta), q (y - eps delta) theta + q delta x)."""
    x = GrassmannNumber._coerce(x)
    theta = GrassmannNumber._coerce(theta)
    x_new = (x + EPS * theta) * q
    theta_new = (GrassmannNumber(y) - EPS * DELTA) * theta * q + DELTA * x * q
    return x_new, theta_new


def super_zeta_lemma_residual(x, theta, q, y):
    """Residual of the quasi-periodicity Z(q . (x, theta)) = Z(x, theta) - 1
    under the integer action; returns the max component deviation."""
    x2, theta2 = z_action(x, theta, q, y)
    lhs = super_zeta(x2, theta2, q, y)
    rhs = super_zeta(x, theta, q, y) - 1
    return (lhs - rhs).max_abs()
