"""Elliptic series: Eisenstein coefficient series b_n, annulus expansions of
the multiplicative Weierstrass zeta and p functions, their numeric
evaluators, higher p-functions, and the Grassmann-extended zeta.

Conventions (lattice Z tau + Z, q = e^{2 pi i tau}, x = e^{2 pi i t}):

* ``b_n = (2n+1) sum' gamma^(-2n-2)`` over nonzero lattice points, with the
  conditionally convergent n = 0 case summed row-by-row (inner sum over the
  integer direction first).
* ``zeta_bar(x) = 1/2 + 1/(x-1) + sum_{n != 0} (1/(q^n x - 1) - 1/(q^n - 1))``
* ``p_bar(x) = sum_{n in Z} q^n x / (1 - q^n x)^2`` so that
  ``x d/dx zeta_bar = -p_bar`` holds exactly, coefficient by coefficient.
* ``zeta_tilde(t) = 1/t - b_0 t - b_1 t^3/3 - b_2 t^5/5 - ...`` and
  ``zeta_tilde(t) = 2 pi i zeta_bar(e^{2 pi i t})``.
* ``p_2 = (2 pi i)^2 p_bar`` equals the classical p-function plus b_0;
  ``p_k`` for k >= 3 is the absolutely convergent lattice sum, each row
  summed in closed form by the Lipschitz formula.
"""

from __future__ import annotations

import cmath
import math

import mpmath

from .grassmann import GrassmannNumber, EPS, DELTA
from .series_core import QYSeries, TXSeries, EvalPoint

TWO_PI_I = 2j * math.pi


def divisor_sigma(k, m):
    """Sum of k-th powers of the divisors of m."""
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


class EisensteinRow:
    """The coefficient series b_n of the odd zeta Taylor expansion, as a
    q-series with its transcendental constant term."""

    __slots__ = ("n", "series")

    def __init__(self, n, series):
        self.n = n
        self.series = series

    def evaluate(self, point):
        return self.series.evaluate(point)


def eisenstein_b(n, n_q):
    """b_n as a q-series: (2n+1) times the weight-(2n+2) Eisenstein series,
    b_n = (2n+1)[2 zeta(2n+2)
          + (2 (2 pi i)^{2n+2} / (2n+1)!) sum_m sigma_{2n+1}(m) q^m].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    w = 2 * n + 2
    const = (2 * n + 1) * 2.0 * float(mpmath.zeta(w))
    two_pi_i_w = TWO_PI_I ** w
    factor = (2 * n + 1) * 2.0 * two_pi_i_w / math.factorial(2 * n + 1)
    coeffs = {(0, 0): const}
    for m in range(1, n_q + 1):
        coeffs[(m, 0)] = factor * divisor_sigma(2 * n + 1, m)
    return EisensteinRow(n, QYSeries(coeffs, q_order=n_q))


# ---------------------------------------------------------------------------
# annulus expansions (valid for |q| < |x| < 1)
# ---------------------------------------------------------------------------

def _recip_qmx_minus_1(m, n_x, n_q, t_range):
    """Expansion of 1/(q^m x - 1) in the annulus |q| < |x| < 1."""
    out = TXSeries.zero(n_q, t_range)
    if m >= 0:
        # -(sum_{k>=0} q^{mk} x^k)
        k = 0
        while (m * k) <= n_q and k <= n_x:
            out._set(k, m * k, -1.0)
            if m == 0 and k == n_x:
                break
            k += 1
    else:
        p = -m
        # sum_{k>=1} q^{pk} x^{-k}
        k = 1
        while p * k <= n_q and k <= n_x:
            out._set(-k, p * k, 1.0)
            k += 1
    return out


def _qmx_over_sq(m, n_x, n_q, t_range):
    """Expansion of q^m x / (1 - q^m x)^2 in the annulus |q| < |x| < 1."""
    out = TXSeries.zero(n_q, t_range)
    if m >= 0:
        k = 1
        while m * k <= n_q and k <= n_x:
            out._set(k, m * k, float(k))
            if m == 0 and k == n_x:
                break
            k += 1
    else:
        p = -m
        k = 1
        while p * k <= n_q and k <= n_x:
            out._set(-k, p * k, float(k))
            k += 1
    return out


def zeta_bar_series(n_x, n_q, shift=0):
    """Annulus expansion of zeta_bar(q^shift x) as a TXSeries (t plays x).

    The defining sum is expanded term by term without re-indexing, so the
    quasi-periodicity zeta_bar(q x) = zeta_bar(x) - 1 is a nontrivial check.
    """
    n_big = n_q + abs(shift) + 2
    out = TXSeries.monomial(0.5, 0, 0, n_q, n_x)
    for n in range(-n_big, n_big + 1):
        out = out + _recip_qmx_minus_1(n + shift, n_x, n_q, n_x)
        if n != 0:
            # constant term -1/(q^n - 1)
            c = TXSeries.zero(n_q, n_x)
            if n >= 1:
                k = 0
                while n * k <= n_q:
                    c._set(0, n * k, 1.0)  # -(-sum q^{nk})
                    if n == 0:
                        break
                    k += 1
            else:
                p = -n
                k = 1
                while p * k <= n_q:
                    c._set(0, p * k, -1.0)
                    k += 1
            out = out + c
    return out


def p_bar_series(n_x, n_q, shift=0):
    """Annulus expansion of p_bar(q^shift x) as a TXSeries."""
    n_big = n_q + abs(shift) + 2
    out = TXSeries.zero(n_q, n_x)
    for n in range(-n_big, n_big + 1):
        out = out + _qmx_over_sq(n + shift, n_x, n_q, n_x)
    return out


def p_bar_constant_series(n_q):
    """The q-series 1/12 + b_0/(2 pi i)^2 = 2 sum_m sigma_1(m) q^m, the
    additive normalization constant relating p_bar to the classical
    p-function: p_2 = p + b_0 = (2 pi i)^2 p_bar."""
    coeffs = {(m, 0): 2 * divisor_sigma(1, m) for m in range(1, n_q + 1)}
    return QYSeries(coeffs, q_order=n_q)


def zeta_tilde_taylor(n_t, n_q):
    """Laurent expansion of the odd zeta function around t = 0:
    1/t - b_0 t - b_1 t^3 / 3 - b_2 t^5 / 5 - ...  (TXSeries in t)."""
    out = TXSeries.monomial(1.0, -1, 0, n_q, n_t)
    n = 0
    while 2 * n + 1 <= n_t:
        b = eisenstein_b(n, n_q).series
        for m, _, c in b.terms():
            out._set(2 * n + 1, m, out.coeff(2 * n + 1, m)
                     - c / (2 * n + 1))
        n += 1
    return out


# ---------------------------------------------------------------------------
# numeric evaluators (partial-fraction sums; geometric convergence, valid for
# any x off the poles x = q^n, not only inside the annulus)
# ---------------------------------------------------------------------------

_MAX_SHELLS = 5000


def _shell_sum(term, tol):
    """Sum term(n) for n = 1, 2, ... until several consecutive terms are
    negligible."""
    total = 0j
    quiet = 0
    for n in range(1, _MAX_SHELLS + 1):
        t = term(n)
        total += t
        if abs(t) <= tol * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise RuntimeError("partial-fraction sum failed to converge")


def zeta_bar_eval(x, q, tol=1e-14):
    """Numeric zeta_bar(x) by the defining partial-fraction sum."""
    if abs(q) >= 1.0:
        raise ValueError("|q| must be < 1")
    base = 0.5 + 1.0 / (x - 1.0)

    def term(n):
        qn = q ** n
        pos = 1.0 / (qn * x - 1.0) - 1.0 / (qn - 1.0)
        neg = qn / (x - qn) - qn / (1.0 - qn)
        return pos + neg

    return base + _shell_sum(term, tol)


def p_bar_eval(x, q, tol=1e-14):
    """Numeric p_bar(x) = sum_n q^n x / (1 - q^n x)^2."""
    if abs(q) >= 1.0:
        raise ValueError("|q| must be < 1")
    base = x / (1.0 - x) ** 2

    def term(n):
        qn = q ** n
        pos = qn * x / (1.0 - qn * x) ** 2
        neg = (qn / x) / (1.0 - qn / x) ** 2
        return pos + neg

    return base + _shell_sum(term, tol)


def p_bar_prime_eval(x, q, tol=1e-14):
    """Numeric d/dx p_bar(x)."""
    if abs(q) >= 1.0:
        raise ValueError("|q| must be < 1")
    base = (1.0 + x) / (1.0 - x) ** 3

    def term(n):
        qn = q ** n
        pos = qn * (1.0 + qn * x) / (1.0 - qn * x) ** 3
        neg = qn * (qn + x) / (qn - x) ** 3
        return pos + neg

    return base + _shell_sum(term, tol)


def zeta_tilde_eval(t, tau, tol=1e-14):
    """Numeric odd zeta zeta_tilde(t) = 2 pi i zeta_bar(e^{2 pi i t})."""
    q = cmath.exp(TWO_PI_I * tau)
    return TWO_PI_I * zeta_bar_eval(cmath.exp(TWO_PI_I * t), q, tol)


def _eulerian(n):
    """The Eulerian numbers A(n, 0..n-1) (A(0, 0) = 1), the coefficients of
    the polynomial A_n with w A_n(w) / (1 - w)^(n+1) = sum_{d>=1} d^n w^d."""
    row = [1]
    for m in range(1, n + 1):
        row = [(j + 1) * (row[j] if j < len(row) else 0)
               + (m - j) * (row[j - 1] if j else 0) for j in range(m)]
    return row


def wp_numeric(k, tau, alpha, tol=1e-13):
    """The k-th multiplicative Weierstrass function at (tau, alpha):

    k = 1: the odd zeta function zeta_tilde(alpha);
    k = 2: (2 pi i)^2 p_bar(e^{2 pi i alpha}) (classical p plus b_0);
    k >= 3: the absolutely convergent lattice sum
            sum_{(m,n)} (alpha + m tau + n)^{-k}.  By the Lipschitz formula
            each row is sum_n (z + n)^{-k} = ((-2 pi i)^k / (k-1)!)
            Li_{1-k}(w), w = e^{2 pi i z}, and Li_{1-k}(w) is the rational
            function w A_{k-1}(w) / (1 - w)^k (Eulerian polynomial A); the
            inversion Li_{1-k}(1/w) = (-1)^k Li_{1-k}(w) folds row -m onto
            w = q^m / x, so the rows form one partial-fraction shell sum.
    """
    tau = complex(tau)
    alpha = complex(alpha)
    if k == 1:
        return zeta_tilde_eval(alpha, tau, tol)
    q = cmath.exp(TWO_PI_I * tau)
    x = cmath.exp(TWO_PI_I * alpha)
    if k == 2:
        return TWO_PI_I ** 2 * p_bar_eval(x, q, tol)
    if k < 1:
        raise ValueError("k must be >= 1")
    eulerian = _eulerian(k - 1)
    sign = (-1) ** k

    def polylog(w):
        """Li_{1-k}(w)."""
        return (w * sum(c * w ** j for j, c in enumerate(eulerian))
                / (1.0 - w) ** k)

    def term(m):
        qm = q ** m
        return polylog(qm * x) + sign * polylog(qm / x)

    return ((-TWO_PI_I) ** k / math.factorial(k - 1)
            * (polylog(x) + _shell_sum(term, tol)))


def wp_lattice_direct(k, tau, alpha, cutoff):
    """Raw truncated double lattice sum for p_k (k >= 3); slowly convergent,
    kept as an independent cross-check of wp_numeric."""
    if k < 3:
        raise ValueError("direct double sum requires k >= 3")
    tau = complex(tau)
    alpha = complex(alpha)
    total = 0j
    for m in range(-cutoff, cutoff + 1):
        for n in range(-cutoff, cutoff + 1):
            total += (alpha + m * tau + n) ** (-k)
    return total


# ---------------------------------------------------------------------------
# Grassmann-extended zeta
# ---------------------------------------------------------------------------

def _grassmann_taylor(f, fprime, x):
    """Apply a scalar function to a Grassmann-even argument via first-order
    Taylor expansion (the nilpotent part squares to zero)."""
    x = GrassmannNumber._coerce(x)
    x0 = x.body
    n = x.nilpotent()
    return GrassmannNumber(f(x0)) + n * fprime(x0)


def zeta_bar_g(x, q, tol=1e-14):
    """zeta_bar at a Grassmann-even argument; zeta_bar' = -p_bar(x)/x."""
    return _grassmann_taylor(
        lambda v: zeta_bar_eval(v, q, tol),
        lambda v: -p_bar_eval(v, q, tol) / v,
        x)


def p_bar_g(x, q, tol=1e-14):
    """p_bar at a Grassmann-even argument."""
    return _grassmann_taylor(
        lambda v: p_bar_eval(v, q, tol),
        lambda v: p_bar_prime_eval(v, q, tol),
        x)


def super_zeta(x, theta, q, y, eps=EPS, delta=DELTA, tol=1e-14):
    """The Grassmann-extended zeta function of the pair (x, theta):

    Z = zeta_bar(x) (1 - eps delta p_bar(x)/(1-y))
        + theta eps p_bar(x) / ((1-y) x).

    ``x`` may be a Grassmann-even element (complex body plus nilpotent part),
    ``theta`` an odd element; ``q`` and ``y`` are complex scalars.
    """
    x = GrassmannNumber._coerce(x)
    theta = GrassmannNumber._coerce(theta)
    zb = zeta_bar_g(x, q, tol)
    pb = p_bar_g(x, q, tol)
    one_minus_y = 1.0 - complex(y)
    if one_minus_y == 0:
        raise ZeroDivisionError("y = 1 is a pole of the extended zeta")
    return (zb * (GrassmannNumber(1.0) - eps * delta * pb * (1.0 / one_minus_y))
            + theta * eps * pb * x.inverse() * (1.0 / one_minus_y))


def z_action(x, theta, q, y, eps=EPS, delta=DELTA):
    """One step of the integer action on the pair (x, theta):
    (x, theta) -> (q (x + eps theta), q (y - eps delta) theta + q delta x)."""
    x = GrassmannNumber._coerce(x)
    theta = GrassmannNumber._coerce(theta)
    q = complex(q)
    y = complex(y)
    x_new = (x + eps * theta) * q
    theta_new = (GrassmannNumber(y) - eps * delta) * theta * q + delta * x * q
    return x_new, theta_new


def super_zeta_lemma_residual(x, theta, q, y, eps=EPS, delta=DELTA,
                              tol=1e-14):
    """Residual of the quasi-periodicity Z(q . (x, theta)) = Z(x, theta) - 1
    under the integer action; returns the max component deviation."""
    x2, theta2 = z_action(x, theta, q, y, eps, delta)
    lhs = super_zeta(x2, theta2, q, y, eps, delta, tol)
    rhs = super_zeta(x, theta, q, y, eps, delta, tol) - 1.0
    return (lhs - rhs).max_abs()
