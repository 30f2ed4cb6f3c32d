"""Exact references the benchmark checks the package's outputs against.

Two-variable series are dicts {(n, r2): int} for the monomial q^n y^(r2/2),
truncated above q-order N, the same keying the package's JSON output uses.
Everything here is Python integer arithmetic (or mpmath for the numeric
evaluators), so it shares no code path with the float series kernel.
"""

from __future__ import annotations

import math

import mpmath


# ---------------------------------------------------------------------------
# one-variable integer q-series (lists indexed by the q-exponent)
# ---------------------------------------------------------------------------

def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def qmul(a, b, n_q):
    out = [0] * (n_q + 1)
    for i, x in enumerate(a[:n_q + 1]):
        if x:
            for j, y in enumerate(b[:n_q + 1 - i]):
                out[i + j] += x * y
    return out


def qpow(a, k, n_q):
    out = [1] + [0] * n_q
    for _ in range(k):
        out = qmul(out, a, n_q)
    return out


def euler_power(k, n_q):
    """prod_{n>=1} (1 - q^n)^k for any integer k, by multiplying (k > 0) or
    dividing (k < 0) by one binomial at a time."""
    out = [1] + [0] * n_q
    for n in range(1, n_q + 1):
        for _ in range(abs(k)):
            if k > 0:
                for m in range(n_q, n - 1, -1):
                    out[m] -= out[m - n]
            else:
                for m in range(n, n_q + 1):
                    out[m] += out[m - n]
    return out


def eisenstein(weight, n_q):
    """E4 or E6 with the constant term normalized to 1."""
    scale = {4: 240, 6: -504}[weight]
    return [1] + [scale * sigma(weight - 1, m) for m in range(1, n_q + 1)]


def theta_e8_power(k, n_q):
    """Theta series of the orthogonal sum of k copies of E8: E4^k, since the
    theta series of E8 is E4 and theta series multiply under orthogonal
    sums."""
    return qpow(eisenstein(4, n_q), k, n_q)


def theta_d4(n_q):
    """D4 root lattice: 24 times the sum of the odd divisors of n."""
    return [1] + [24 * sum(d for d in range(1, m + 1, 2) if m % d == 0)
                  for m in range(1, n_q + 1)]


def theta_a2(n_q):
    """A2 root lattice: 6 (d_{1,3}(n) - d_{2,3}(n))."""
    out = [1]
    for m in range(1, n_q + 1):
        divs = [d for d in range(1, m + 1) if m % d == 0]
        out.append(6 * (sum(1 for d in divs if d % 3 == 1)
                        - sum(1 for d in divs if d % 3 == 2)))
    return out


LATTICE_THETAS = {
    "E8": (8, lambda n_q: theta_e8_power(1, n_q)),
    "E8^2": (16, lambda n_q: theta_e8_power(2, n_q)),
    "E8^3": (24, lambda n_q: theta_e8_power(3, n_q)),
    "D4": (4, theta_d4),
    "A2": (2, theta_a2),
}


# ---------------------------------------------------------------------------
# two-variable integer series {(n, r2): c}
# ---------------------------------------------------------------------------

def smul(a, b, n_q):
    out = {}
    for (n1, r1), c1 in a.items():
        for (n2, r2), c2 in b.items():
            n = n1 + n2
            if n <= n_q:
                key = (n, r1 + r2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def spow(a, k, n_q):
    out = {(0, 0): 1}
    for _ in range(k):
        out = smul(out, a, n_q)
    return out


def times_q_series(a, series, n_q):
    """a(q, y) * s(q) for a one-variable series s."""
    return smul(a, {(m, 0): c for m, c in enumerate(series) if c}, n_q)


def shift(a, dn, dr2, n_q):
    return {(n + dn, r2 + dr2): c for (n, r2), c in a.items()
            if n + dn <= n_q}


def triple_product(n_q):
    """prod_{n>=1} (1 - q^n)(1 - y q^n)(1 - y^{-1} q^{n-1}) as an integer
    product (y-exponents doubled), one binomial factor at a time."""
    out = {(0, 0): 1}
    for n in range(1, n_q + 2):
        for dn, dr2 in ((n, 0), (n, 2), (n - 1, -2)):
            if dn > n_q:
                continue
            step = dict(out)
            for (m, r2), c in out.items():
                if m + dn <= n_q:
                    key = (m + dn, r2 + dr2)
                    step[key] = step.get(key, 0) - c
            out = {k: c for k, c in step.items() if c}
    return out


def character(lattice, n_q):
    """The product-form supertrace character of the named lattice,

        y^{r/4} [prod (1 - y q^n)(1 - y^{-1} q^{n-1}) / (1 - q^n)^2]^{r/2}
            * Theta_L(q)
        = y^{r/4} T^{r/2} prod (1 - q^n)^{-3r/2} Theta_L

    with T the triple product above.  Returns (rank, coefficients,
    majorant); the majorant is the same product with every sign made
    positive, a coefficientwise bound on |c| of every partial product, so a
    float pipeline that multiplies these factors errs by at most a few ulps
    of it."""
    rank, theta = LATTICE_THETAS[lattice]
    tail = qmul(euler_power(-3 * rank // 2, n_q), theta(n_q), n_q)
    t = triple_product(n_q)

    def product(base):
        osc = spow(base, rank // 2, n_q)
        return shift(times_q_series(osc, tail, n_q), 0, rank // 2, n_q)

    return rank, product(t), product(_abs(t))


def _abs(a):
    return {k: abs(c) for k, c in a.items()}


def _one_var(series, n_q):
    return {(m, 0): c for m, c in enumerate(series[:n_q + 1]) if c}


def series_reference(name, n_q):
    """(q_offset, scale, coefficients, majorant) of the CLI ``series``
    output: each output coefficient should equal scale * c exactly."""
    t = triple_product(n_q)
    if name == "eta":
        ref = _one_var(euler_power(1, n_q), n_q)
        return "1/24", 1, ref, _abs(ref)
    if name == "theta":
        # -i y^{1/2} T (offset q^{1/8}) by the triple product identity
        ref = shift(t, 0, 1, n_q)
        return "1/8", -1j, ref, _abs(ref)
    if name == "discriminant":
        ref = shift(_one_var(euler_power(24, n_q), n_q), 1, 0, n_q)
        return "0", 1, ref, _abs(ref)
    if name in ("e4", "e6"):
        ref = _one_var(eisenstein(int(name[1]), n_q), n_q)
        return "0", 1, ref, _abs(ref)
    if name == "triple_product":
        return "0", 1, t, _abs(t)
    if name == "phi_m1_half":
        # (y^{1/2} - y^{-1/2}) prod (1-yq^n)(1-y^{-1}q^n)/(1-q^n)^2 / (2 pi i)
        p3 = euler_power(-3, n_q)
        ref = shift(times_q_series(t, p3, n_q), 0, 1, n_q)
        maj = shift(times_q_series(_abs(t), p3, n_q), 0, 1, n_q)
        return "0", 1 / (2j * math.pi), ref, maj
    if name in ("phi_m2_1", "phi_10_1"):
        # phi_{-2,1} = y T^2 prod (1-q^n)^{-6}; phi_{10,1} = Delta phi_{-2,1}
        if name == "phi_m2_1":
            tail, dn = euler_power(-6, n_q), 0
            tail_maj = tail
        else:
            tail, dn = euler_power(18, n_q), 1
            # bound the two factors Delta and phi_{-2,1} separately
            tail_maj = qmul(euler_power(-6, n_q),
                            [abs(c) for c in euler_power(24, n_q)], n_q)
        ref = shift(times_q_series(smul(t, t, n_q), tail, n_q), dn, 2, n_q)
        at = _abs(t)
        maj = shift(times_q_series(smul(at, at, n_q), tail_maj, n_q),
                    dn, 2, n_q)
        return "0", 1, ref, maj
    raise ValueError(f"no reference for series {name!r}")


def prefix_max(coeffs, n_q):
    """M[n] = max |c| over all keys with q-exponent <= n."""
    row = [0] * (n_q + 1)
    for (n, _), c in coeffs.items():
        if 0 <= n <= n_q:
            row[n] = max(row[n], abs(c))
    out, best = [], 0
    for v in row:
        best = max(best, v)
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# numeric references for ``superchar eval`` (mpmath theta functions)
# ---------------------------------------------------------------------------

def eval_reference(name, tau, alpha, dps=30):
    """The value of the named function at (tau, alpha) from Jacobi theta
    functions, q = e^{2 pi i tau}, y = e^{2 pi i alpha}."""
    with mpmath.workdps(dps):
        tau = mpmath.mpc(tau)
        alpha = mpmath.mpc(alpha)
        pi = mpmath.pi
        nome = mpmath.exp(1j * pi * tau)
        q = nome ** 2
        z = pi * alpha
        eta = mpmath.exp(2j * pi * tau / 24) * mpmath.qp(q)
        if name == "e4":
            th = [mpmath.jtheta(i, 0, nome) for i in (2, 3, 4)]
            return complex(sum(t ** 8 for t in th) / 2)
        if name in ("phi_m2_1", "phi_10_1"):
            phi = -mpmath.jtheta(1, z, nome) ** 2 / eta ** 6
            return complex(phi if name == "phi_m2_1" else phi * eta ** 24)
        if name in ("phi_0_1", "phi_12_1"):
            phi = 4 * sum((mpmath.jtheta(i, z, nome)
                           / mpmath.jtheta(i, 0, nome)) ** 2
                          for i in (2, 3, 4))
            return complex(phi if name == "phi_0_1" else phi * eta ** 24)
        # the odd zeta function and its derivatives are derivatives of
        # log theta_1(pi alpha): g^(j) below is (d/dz)^(j+1) log theta_1
        f = [mpmath.jtheta(1, z, nome, k) for k in range(5)]
        g = f[1] / f[0]
        a2, a3, a4 = f[2] / f[0], f[3] / f[0], f[4] / f[0]
        if name == "zeta_bar":
            return complex(pi * g / (2j * pi))
        if name == "wp1":
            return complex(pi * g)
        if name == "wp2":
            return complex(-pi ** 2 * (a2 - g ** 2))
        if name == "wp3":
            return complex(pi ** 3 * (a3 - 3 * a2 * g + 2 * g ** 3) / 2)
        if name == "wp4":
            g3 = (a4 - 4 * a3 * g - 3 * a2 ** 2 + 12 * a2 * g ** 2
                  - 6 * g ** 4)
            return complex(-pi ** 4 * g3 / 6)
    raise ValueError(f"no reference for function {name!r}")
