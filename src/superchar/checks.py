"""The verification checks, one function per suite, shared by
``superchar verify`` and the acceptance tests.

Each suite function returns VerificationRows labelled with the suite's
name; this is the one module that builds rows, from the series and
residuals the other modules compute.  Where the acceptance tests check at
other accuracy than ``verify`` (q-order, mode windows, points), the
function takes those parameters; the defaults are what ``verify`` runs.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import random
import time
from fractions import Fraction

from . import characters as ch
from . import elliptic as el
from . import grassmann as gr
from . import jacobi_forms as jf
from . import superconformal as sc
from .grassmann import DELTA, EPS, GrassmannNumber, SuperMatrix, odd
from .report import VerificationRow as Row
from .series_core import EXACT_TWO_PI_I, EvalPoint

SUITES = {}


def suite(fn):
    """Register ``fn`` in SUITES under its name and label every row it
    returns with that name and the wall time of the call."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        start = time.perf_counter()
        rows = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        for r in rows:
            r.suite = fn.__name__
            r.elapsed_s = elapsed
        return rows
    SUITES[fn.__name__] = run
    return run


def _max_abs(*vectors):
    """Largest absolute coefficient of some AlgebraVectors (0 if none)."""
    return max((abs(c) for v in vectors for c in v.terms.values()),
               default=0)


def _transformation_rows(form, elements, points, tol, paper_ref):
    """A row per group element and point of ``jf.transformation_check``."""
    return [Row(f"{form.name}-transformation", paper_ref, label, resid, tol,
                point.as_tuple())
            for label, point, resid in jf.transformation_check(
                form, elements, points)]


@suite
def triple_product():
    """Both sides of the Jacobi triple product, coefficient by coefficient,
    to q^30."""
    lhs, rhs = ch.jacobi_triple_product(30)
    return [Row("triple-product", "theta-product-expansion", "q-order-30",
                (lhs - rhs).max_abs_coeff(), 0.0)]


@suite
def elliptic(q_order=10):
    """Exact coefficient identities of the zeta-bar / p-bar expansions
    (integer series in q and x), the odd Laurent shape of zeta-tilde (exact,
    in u = 2 pi i t), and its Taylor series against the numeric
    evaluator."""
    n_x = 10
    zb = el.zeta_bar_series(n_x, q_order)
    pb = el.p_bar_series(n_x, q_order)
    zb_shift = el.zeta_bar_series(n_x, q_order, shift=1)
    pb_shift = el.p_bar_series(n_x, q_order, shift=1)
    zt = el.zeta_tilde_taylor(9, 16)
    # y stands for u = 2 pi i t: even powers of u have r2 = 0 mod 4
    rational = zt / EXACT_TWO_PI_I
    even_worst = max((abs(rational.exact_coeff(n, r2))
                      for n, r2, _ in rational.terms() if r2 % 4 == 0),
                     default=0)
    tau, t = 0.1 + 1.2j, 0.21 + 0.05j
    approx, _ = zt.evaluate(EvalPoint(
        tau, cmath.log(2j * cmath.pi * t) / (2j * cmath.pi)))
    exact, _ = el.zeta_tilde_eval(t, tau)
    return [
        Row("x-dx-zeta-bar", "log-derivative-relation", "series",
            (zb.y_d_dy() + pb).max_abs_coeff(), 0.0),
        Row("zeta-bar-quasi-periodicity", "translation-by-q", "series",
            (zb_shift - (zb - 1)).max_abs_coeff(), 0.0),
        Row("p-bar-periodicity", "translation-by-q", "series",
            (pb_shift - pb).max_abs_coeff(), 0.0),
        Row("zeta-tilde-odd-laurent", "odd-zeta-expansion",
            "1/t-leading,even-powers-zero",
            max(even_worst, abs(rational.exact_coeff(0, -2) - 1)), 0.0),
        Row("zeta-tilde-taylor-vs-numeric", "odd-zeta-expansion",
            "t=0.21+0.05j", abs(approx - exact) / abs(exact), 1e-6,
            point=(tau.real, tau.imag, t.real, t.imag)),
    ]


_SUPER_ZETA_POINTS = tuple(
    (cmath.exp(z), odd(0.3, -0.7))
    for z in (0.4 + 0.2j, -0.3 + 0.6j, 0.1 - 0.4j, -0.8 - 0.1j, 0.9 + 0.9j))


@suite
def super_zeta(tau=0.13 + 1.05j, alpha=0.21 + 0.08j,
               points=_SUPER_ZETA_POINTS):
    """The odd-translation lemma of the extended zeta function at each
    (x, theta) in ``points``."""
    q = cmath.exp(2j * cmath.pi * tau)
    y = cmath.exp(2j * cmath.pi * alpha)
    return [Row("extended-zeta-quasi-periodicity",
                "odd-translation-invariance", f"x={x:.4f}",
                el.super_zeta_lemma_residual(x, theta, q, y), 1e-8)
            for x, theta in points]


@suite
def algebra(windows=((-2, 0, 1), (-1, 2), (0, 1))):
    """Exact graded Jacobi identity over every triple (x, y, z) and the
    vector-field realization as a homomorphism over every pair (x, y), where
    slot i ranges over L, J, Q, H at the modes of ``windows[i]`` and C."""
    xs, ys, zs = ([sc.AlgebraVector.basis(g, m) for g in "LJQH" for m in w]
                  + [sc.AlgebraVector.basis("C")] for w in windows)
    worst = max(_max_abs(v) for v in sc.jacobi_residuals(xs, ys, zs))
    worst_h = max(sc.homomorphism_residuals(xs, ys))
    return [Row("graded-jacobi-identity", "mode-bracket-table",
                "generator-scan", worst, 0.0),
            Row("vector-field-homomorphism", "derivation-realization",
                "generator-scan", worst_h, 0.0)]


@suite
def flatness():
    """[nabla(x^a), nabla(x^b)] against its delta-function residue for every
    a, b in -4..4, and the worked example a, b = -1, 2."""
    worst = 0
    for a, b in itertools.product(range(-4, 5), repeat=2):
        direct, residue = sc.nabla_commutator({a: 1}, {b: 1})
        worst = max(worst, _max_abs(direct - residue))
    direct, residue = sc.nabla_commutator({-1: 1}, {2: 1})
    expected = (sc.AlgebraVector.basis("J", 0, -2)
                + sc.AlgebraVector.basis("C", coeff=Fraction(-1, 3)))
    return [Row("connection-current-commutator", "delta-function-residue",
                "monomial-grid", worst, 0.0),
            Row("connection-current-example", "delta-function-residue",
                "x^-1,x^2=J(0,-2)+C(-1/3)",
                _max_abs(direct - expected, residue - expected), 0.0)]


@suite
def gl11():
    """GL(1|1) over the rationals at (q, y) = (3/7, -5/4), where each
    polynomial identity must hold exactly: the group element against its
    closed form, its Berezinian and that of the coordinate-change matrix P
    against y^{-1}, and the action on a weight/charge pair (Delta, c) =
    (2, 1) of either parity against its factorization q^{-Delta} upper diag
    lower.  Then the second-order jet coordinates round trip, in complex
    doubles, at 100 random parameter sets drawn with seed 7."""
    q, y = Fraction(3, 7), Fraction(-5, 4)
    g = sc.gl11_group_element(q, y)
    expected = SuperMatrix([
        [1, DELTA], [EPS, GrassmannNumber(y) + EPS * DELTA]]) * q
    factorization = 0
    for odd_parity in (False, True):
        scale, upper, diag, lower = sc.action_factors(2, 1, odd_parity, q, y)
        direct = sc.action_matrix(2, 1, odd_parity, q, y)
        factorization = max(factorization,
                            (upper * diag * lower * scale).distance(direct))
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        params = {
            "q": GrassmannNumber(rng.uniform(0.5, 2.0) + 0.3j,
                                 0, 0, rng.uniform(-1, 1)),
            "y": GrassmannNumber(rng.uniform(0.5, 2.0) - 0.2j,
                                 0, 0, rng.uniform(-1, 1)),
            "eps0": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            "delta0": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            "tau1": GrassmannNumber(rng.uniform(-1, 1),
                                    0, 0, rng.uniform(-1, 1)),
            "alpha1": GrassmannNumber(rng.uniform(-1, 1),
                                      0, 0, rng.uniform(-1, 1)),
            "eps1": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            "delta1": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        }
        back = sc.solve_jet(sc.jet_from_params(params))
        for key, val in params.items():
            worst = max(worst, (back[key] - val).max_abs())
    return [
        Row("group-element-assembly", "nilpotent-exponentials",
            "direct-vs-factored", g.distance(expected), 0.0),
        Row("group-element-berezinian", "berezinian-formula", "Ber=1/y",
            (gr.berezinian(g) - 1 / y).max_abs(), 0.0),
        Row("coordinate-matrix-berezinian", "berezinian-formula", "Ber=1/y",
            (gr.berezinian(sc.coordinate_matrix(q, y)) - 1 / y).max_abs(),
            0.0),
        Row("action-matrix-factorization", "weight-charge-action",
            "Delta=2,c=1,even+odd", factorization, 0.0),
        Row("jet-coordinate-roundtrip", "second-order-jet-relations",
            "100-random-jets", worst, 1e-10),
    ]


_TRANSFORM_POINTS = (EvalPoint(0.2 + 1.1j, 0.31 + 0.07j),
                     EvalPoint(-0.15 + 0.95j, 0.12 - 0.04j))


@suite
def jacobi_forms(point=EvalPoint(0.2 + 1.1j, 0.23 + 0.11j), t=0.17 + 0.05j,
                 forms=("theta",), shifts=(1,), radius=None):
    """The normalization of phi_{-1,1/2} at point.tau, the transformation
    laws of phi_{-2,1}, and for each of ``forms`` the shift law of its
    quasi-periodic ratio at ``t`` for each lambda in ``shifts`` and its
    first Taylor coefficient (FFT on a circle of ``radius``, if given) at
    ``point``; every form is expanded to q^30."""
    lead = jf.phi_weak("phi_m1_half", 30).alpha_derivative(
        1, EvalPoint(point.tau))
    rows = [Row("phi-m1-half-leading-coefficient", "theta-normalization",
                "alpha-derivative", abs(lead - 1.0), 1e-8)]
    rows += _transformation_rows(
        jf.phi_weak("phi_m2_1", 30),
        [("shift", 1, 0), ("sl2", 0, -1, 1, 0), ("sl2", 1, 1, 0, 1)],
        _TRANSFORM_POINTS, 1e-6, "weak-jacobi-transformation")
    fft = {} if radius is None else {"radius": radius}
    for name in forms:
        form = (jf.theta_form(30) if name == "theta"
                else jf.phi_weak(name, 30))
        for lam in shifts:
            rows.append(Row("ratio-shift-law", "quasi-periodic-ratio",
                            f"{name},lambda={lam}",
                            jf.lemma_shift_residual(form, t, point, lam),
                            1e-6, point=point.as_tuple()))
        f1 = jf.quasi_jacobi_coeffs(form, 1, point, **fft)[1]
        rows.append(Row("ratio-taylor-coefficient",
                        "normalized-ratio-expansion", f"{name},F1",
                        abs(f1 - jf.expected_f1(form, point)), 1e-6,
                        point=point.as_tuple()))
    return rows


@suite
def cusp():
    """Mismatches between the plain and super cusp predicates and their
    expansion certificates, from one pass over the default grid.  Each
    certificate compares exact integer coefficients, so the count involves
    no tolerance."""
    plain, super_ = ch.cusp_grid_check()
    return [Row("predicate-vs-certificate", "cusp-extension-lemma", "grid",
                len(plain), 0.0),
            Row("super-predicate-vs-certificate",
                "super-cusp-extension-lemma", "grid", len(super_), 0.0)]


@suite
def characters(q_order=10, fock_q_order=4):
    """The E8 character: product against closed form to q^q_order, and
    against the Fock state sum to q^fock_q_order, its L0/J0 trace
    insertions against q d/dq and y d/dy of the product; the E8 theta
    series against vector enumeration to q^fock_q_order."""
    lat = ch.e8_lattice()
    prod = ch.chi_character(lat, q_order, "product").chi
    closed = ch.chi_character(lat, q_order, "closed").chi
    counts = ch.count_vectors_by_norm(lat, fock_q_order)
    fock = ch.fock_oracle(lat, fock_q_order, counts=counts)
    theta = ch.lattice_theta(lat, fock_q_order)
    # each difference with the Fock side stops at q^fock_q_order
    rows = [
        Row("character-product-vs-closed", "character-formulas",
            f"E8,q^{q_order}", (prod - closed).max_abs_coeff(), 0.0),
        Row("character-vs-fock-oracle", "supertrace-state-sum",
            f"E8,q^{fock_q_order}", (prod - fock).max_abs_coeff(), 0.0),
        Row("lattice-theta-vs-enumeration", "lattice-theta-modularity",
            f"E8,q^{fock_q_order}",
            max(abs(theta.exact_coeff(n) - c)
                for n, c in enumerate(counts)), 0.0),
    ]
    for insertion, diff in (("L0", prod.q_d_dq()), ("J0", prod.y_d_dy())):
        inserted = ch.fock_weighted_trace(fock, insertion)
        rows.append(Row(f"trace-insertion-{insertion}",
                        "supertrace-derivative-bookkeeping", "rank-8-lattice",
                        (inserted - diff).max_abs_coeff(), 0.0))
    return rows


_CHARACTER_POINTS = (EvalPoint(0.25 + 1.1j, 0.31 + 0.12j),
                     EvalPoint(-0.4 + 1.3j, 0.11 - 0.07j),
                     EvalPoint(0.1 + 0.9j, 0.42 + 0.05j))


@suite
def character_jacobi():
    """The E8 character, in closed form to q^30, transforms as a Jacobi form
    of weight 0 and index C/6 = 2 under the lattice shifts and S and T."""
    cs = ch.chi_character(ch.e8_lattice(), 30, "closed")
    form = jf.JacobiForm("chi-rank-8", 0, cs.index, cs.chi)
    return _transformation_rows(
        form, [("shift", 1, 0), ("shift", 0, 1), ("shift", 1, 1),
               ("sl2", 0, -1, 1, 0), ("sl2", 1, 1, 0, 1)],
        _CHARACTER_POINTS, 1e-5, "character-jacobi-transformation")
