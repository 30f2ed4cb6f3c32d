"""Every row that ``superchar verify`` prints can fail.

``MUTATIONS`` gives each (suite, identity) of ``verify`` one small defect
in the code behind it, as (module, attribute, wrap): the attribute is
replaced by ``wrap`` of itself.  Under its defect every row of the identity
must fail, except the rows of ``ALLOWED``, which no defect found so far
fails.  An identity without a mutation fails the completeness test, in the
way ``test_reachability.py`` pins unreached code; so does an entry of
``ALLOWED`` whose row is gone, and one whose row its mutation now fails.
"""

from fractions import Fraction

import pytest

from superchar import characters as ch
from superchar import checks
from superchar import elliptic as el
from superchar import grassmann as gr
from superchar import jacobi_forms as jf
from superchar import superconformal as sc
from superchar.grassmann import DELTA, SuperMatrix
from superchar.series_core import EXACT_TWO_PI_I, QYSeries


def drop_first_binomial(real):
    """(1 - y q^n)(1 - y^-1 q^(n-1)) without the factor 1 - y q."""
    return lambda n_q: real(n_q)[1:]


def plus_qx(at_shift):
    """A wrap that adds q x to an annulus series built at ``shift`` =
    at_shift."""
    def wrap(real):
        def mutated(n_x, n_q, shift=0):
            out = real(n_x, n_q, shift)
            if shift == at_shift:
                out = out + QYSeries.monomial(1, 1, 2, n_q)
            return out
        return mutated
    return wrap


def plus_even_power(real):
    """zeta-tilde plus (2 pi i) q u^2, an even power of u = 2 pi i t."""
    def mutated(n_t, n_q):
        return real(n_t, n_q) + QYSeries.monomial(1, 1, 4, n_q) * \
            EXACT_TWO_PI_I
    return mutated


def value_times_1_plus_2e6(real):
    def mutated(t, tau):
        value, bound = real(t, tau)
        return value * (1 + 2e-6), bound
    return mutated


def drop_q_delta_x(real):
    """The integer action without the term q delta x of theta'."""
    def mutated(x, theta, q, y):
        x_new, theta_new = real(x, theta, q, y)
        return x_new, theta_new - DELTA * x * complex(q)
    return mutated


def skew_central_term(real):
    """[H_m, Q_-m] with C m/6 added to its central term."""
    def mutated(g1, m, g2, n):
        out = dict(real(g1, m, g2, n))
        if (g1, g2) == ("H", "Q") and m + n == 0:
            out[("C",)] = out.get(("C",), 0) + Fraction(m, 6)
        return out
    return mutated


def h1_off_by_one(real):
    """The vector field of H_1 with its coefficient one too large."""
    def mutated(gen, n, a, e):
        hit = real(gen, n, a, e)
        if (gen, n) == ("H", 1) and hit is not None:
            return hit[0] + 1, hit[1]
        return hit
    return mutated


def plus_l5(real):
    return lambda f: real(f) + sc.AlgebraVector.basis("L", 5)


def flip_h0(real):
    def mutated():
        j0, q0, h0, l0 = real()
        return j0, q0, h0 * -1, l0
    return mutated


def berezinian_b_c(real):
    """The Berezinian with its odd entries in the order B*C."""
    def mutated(m):
        a, b = m.rows[0]
        c, d = m.rows[1]
        dinv = d.inverse()
        return a * dinv + b * c * dinv * dinv
    return mutated


def swap_charges(real):
    """The diagonal factor with the charges of the two lines swapped."""
    def mutated(*args):
        scale, upper, diag, lower = real(*args)
        (a, _), (_, d) = diag.rows
        return scale, upper, SuperMatrix([[d, 0], [0, a]]), lower
    return mutated


def y_without_fz_pt(real):
    """The first-order solve with y = Pz/Ft."""
    def mutated(ft, fz, pt, pz):
        q, eps0, delta0, _, ft_inv = real(ft, fz, pt, pz)
        return q, eps0, delta0, pz * ft_inv, ft_inv
    return mutated


def euler_product_times_1_plus_1e6(real):
    return lambda n_q, k=1: real(n_q, k) * Fraction(1000001, 1000000)


def phi_m2_1_times_1_plus_qy(real):
    def mutated(name, n_q):
        form = real(name, n_q)
        if name == "phi_m2_1":
            form.offset_series = form.offset_series * QYSeries(
                {(0, 0): 1, (1, 2): 1}, n_q)
        return form
    return mutated


def ratio_times_1_plus_t(real):
    return lambda form, t, point: real(form, t, point) * (1 + t)


def weaken_at(point):
    """A wrap that makes a predicate true at the grid point ``point``,
    where it is false."""
    def wrap(real):
        return lambda *args: real(*args) or args == point
    return wrap


def one_boson_too_many(real):
    return lambda colors, n_q: real(colors + 1, n_q)


def plus_q(real):
    return lambda n_q: real(n_q) + QYSeries.monomial(1, 1, 0, n_q)


def weight_plus_one(real):
    """q d/dq weighting q^n by n + 1."""
    return lambda series: real(series) + series


def doubled(real):
    """y d/dy weighting y^(r2/2) by r2."""
    return lambda series: real(series) * 2


def chi_times_series(real):
    """The character times 1 + q y + 3 q^2 y^-1."""
    def mutated(lattice, n_q, mode):
        cs = real(lattice, n_q, mode)
        cs.chi = cs.chi * QYSeries({(0, 0): 1, (1, 2): 1, (2, -2): 3}, n_q)
        return cs
    return mutated


#: (suite, identity) -> (module, attribute, wrap): a defect that fails every
#: row of the identity outside ALLOWED
MUTATIONS = {
    ("triple_product", "triple-product"):
        (ch, "_oscillator_binomials", drop_first_binomial),
    ("elliptic", "x-dx-zeta-bar"): (el, "p_bar_series", plus_qx(0)),
    ("elliptic", "zeta-bar-quasi-periodicity"):
        (el, "zeta_bar_series", plus_qx(1)),
    ("elliptic", "p-bar-periodicity"): (el, "p_bar_series", plus_qx(1)),
    ("elliptic", "zeta-tilde-odd-laurent"):
        (el, "zeta_tilde_taylor", plus_even_power),
    # 2.0e-6 against a tolerance of 1e-6
    ("elliptic", "zeta-tilde-taylor-vs-numeric"):
        (el, "zeta_tilde_eval", value_times_1_plus_2e6),
    ("super_zeta", "extended-zeta-quasi-periodicity"):
        (el, "z_action", drop_q_delta_x),
    ("algebra", "graded-jacobi-identity"):
        (sc, "_basis_bracket", skew_central_term),
    ("algebra", "vector-field-homomorphism"): (sc, "_act", h1_off_by_one),
    ("flatness", "connection-current-commutator"):
        (sc, "nabla_operator", plus_l5),
    ("flatness", "connection-current-example"):
        (sc, "nabla_operator", plus_l5),
    ("gl11", "group-element-assembly"): (sc, "gl11_generators", flip_h0),
    ("gl11", "group-element-berezinian"): (gr, "berezinian", berezinian_b_c),
    ("gl11", "coordinate-matrix-berezinian"):
        (gr, "berezinian", berezinian_b_c),
    ("gl11", "action-matrix-factorization"):
        (sc, "action_factors", swap_charges),
    ("gl11", "jet-coordinate-roundtrip"):
        (sc, "_first_order", y_without_fz_pt),
    # every power of the Euler product off by one part in 10^6, so that
    # phi_m1_half no longer divides by theta'(0) = 2 pi eta^3: 1.0e-6
    # against 1e-8
    ("jacobi_forms", "phi-m1-half-leading-coefficient"):
        (jf, "euler_product", euler_product_times_1_plus_1e6),
    ("jacobi_forms", "phi_m2_1-transformation"):
        (jf, "phi_weak", phi_m2_1_times_1_plus_qy),
    # 2 pi i negated in jacobi_forms: the factor of lemma_shift_residual
    # becomes e^{+4 pi i m lam alpha}
    ("jacobi_forms", "ratio-shift-law"): (jf, "TWO_PI_I", lambda c: -c),
    # a perturbed form cannot fail this row: the closed form of F_1 holds
    # for any f that vanishes to order 2m at 0
    ("jacobi_forms", "ratio-taylor-coefficient"):
        (jf, "lemma_ratio", ratio_times_1_plus_t),
    ("cusp", "predicate-vs-certificate"):
        (ch, "cusp_predicate", weaken_at((0, 0, 1))),
    ("cusp", "super-predicate-vs-certificate"):
        (ch, "super_cusp_predicate", weaken_at((0, 0, 1, 0, 0))),
    ("characters", "character-product-vs-closed"):
        (ch, "_oscillator_binomials", drop_first_binomial),
    ("characters", "character-vs-fock-oracle"):
        (ch, "_boson_sector", one_boson_too_many),
    ("characters", "lattice-theta-vs-enumeration"):
        (ch, "eisenstein_e4", plus_q),
    # the Fock side weights its coefficients without q d/dq or y d/dy
    ("characters", "trace-insertion-L0"):
        (QYSeries, "q_d_dq", weight_plus_one),
    ("characters", "trace-insertion-J0"): (QYSeries, "y_d_dy", doubled),
    ("character_jacobi", "chi-rank-8-transformation"):
        (ch, "chi_character", chi_times_series),
}

_PINNED = ("perfbench/verify_rows.json pins this row, and no defect fails "
           "it: a series with integral exponents changes by a constant "
           "phase, which the check fits as the character")

#: (suite, identity, element without its [char=...] suffix, point): the
#: rows no defect in the form fails.  The T and alpha -> alpha + 1 laws
#: hold for any series in integral powers of q and y.
ALLOWED = {
    **{("character_jacobi", "chi-rank-8-transformation", element,
        p.as_tuple()): _PINNED
       for element in ("sl2(1,1;0,1)", "shift(0,1)")
       for p in checks._CHARACTER_POINTS},
    **{("jacobi_forms", "phi_m2_1-transformation", "sl2(1,1;0,1)",
        p.as_tuple()): _PINNED
       for p in checks._TRANSFORM_POINTS},
}


def row_key(row):
    return (row.suite, row.identity, row.element.split("[")[0], row.point)


def test_every_verify_row_has_a_mutation():
    rows = [row for run in checks.SUITES.values() for row in run()]
    assert sorted({(r.suite, r.identity) for r in rows}) \
        == sorted(MUTATIONS)
    assert ALLOWED.keys() <= {row_key(r) for r in rows}


@pytest.mark.parametrize("suite, identity", sorted(MUTATIONS))
def test_the_mutation_fails_every_row(monkeypatch, suite, identity):
    module, attr, wrap = MUTATIONS[suite, identity]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    rows = [r for r in checks.SUITES[suite]() if r.identity == identity]
    assert rows
    allowed = {key for key in ALLOWED if key[:2] == (suite, identity)}
    assert {row_key(r) for r in rows if r.passed} == allowed
