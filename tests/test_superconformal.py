import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar import checks, superconformal
from superchar.grassmann import (
    DELTA, EPS, GrassmannNumber, SuperMatrix, berezinian, odd,
)
from superchar.superconformal import (
    C, H, J, L, Q, AlgebraVector, action_factors, action_matrix,
    coordinate_matrix, gl11_generators, gl11_group_element,
    homomorphism_residual, invariant_conjugation_residual,
    jacobi_residual, jet_from_params, jet_matrix_identity_residual,
    mode_bracket, nabla_commutator, realization_commutator, rho_jet_matrix,
    section_matrix, solve_jet,
)


def vec_is_zero(v):
    return not v.terms


def vec_equal(a, b):
    return vec_is_zero(a - b)


BASIS = [f(m) for f in (L, J, Q, H) for m in range(-2, 3)] + [C()]


class TestBracketTable:
    def test_virasoro(self):
        assert vec_equal(mode_bracket(L(2), L(-1)), L(1, 3))
        assert vec_equal(mode_bracket(L(0), L(0)), AlgebraVector())

    def test_current_central_term(self):
        # [J_m, J_{-m}] = (m/3) C
        assert vec_equal(mode_bracket(J(2), J(-2)), C(Fraction(2, 3)))
        assert vec_is_zero(mode_bracket(J(1), J(2)))

    def test_l_j_central_term(self):
        assert vec_equal(mode_bracket(L(2), J(-2)), J(0, 2) + C(1))
        assert vec_equal(mode_bracket(L(1), J(2)), J(3, -2))

    def test_odd_odd_brackets_vanish(self):
        assert vec_is_zero(mode_bracket(Q(1), Q(-1)))
        assert vec_is_zero(mode_bracket(H(2), H(-2)))

    def test_h_q_pair(self):
        got = mode_bracket(H(1), Q(-1))
        assert vec_equal(got, L(0) + J(0, -1))
        got = mode_bracket(H(2), Q(-2))
        assert vec_equal(got, L(0) + J(0, -2) + C(Fraction(1, 3)))

    def test_central_element(self):
        for x in BASIS:
            assert vec_is_zero(mode_bracket(C(), x))
            assert vec_is_zero(mode_bracket(x, C()))

    def test_super_antisymmetry(self):
        # [x, y] = -(-1)^{|x||y|} [y, x]
        for x in BASIS:
            for y in BASIS:
                sign = -1 if (x.parity() * y.parity()) == 0 else 1
                assert vec_equal(mode_bracket(x, y),
                                 mode_bracket(y, x) * sign)

    def test_bracket_is_bilinear(self):
        a = L(1, 2) + J(-1, Fraction(1, 3))
        b = Q(0, 5) + H(2, -1)
        lhs = mode_bracket(a, b)
        rhs = (mode_bracket(L(1), Q(0)) * 10
               + mode_bracket(L(1), H(2)) * (-2)
               + mode_bracket(J(-1), Q(0)) * Fraction(5, 3)
               + mode_bracket(J(-1), H(2)) * Fraction(-1, 3))
        assert vec_equal(lhs, rhs)


class TestJacobiIdentity:
    def test_window(self):
        for x in BASIS:
            for y in BASIS:
                for z in BASIS:
                    assert vec_is_zero(jacobi_residual(x, y, z)), \
                        (x, y, z)


def ref_basis_bracket(g1, m, g2, n):
    """The bracket table in Fraction arithmetic, as an independent oracle
    for the int/Fraction coefficients of ``mode_bracket``."""
    F = Fraction
    out = {}
    if "C" in (g1, g2) or (g1, g2) in (("Q", "Q"), ("H", "H")):
        return out
    central = m + n == 0
    if (g1, g2) == ("L", "L"):
        out[("L", m + n)] = F(m - n)
    elif (g1, g2) == ("L", "J"):
        out[("J", m + n)] = F(-n)
        if central:
            out[("C",)] = F(m * m + m, 6)
    elif (g1, g2) == ("L", "H"):
        out[("H", m + n)] = F(-n)
    elif (g1, g2) == ("L", "Q"):
        out[("Q", m + n)] = F(m - n)
    elif (g1, g2) == ("J", "J"):
        if central:
            out[("C",)] = F(m, 3)
    elif (g1, g2) == ("J", "Q"):
        out[("Q", m + n)] = F(1)
    elif (g1, g2) == ("J", "H"):
        out[("H", m + n)] = F(-1)
    elif (g1, g2) == ("H", "Q"):
        out[("L", m + n)] = F(1)
        out[("J", m + n)] = F(-m)
        if central:
            out[("C",)] = F(m * m - m, 6)
    else:
        both_odd = g1 in "QH" and g2 in "QH"
        return {k: (c if both_odd else -c)
                for k, c in ref_basis_bracket(g2, n, g1, m).items()}
    return out


def ref_bracket(x, y):
    """Bilinear extension of ``ref_basis_bracket`` to {key: Fraction}."""
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            g1, m = k1[0], (k1[1] if len(k1) > 1 else 0)
            g2, n = k2[0], (k2[1] if len(k2) > 1 else 0)
            for k, c in ref_basis_bracket(g1, m, g2, n).items():
                out[k] = out.get(k, Fraction(0)) + c1 * c2 * c
    return {k: c for k, c in out.items() if c}


basis_modes = st.tuples(st.sampled_from("LJQHC"), st.integers(-6, 6))


def as_vector(mode):
    return AlgebraVector.basis(*mode)


def as_ref(mode):
    return {("C",) if mode[0] == "C" else mode: Fraction(1)}


def assert_exact(vec, ref):
    for c in vec.terms.values():
        # int where integral, a Fraction only where it is not
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert vec.terms == ref


class TestExactCoefficients:
    @settings(max_examples=300, deadline=None)
    @given(basis_modes, basis_modes, basis_modes)
    def test_nested_brackets_match_fraction_reference(self, a, b, c):
        x, y, z = map(as_vector, (a, b, c))
        assert_exact(mode_bracket(x, y), ref_bracket(as_ref(a), as_ref(b)))
        assert_exact(mode_bracket(x, mode_bracket(y, z)),
                     ref_bracket(as_ref(a), ref_bracket(as_ref(b),
                                                        as_ref(c))))

    def test_integral_fractions_become_ints(self):
        assert type(C(Fraction(4, 2)).terms[("C",)]) is int
        assert type((J(1, Fraction(1, 2)) * 2).terms[("J", 1)]) is int
        assert (L(0, 0.5) * 3).terms == {("L", 0): Fraction(3, 2)}

    def test_perturbed_central_term_fails_the_jacobi_row(self, monkeypatch):
        # C(m/6) added to the [H_m, Q_{-m}] central term breaks the graded
        # Jacobi identity; the exact row must see it
        real = superconformal._basis_bracket

        def skewed(g1, m, g2, n):
            out = dict(real(g1, m, g2, n))
            if (g1, g2) == ("H", "Q") and m + n == 0:
                out[("C",)] = out.get(("C",), 0) + Fraction(m, 6)
            return out

        monkeypatch.setattr(superconformal, "_basis_bracket", skewed)
        rows = {r.identity: r for r in checks.algebra()}
        jac = rows["graded-jacobi-identity"]
        assert not jac.passed
        assert jac.residual == float(Fraction(2, 3))


class TestVectorFieldRealization:
    def test_homomorphism_window(self):
        for x in BASIS:
            for y in BASIS:
                r = homomorphism_residual(x, y)
                assert r == 0, (x, y, r)

    def test_central_charge_killed(self):
        # the realization sends C to zero: brackets with central terms
        # still match because the operators only see the non-central part
        r = homomorphism_residual(J(3), J(-3))
        assert r == 0

    def test_commutator_on_monomial(self):
        # [D_{L_1}, D_{L_{-1}}] on t^2: equals D_{[L_1, L_{-1}]} = D_{2 L_0},
        # which sends t^2 to -2 * 2 t^2
        got = realization_commutator(L(1), L(-1), {(2, 0): Fraction(1)})
        assert got == {(2, 0): Fraction(-4)}


class TestFlatness:
    def test_worked_example(self):
        # f = t^{-1}, g = t'^2 gives -2 J_0 - C/3 on both sides
        direct, residue = nabla_commutator({-1: 1}, {2: 1})
        expected = J(0, -2) + C(Fraction(-1, 3))
        assert vec_equal(direct, expected)
        assert vec_equal(residue, expected)

    def test_monomial_grid(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                direct, residue = nabla_commutator({a: 1}, {b: 1})
                assert vec_equal(direct, residue), (a, b)

    def test_bilinear_inputs(self):
        f = {-1: Fraction(1, 2), 2: 3}
        g = {0: 1, -2: Fraction(2, 5)}
        direct, residue = nabla_commutator(f, g)
        assert vec_equal(direct, residue)


class TestGL11:
    Qv, Yv = 0.31 + 0.12j, 0.85 - 0.33j

    def test_generators(self):
        j0, q0, h0, l0 = gl11_generators()
        ident = SuperMatrix.identity(2)
        assert (l0 + ident).distance(SuperMatrix.zero(2)) == 0.0
        # anticommutator {Q0, H0} matches the mode bracket [H_0, Q_0] = L_0
        comm = q0 * h0 + h0 * q0
        assert comm.distance(l0) == 0.0
        # J0 is diagonal with charge -1 on the odd line
        assert (j0 * j0 + j0).distance(SuperMatrix.zero(2)) == 0.0

    def test_group_element_assembly(self):
        g = gl11_group_element(self.Qv, self.Yv)
        expected = SuperMatrix([
            [GrassmannNumber(1.0), DELTA],
            [EPS, GrassmannNumber(self.Yv) + EPS * DELTA],
        ]) * self.Qv
        assert g.distance(expected) == 0.0

    def test_berezinian_is_inverse_y(self):
        g = gl11_group_element(self.Qv, self.Yv)
        assert (berezinian(g) - 1.0 / self.Yv).max_abs() < 1e-14

    def test_coordinate_matrix_berezinian(self):
        p = coordinate_matrix(self.Qv, self.Yv)
        assert (berezinian(p) - 1.0 / self.Yv).max_abs() < 1e-14

    def test_action_matrix_factorization(self):
        for parity_flag in (False, True):
            m = action_matrix(2, 1, parity_flag, self.Qv, self.Yv)
            scale, upper, diag, lower = action_factors(
                2, 1, parity_flag, self.Qv, self.Yv)
            assert (upper * diag * lower * scale).distance(m) < 1e-14

    def test_section_vs_action_scale(self):
        # the section matrix differs from the action matrix by y^{-1} in the
        # scalar prefactor and the off-diagonal weight factor
        a = action_matrix(1, 0, False, self.Qv, self.Yv)
        s = section_matrix(1, 0, False, self.Qv, self.Yv)
        assert (s.rows[1][0] * self.Yv - a.rows[1][0]).max_abs() < 1e-14

    def test_invariant_vectors(self):
        ident = SuperMatrix.identity(2)
        p = SuperMatrix([
            [GrassmannNumber(1.0), EPS],
            [DELTA, GrassmannNumber(self.Yv) - EPS * DELTA],
        ])
        assert invariant_conjugation_residual(ident, self.Qv, self.Yv) \
            < 1e-14
        assert invariant_conjugation_residual(p, self.Qv, self.Yv) < 1e-14


def random_params(rng):
    return {
        "q": GrassmannNumber(rng.uniform(0.5, 2.0) + 0.3j, 0, 0,
                             rng.uniform(-1, 1)),
        "y": GrassmannNumber(rng.uniform(0.5, 2.0) - 0.2j, 0, 0,
                             rng.uniform(-1, 1)),
        "eps0": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        "delta0": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        "tau1": GrassmannNumber(rng.uniform(-1, 1), 0, 0,
                                rng.uniform(-1, 1)),
        "alpha1": GrassmannNumber(rng.uniform(-1, 1), 0, 0,
                                  rng.uniform(-1, 1)),
        "eps1": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        "delta1": odd(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    }


class TestJets:
    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            params = random_params(rng)
            jets = jet_from_params(params)
            back = solve_jet(jets)
            for key, val in params.items():
                assert (back[key] - val).max_abs() < 1e-10, key

    def test_matrix_identity(self):
        rng = random.Random(12)
        for _ in range(50):
            jets = jet_from_params(random_params(rng))
            assert jet_matrix_identity_residual(jets) < 1e-10

    def test_rho_matrix_structure(self):
        rng = random.Random(13)
        params = random_params(rng)
        jets = jet_from_params(params)
        m, p = rho_jet_matrix(jets, central=12.0)
        # top-left entry is exactly 1; first column otherwise zero
        assert (m.rows[0][0] - 1.0).max_abs() == 0.0
        assert m.rows[1][0].max_abs() == 0.0
        assert m.rows[2][0].max_abs() == 0.0
        # central column entries carry C/3 times the solved jet coordinates
        assert (m.rows[0][1] - p["delta1"] * 4.0).max_abs() < 1e-13

    def test_identity_jet(self):
        params = {
            "q": GrassmannNumber(1.0), "y": GrassmannNumber(1.0),
            "eps0": GrassmannNumber(0.0), "delta0": GrassmannNumber(0.0),
            "tau1": GrassmannNumber(0.0), "alpha1": GrassmannNumber(0.0),
            "eps1": GrassmannNumber(0.0), "delta1": GrassmannNumber(0.0),
        }
        jets = jet_from_params(params)
        m, _ = rho_jet_matrix(jets, central=12.0)
        assert m.distance(SuperMatrix.identity(3)) < 1e-14
