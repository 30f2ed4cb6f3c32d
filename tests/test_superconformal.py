import itertools
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
    AlgebraVector, _apply_vector, _homomorphism_gap, action_factors,
    action_matrix, coordinate_matrix, gl11_generators, gl11_group_element,
    homomorphism_residual, homomorphism_residuals, jacobi_residual,
    jacobi_residuals, jet_from_params, jet_matrix_identity_residual,
    mode_bracket, nabla_commutator, solve_jet,
)

basis = AlgebraVector.basis


def vec_is_zero(v):
    return not v.terms


def vec_equal(a, b):
    return vec_is_zero(a - b)


def scaled(v, s):
    """The vector ``v`` times the exact scalar ``s``."""
    return AlgebraVector({k: c * s for k, c in v.terms.items()})


BASIS = [basis(g, m) for g in "LJQH" for m in range(-2, 3)] + [basis("C")]


class TestBracketTable:
    def test_virasoro(self):
        assert vec_equal(mode_bracket(basis("L", 2), basis("L", -1)),
                         basis("L", 1, 3))
        assert vec_equal(mode_bracket(basis("L", 0), basis("L", 0)),
                         AlgebraVector())

    def test_current_central_term(self):
        # [J_m, J_{-m}] = (m/3) C
        assert vec_equal(mode_bracket(basis("J", 2), basis("J", -2)),
                         basis("C", coeff=Fraction(2, 3)))
        assert vec_is_zero(mode_bracket(basis("J", 1), basis("J", 2)))

    def test_l_j_central_term(self):
        assert vec_equal(mode_bracket(basis("L", 2), basis("J", -2)),
                         basis("J", 0, 2) + basis("C"))
        assert vec_equal(mode_bracket(basis("L", 1), basis("J", 2)),
                         basis("J", 3, -2))

    def test_odd_odd_brackets_vanish(self):
        assert vec_is_zero(mode_bracket(basis("Q", 1), basis("Q", -1)))
        assert vec_is_zero(mode_bracket(basis("H", 2), basis("H", -2)))

    def test_h_q_pair(self):
        got = mode_bracket(basis("H", 1), basis("Q", -1))
        assert vec_equal(got, basis("L", 0) + basis("J", 0, -1))
        got = mode_bracket(basis("H", 2), basis("Q", -2))
        assert vec_equal(got, basis("L", 0) + basis("J", 0, -2)
                         + basis("C", coeff=Fraction(1, 3)))

    def test_central_element(self):
        for x in BASIS:
            assert vec_is_zero(mode_bracket(basis("C"), x))
            assert vec_is_zero(mode_bracket(x, basis("C")))

    def test_super_antisymmetry(self):
        # [x, y] = -(-1)^{|x||y|} [y, x]
        for x in BASIS:
            for y in BASIS:
                sign = -1 if (x.parity() * y.parity()) == 0 else 1
                assert vec_equal(mode_bracket(x, y),
                                 scaled(mode_bracket(y, x), sign))

    def test_bracket_is_bilinear(self):
        a = basis("L", 1, 2) + basis("J", -1, Fraction(1, 3))
        b = basis("Q", 0, 5) + basis("H", 2, -1)
        lhs = mode_bracket(a, b)
        rhs = (scaled(mode_bracket(basis("L", 1), basis("Q", 0)), 10)
               + scaled(mode_bracket(basis("L", 1), basis("H", 2)), -2)
               + scaled(mode_bracket(basis("J", -1), basis("Q", 0)),
                        Fraction(5, 3))
               + scaled(mode_bracket(basis("J", -1), basis("H", 2)),
                        Fraction(-1, 3)))
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
        assert type(basis("C", coeff=Fraction(4, 2)).terms[("C",)]) is int
        assert basis("L", 0, Fraction(4, 2)).terms == {("L", 0): 2}
        assert type(basis("L", 0, Fraction(4, 2)).terms[("L", 0)]) is int
        assert basis("L", 0, 1.5).terms == {("L", 0): Fraction(3, 2)}
        # results built internally keep the same normal form
        third = basis("C", coeff=Fraction(1, 3))
        for total in (third + basis("C", coeff=Fraction(2, 3)),
                      third - basis("C", coeff=Fraction(-2, 3)),
                      mode_bracket(basis("J", 1), basis("J", -1, 3))):
            assert type(total.terms[("C",)]) is int

    def test_results_drop_zero_coefficients(self):
        assert (basis("L", 1) - basis("L", 1)).terms == {}
        assert (basis("L", 1, 2) + basis("L", 1, -2)
                + basis("J", 0)).terms == {("J", 0): 1}
        assert basis("J", 2, 0).terms == {}
        assert basis("L", 0, 0).terms == {}
        assert mode_bracket(basis("J", 1) + basis("J", 2),
                            basis("J", -1, 3)).terms == {("C",): 1}
        assert jacobi_residual(basis("L", 1), basis("J", -1),
                               basis("H", 0)).terms == {}

    def test_unknown_generator_has_no_parity(self):
        with pytest.raises(ValueError, match="unknown generator 'X'"):
            basis("X", 1).parity()

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


def ref_field(gen, n, mono):
    """The super vector field of (gen, n) on t^a zeta^e, from its
    definition, as {monomial: coeff}:
    L_n = -t^{n+1} d_t - (n+1) t^n zeta d_zeta, J_n = -t^n zeta d_zeta,
    Q_n = -t^{n+1} d_zeta, H_n = t^n zeta d_t, C = 0."""
    a, e = mono
    out = {"L": {(a + n, e): -a - (n + 1) * e},
           "J": {(a + n, 1): -e},
           "Q": {(a + n + 1, 0): -e},
           "H": {(a + n - 1, 1): a * (1 - e)},
           "C": {}}[gen]
    return {k: c for k, c in out.items() if c}


def ref_apply(vec, poly):
    out = {}
    for (gen, *n), c in vec.terms.items():
        for mono, pc in poly.items():
            for k, fc in ref_field(gen, *(n or [0]), mono).items():
                out[k] = out.get(k, 0) + c * pc * fc
    return out


def ref_homomorphism(x, y):
    """The residual one test monomial at a time: [D_x, D_y] against
    D_[x,y] with C sent to zero, on t^a zeta^e for |a| <= 6."""
    sign = (-1) ** (x.parity() * y.parity())
    bracket = mode_bracket(x, y)
    worst = 0
    for mono in [(a, e) for a in range(-6, 7) for e in (0, 1)]:
        poly = {mono: 1}
        lhs = ref_apply(x, ref_apply(y, poly))
        for k, v in ref_apply(y, ref_apply(x, poly)).items():
            lhs[k] = lhs.get(k, 0) - sign * v
        rhs = ref_apply(bracket, poly)
        for k in set(lhs) | set(rhs):
            worst = max(worst, abs(lhs.get(k, 0) - rhs.get(k, 0)))
    return worst


# the generator scan of the ``algebra`` suite: x, y and z over its three
# windows
SCAN_X, SCAN_Y, SCAN_Z = (
    [basis(g, m) for g in "LJQH" for m in w] + [basis("C")]
    for w in ((-2, 0, 1), (-1, 2), (0, 1)))


def skew_bracket(monkeypatch, coeff_shift):
    """Patch the bracket table so [H_m, Q_n] gains coeff_shift(m, n) L_{m+n}."""
    real = superconformal._basis_bracket

    def skewed(g1, m, g2, n):
        out = dict(real(g1, m, g2, n))
        if (g1, g2) == ("H", "Q"):
            key = ("L", m + n)
            out[key] = out.get(key, 0) + coeff_shift(m, n)
        return out

    monkeypatch.setattr(superconformal, "_basis_bracket", skewed)


class TestVectorFieldRealization:
    def test_stacked_residual_is_the_per_monomial_loop(self, monkeypatch):
        # sums over several modes send different sources to one monomial
        mixed = [basis("L", 1) + basis("L", -1, 2) + basis("J", 0, -1),
                 basis("Q", 1) + basis("Q", -2, 3),
                 basis("H", 0) + basis("H", 2, -1)]
        pairs = ([(x, y) for x in SCAN_X for y in SCAN_Y]
                 + [(x, y) for x in BASIS for y in BASIS]
                 + [(x, y) for x in mixed for y in mixed])
        for x, y in pairs:
            assert homomorphism_residual(x, y) == ref_homomorphism(x, y) == 0
        # with a skewed table the residuals are nonzero and still agree
        skew_bracket(monkeypatch, lambda m, n: m - 2 * n)
        got = [homomorphism_residual(x, y) for x, y in pairs]
        assert got == [ref_homomorphism(x, y) for x, y in pairs]
        assert max(got) > 0

    def test_one_wrong_coefficient_is_seen(self, monkeypatch):
        # [H_1, Q_-1] = 2 L_0 - J_0 instead of L_0 - J_0: the stack must
        # show D_{L_0} on t^6 zeta, i.e. -(6 + 1)
        skew_bracket(monkeypatch, lambda m, n: int((m, n) == (1, -1)))
        assert homomorphism_residual(basis("H", 1), basis("Q", -1)) == 7
        assert homomorphism_residual(basis("Q", -1), basis("H", 1)) == 7
        assert homomorphism_residual(basis("H", 1), basis("Q", 0)) == 0
        rows = {r.identity: r for r in checks.algebra()}
        hom = rows["vector-field-homomorphism"]
        assert not hom.passed and hom.residual == 7.0

    def test_homomorphism_window(self):
        for x in BASIS:
            for y in BASIS:
                r = homomorphism_residual(x, y)
                assert r == 0, (x, y, r)

    def test_central_charge_killed(self):
        # the realization sends C to zero: brackets with central terms
        # still match because the operators only see the non-central part
        r = homomorphism_residual(basis("J", 3), basis("J", -3))
        assert r == 0

    def test_commutator_on_monomial(self, monkeypatch):
        # [D_{L_1}, D_{L_{-1}}] on t^2: equals D_{[L_1, L_{-1}]} = D_{2 L_0},
        # which sends t^2 to -2 * 2 t^2, so the gap is 0 there; with the
        # bracket table emptied the gap is the commutator itself
        x, y, stack = basis("L", 1), basis("L", -1), {(0, (2, 0)): 1}

        def gap():
            return _homomorphism_gap(x, y, stack, _apply_vector(x, stack),
                                     _apply_vector(y, stack), 0)

        assert gap() == {(0, (2, 0)): 0}
        monkeypatch.setattr(superconformal, "_basis_bracket",
                            lambda *args: {})
        assert gap() == {(0, (2, 0)): -4}


def seeded_modes(seed, count=6):
    """``count`` basis modes with |m| <= 6 from a seeded generator, and C."""
    rng = random.Random(seed)
    return [basis(rng.choice("LJQH"), rng.randint(-6, 6))
            for _ in range(count)] + [basis("C")]


SCANS = [(SCAN_X, SCAN_Y, SCAN_Z), [seeded_modes(seed) for seed in (7, 8, 9)]]


class TestScans:
    """The scans yield what the per-item functions return, item by item,
    in ``itertools.product`` order."""

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("scan", SCANS, ids=["verify", "seeded"])
    def test_jacobi_scan_is_the_per_triple_residual(self, monkeypatch,
                                                    skewed, scan):
        if skewed:
            skew_bracket(monkeypatch, lambda m, n: m - 2 * n)
        xs, ys, zs = scan
        got = [v.terms for v in jacobi_residuals(xs, ys, zs)]
        assert got == [jacobi_residual(x, y, z).terms
                       for x, y, z in itertools.product(xs, ys, zs)]
        assert any(got) == skewed

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("scan", SCANS, ids=["verify", "seeded"])
    def test_homomorphism_scan_is_the_per_pair_residual(self, monkeypatch,
                                                        skewed, scan):
        if skewed:
            skew_bracket(monkeypatch, lambda m, n: m - 2 * n)
        xs, ys, _ = scan
        got = list(homomorphism_residuals(xs, ys))
        assert got == [homomorphism_residual(x, y)
                       for x, y in itertools.product(xs, ys)]
        assert any(got) == skewed


class TestFlatness:
    def test_worked_example(self):
        # f = t^{-1}, g = t'^2 gives -2 J_0 - C/3 on both sides
        direct, residue = nabla_commutator({-1: 1}, {2: 1})
        expected = basis("J", 0, -2) + basis("C", coeff=Fraction(-1, 3))
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
        ident = SuperMatrix.identity()
        assert (l0 + ident).max_abs() == 0.0
        # anticommutator {Q0, H0} matches the mode bracket [H_0, Q_0] = L_0
        comm = q0 * h0 + h0 * q0
        assert comm.distance(l0) == 0.0
        # J0 is diagonal with charge -1 on the odd line
        assert (j0 * j0 + j0).max_abs() == 0.0

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

    # the same identities over the rationals, where they hold exactly
    Qx, Yx = Fraction(3, 7), Fraction(-5, 4)

    def test_exact_group_element_assembly(self):
        g = gl11_group_element(self.Qx, self.Yx)
        expected = SuperMatrix([
            [1, DELTA], [EPS, GrassmannNumber(self.Yx) + EPS * DELTA],
        ]) * self.Qx
        assert g.distance(expected) == 0
        assert all(type(c) is Fraction for row in g.rows for x in row
                   for c in x.components())

    def test_exact_berezinians_are_inverse_y(self):
        for m in (gl11_group_element(self.Qx, self.Yx),
                  coordinate_matrix(self.Qx, self.Yx)):
            ber = berezinian(m)
            assert (ber - 1 / self.Yx).max_abs() == 0
            assert ber.body == Fraction(-4, 5)

    def test_exact_action_matrix_factorization(self):
        for parity_flag in (False, True):
            m = action_matrix(2, 1, parity_flag, self.Qx, self.Yx)
            scale, upper, diag, lower = action_factors(
                2, 1, parity_flag, self.Qx, self.Yx)
            assert scale == Fraction(49, 9)
            assert (upper * diag * lower * scale).distance(m) == 0

    def test_action_matrix_factorization_exact_at_integers(self):
        # negative powers of an int q or y are Fractions, not floats
        for parity_flag in (False, True):
            m = action_matrix(2, 1, parity_flag, 2, 3)
            scale, upper, diag, lower = action_factors(2, 1, parity_flag, 2, 3)
            assert type(scale) is Fraction and scale == Fraction(1, 4)
            distance = (upper * diag * lower * scale).distance(m)
            assert distance == 0 and type(distance) is Fraction
            assert all(isinstance(c, (int, Fraction)) for mat in (m, diag)
                       for row in mat.rows for x in row
                       for c in x.components())

    def test_suite_checks_factorization_and_coordinate_berezinian(self):
        rows = {r.identity: r for r in checks.gl11()}
        for identity in ("action-matrix-factorization",
                         "coordinate-matrix-berezinian"):
            assert rows[identity].passed, rows[identity]
        assert rows["action-matrix-factorization"].element \
            == "Delta=2,c=1,even+odd"


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


def ref_jet_identity_residual(jets):
    """``jet_matrix_identity_residual`` in its first formulation: the full
    ``solve_jet`` and the public, coercing SuperMatrix constructor."""
    ft, fz, pt, pz = (GrassmannNumber._coerce(jets[k])
                      for k in ("Ft", "Fz", "Pt", "Pz"))
    p = solve_jet(jets)
    q, y, eps0, delta0 = p["q"], p["y"], p["eps0"], p["delta0"]
    lhs = SuperMatrix([
        [GrassmannNumber(1.0), eps0],
        [delta0, y - eps0 * delta0],
    ]) * (q * y.inverse())
    rho = SuperMatrix([[ft, pt], [fz, pz]])
    rhs = SuperMatrix([[ft, -fz], [pt, pz]]) * berezinian(rho)
    return lhs.distance(rhs)


def ref_first_order(jets):
    """The first-order jet coordinates, written out as ``solve_jet`` first
    wrote them."""
    ft, fz, pt, pz = (GrassmannNumber._coerce(jets[k])
                      for k in ("Ft", "Fz", "Pt", "Pz"))
    ft_inv = ft.inverse()
    return {"q": ft, "eps0": -fz * ft_inv, "delta0": pt * ft_inv,
            "y": pz * ft_inv - fz * pt * ft_inv * ft_inv}


class TestJetIdentityResidual:
    def test_equals_the_full_solve_formulation(self):
        rng = random.Random(13)
        for i in range(200):
            jets = jet_from_params(random_params(rng))
            if i % 2:
                # data no coordinate change has: the identity still holds
                jets["Pz"] = jets["Pz"] * rng.uniform(0.5, 2.0)
                jets["Fz"] = jets["Fz"] + rng.uniform(-1, 1)
            if i % 50 == 0:
                jets["Ft"] = rng.uniform(0.5, 2.0)  # a scalar entry
            got = jet_matrix_identity_residual(jets)
            assert got == ref_jet_identity_residual(jets)
            assert got < 1e-10
            back = solve_jet(jets)
            for key, want in ref_first_order(jets).items():
                assert back[key].components() == want.components(), key

    def test_a_berezinian_in_b_c_order_fails_the_identity(self, monkeypatch):
        def b_times_c(m):
            a, b = m.rows[0]
            c, d = m.rows[1]
            dinv = d.inverse()
            return a * dinv + b * c * dinv * dinv

        jets = jet_from_params(random_params(random.Random(11)))
        assert jet_matrix_identity_residual(jets) < 1e-10
        monkeypatch.setattr(superconformal, "berezinian", b_times_c)
        assert jet_matrix_identity_residual(jets) > 1e-2
