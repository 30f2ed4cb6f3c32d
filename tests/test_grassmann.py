import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superchar.grassmann import (
    DELTA, EPS, GrassmannNumber, SuperMatrix, berezinian, exp_nilpotent, odd,
)


def g(c0=0, ce=0, cd=0, ced=0):
    return GrassmannNumber(c0, ce, cd, ced)


class TestGenerators:
    def test_generators_square_to_zero(self):
        assert (EPS * EPS).max_abs() == 0.0
        assert (DELTA * DELTA).max_abs() == 0.0

    def test_anticommute(self):
        assert (EPS * DELTA + DELTA * EPS).max_abs() == 0.0
        assert (EPS * DELTA).ced == 1.0
        assert (DELTA * EPS).ced == -1.0

    def test_odd_helper(self):
        t = odd(2.0, 3.0)
        assert t.components() == (0, 2.0, 3.0, 0)

    def test_odd_squares_to_zero(self):
        t = odd(2.0, 3.0)
        assert (t * t).max_abs() == 0.0


class TestArithmetic:
    def test_product_components(self):
        a = g(1, 2, 3, 4)
        b = g(5, 6, 7, 8)
        p = a * b
        assert p.c0 == 5
        assert p.ce == 1 * 6 + 2 * 5
        assert p.cd == 1 * 7 + 3 * 5
        # top component picks up the antisymmetric cross term
        assert p.ced == 1 * 8 + 4 * 5 + 2 * 7 - 3 * 6

    def test_scalar_coercion(self):
        assert (2.0 + EPS).c0 == 2.0
        assert (EPS * 3.0).ce == 3.0
        assert (1j * DELTA).cd == 1j

    def test_even_elements_are_central(self):
        a = g(2, 0, 0, 5)  # generic even element
        b = g(1, 2, 3, 4)
        assert (a * b - b * a).max_abs() == 0.0

    def test_subtraction_and_negation(self):
        a = g(1, 2, 3, 4)
        assert (a - a).max_abs() == 0.0
        assert (-a + a).max_abs() == 0.0

    def test_parity_split(self):
        a = g(1, 2, 3, 4)
        assert a.body == 1
        assert a.nilpotent().components() == (0, 2, 3, 4)


class TestInverse:
    def test_inverse_roundtrip(self):
        a = g(2.0 + 1j, 0.5, -0.25, 3.0)
        assert (a * a.inverse() - 1.0).max_abs() < 1e-14
        assert (a.inverse() * a - 1.0).max_abs() < 1e-14

    def test_zero_body_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            EPS.inverse()


nums = st.builds(
    g,
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))


class TestAlgebraAxioms:
    @settings(max_examples=80, deadline=None)
    @given(nums, nums, nums)
    def test_associative(self, a, b, c):
        assert ((a * b) * c - a * (b * c)).max_abs() < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(nums, nums, nums)
    def test_distributive(self, a, b, c):
        assert (a * (b + c) - (a * b + a * c)).max_abs() < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(nums, nums)
    def test_product_inverse(self, a, b):
        a = a + 4.0  # keep bodies away from zero
        b = b + 4.0
        lhs = (a * b).inverse()
        rhs = b.inverse() * a.inverse()
        assert (lhs - rhs).max_abs() < 1e-9


class TestSuperMatrix:
    def test_identity(self):
        m = SuperMatrix.identity()
        a = SuperMatrix([[g(1, 2, 0, 0), g(0, 1, 1, 0)],
                         [g(0, 0, 2, 0), g(3, 0, 0, 1)]])
        assert (m * a).distance(a) == 0.0
        assert (a * m).distance(a) == 0.0

    def test_only_two_by_two(self):
        with pytest.raises(ValueError):
            SuperMatrix([[g(2), odd(1, 0), odd(0, 1)],
                         [odd(0, 1), g(3), g(0, 0, 0, 1)],
                         [odd(1, 1), g(1), g(4)]])

    def test_public_constructor_checks_entries(self):
        with pytest.raises(ValueError):
            SuperMatrix([[1, "x"], [0, 1]])
        with pytest.raises(ValueError):
            SuperMatrix([[1, 0], [0]])
        m = SuperMatrix([[1, 0.5], [0, 2j]])
        assert m.rows[0][1].components() == (0.5, 0, 0, 0)

    def test_arithmetic_results_hold_grassmann_entries(self):
        a = SuperMatrix([[g(2, 0, 0, 1), odd(1, -1)],
                         [odd(0.5, 2), g(3, 0, 0, -2)]])
        for m in (a + a, a - a, a * a, a * 2, a * EPS):
            assert len(m.rows) == 2 and all(len(row) == 2 for row in m.rows)
            assert all(type(x) is GrassmannNumber for row in m.rows
                       for x in row)
        assert (a + a).distance(a * 2) == 0.0
        assert (a - a).max_abs() == 0.0


class TestBerezinian:
    def test_diagonal(self):
        m = SuperMatrix([[g(6.0), g(0)], [g(0), g(2.0)]])
        assert (berezinian(m) - 3.0).max_abs() < 1e-14

    def test_multiplicative(self):
        a = SuperMatrix([[g(2, 0, 0, 0.5), odd(1, 2)],
                         [odd(-1, 0.5), g(3, 0, 0, 1)]])
        b = SuperMatrix([[g(1.5, 0, 0, -1), odd(0.5, 1)],
                         [odd(2, -0.5), g(0.5, 0, 0, 2)]])
        lhs = berezinian(a * b)
        rhs = berezinian(a) * berezinian(b)
        assert (lhs - rhs).max_abs() < 1e-12

    def test_unipotent(self):
        m = SuperMatrix([[g(1), odd(3, 1)], [g(0), g(1)]])
        assert (berezinian(m) - 1.0).max_abs() < 1e-14


class TestExpNilpotent:
    def test_strictly_triangular(self):
        n = SuperMatrix([[g(0), odd(2, 0)], [g(0), g(0)]])
        e = exp_nilpotent(n)
        expected = SuperMatrix([[g(1), odd(2, 0)], [g(0), g(1)]])
        assert e.distance(expected) < 1e-14

    def test_inverse_is_negative_exponent(self):
        n = SuperMatrix([[g(0, 0, 0, 0.3), odd(1, 2)],
                         [odd(0.5, -1), g(0, 0, 0, -0.2)]])
        e = exp_nilpotent(n)
        e_inv = exp_nilpotent(n * (-1.0))
        assert (e * e_inv).distance(SuperMatrix.identity()) < 1e-13

    def test_rejects_non_nilpotent(self):
        m = SuperMatrix([[g(1), g(0)], [g(0), g(1)]])
        with pytest.raises((ValueError, RuntimeError)):
            exp_nilpotent(m)


# -- the arithmetic against a reference on component tuples -------------------
#
# The reference is the textbook form: a scalar is coerced to (s, 0, 0, 0),
# every product is the full four-component product, and the inverse is the
# geometric series c0^-1 (1 + n + n^2) with n = -N/c0.

def ref_of(x):
    if isinstance(x, GrassmannNumber):
        return x.components()
    return (complex(x), 0j, 0j, 0j)


def ref_add(a, b):
    return tuple(p + q for p, q in zip(a, b))


def ref_neg(a):
    return tuple(-p for p in a)


def ref_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1)


def ref_inverse(a):
    inv0 = 1.0 / a[0]
    n = ref_mul((0j,) + a[1:], (-inv0, 0j, 0j, 0j))
    series = ref_add(ref_add((1 + 0j, 0j, 0j, 0j), n), ref_mul(n, n))
    return ref_mul(series, (inv0, 0j, 0j, 0j))


REF_OPS = (
    (operator.add, ref_add),
    (operator.sub, lambda a, b: ref_add(a, ref_neg(b))),
    (operator.mul, ref_mul),
)

parts = st.floats(-8, 8, allow_nan=False, allow_subnormal=False)
cplx = st.builds(complex, parts, parts)
bodies = cplx.filter(lambda z: abs(z) >= 0.05)
elements = st.builds(GrassmannNumber, bodies, cplx, cplx, cplx)
scalars = st.one_of(
    st.just(True), st.integers(-1000, 1000).filter(bool), bodies,
    st.fractions(min_value=-50, max_value=50,
                 max_denominator=64).filter(bool),
    parts.filter(lambda x: abs(x) >= 0.05))


def assert_same(got, want):
    assert all(type(c) is complex for c in got.components())
    assert got.components() == want


class TestArithmeticAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(elements, elements, scalars)
    def test_operations(self, a, b, s):
        for op, ref in REF_OPS:
            assert_same(op(a, b), ref(ref_of(a), ref_of(b)))
            assert_same(op(a, s), ref(ref_of(a), ref_of(s)))
        # a scalar on the left is added or multiplied, not subtracted
        assert_same(s + a, ref_add(ref_of(s), ref_of(a)))
        assert_same(s * a, ref_mul(ref_of(s), ref_of(a)))
        assert_same(-a, ref_neg(ref_of(a)))
        assert_same(a.inverse(), ref_inverse(ref_of(a)))

    @pytest.mark.parametrize("other", ["x", None])
    def test_other_operands_raise_type_error(self, other):
        a = g(1, 2, 3, 4)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)

    def test_fractions_stay_fractions(self):
        x = g(*map(Fraction, (2, 1, -5, 3), (3, 2, 7, 1)))
        y = g(*map(Fraction, (-4, 2, 1, 7), (9, 1, 3, 5)))
        half = Fraction(1, 2)
        for z in (x + y, x - y, x * y, x + half, x - half, half * x,
                  x.inverse()):
            assert all(type(c) is Fraction for c in z.components()), z
        assert (x * x.inverse() - 1).components() == (0, 0, 0, 0)
        m = SuperMatrix([[x, odd(half, -half)], [odd(half * 3, half), y]])
        ber = berezinian(m)
        assert all(type(c) is Fraction for c in ber.components())
        assert ber.body == x.body / y.body

    @pytest.mark.parametrize("bad", ["1", None, [1], EPS])
    def test_non_number_component_is_type_error(self, bad):
        with pytest.raises(TypeError):
            GrassmannNumber(bad)
        with pytest.raises(TypeError):
            GrassmannNumber(1, 0, 0, bad)


class TestExactRings:
    def test_int_body_inverts_to_fractions(self):
        inv = g(2, 1).inverse()
        assert inv.components() == (Fraction(1, 2), Fraction(-1, 4), 0, 0)
        assert all(type(c) is Fraction for c in inv.components())
        assert (g(2, 1) * inv - 1).max_abs() == 0

    def test_repr_of_fraction_components(self):
        x = g(Fraction(3, 7), 0, Fraction(-5, 4), 2.5)
        assert repr(x) == "G(3/7 + (0)e + (-5/4)d + (2.5)ed)"
        assert repr(SuperMatrix([[x, 0], [0, 1j]])) == (
            "SuperMatrix([G(3/7 + (0)e + (-5/4)d + (2.5)ed), "
            "G(0 + (0)e + (0)d + (0)ed)], [G(0 + (0)e + (0)d + (0)ed), "
            "G(0+1j + (0)e + (0)d + (0)ed)])")

    def test_exp_nilpotent_is_exact_over_the_integers(self):
        n = SuperMatrix([[g(0, 0, 0, 3), odd(1, 2)], [odd(-2, 1), g(0)]])
        e = exp_nilpotent(n)
        assert (e * exp_nilpotent(n * -1)).distance(
            SuperMatrix.identity()) == 0
        assert all(type(c) in (int, Fraction) for row in e.rows
                   for x in row for c in x.components())
