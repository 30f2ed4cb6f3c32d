import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from superchar import characters, elliptic, jacobi_forms
from superchar.cli import _series_json
from superchar.series_core import (
    EXACT_I, EXACT_TWO_PI_I, EvalPoint, Prefactor, QYSeries, euler_product,
    infinite_product,
)

# partition numbers p(0)..p(15)
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]

# exponents of the generalized pentagonal numbers in prod (1 - q^n)
PENTAGONAL = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}


def small_series(entries, q_order=12):
    return QYSeries({(n, 2 * r): c for (n, r), c in entries.items()}, q_order)


class TestEvalPoint:
    def test_q_and_y(self):
        pt = EvalPoint(0.25 + 1.5j, 0.4 - 0.2j)
        assert pt.q == pytest.approx(cmath.exp(2j * cmath.pi * pt.tau))
        assert pt.y == pytest.approx(cmath.exp(2j * cmath.pi * pt.alpha))
        assert abs(pt.q) < 1

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            EvalPoint(0.25 - 1.5j, 0.0)
        with pytest.raises(ValueError):
            EvalPoint(0.25, 0.0)


class TestQYSeriesArithmetic:
    def test_monomial_product(self):
        a = QYSeries.monomial(2, 1, 2)
        b = QYSeries.monomial(3, 2, -4)
        c = a * b
        assert c.exact_coeff(3, -2) == 6
        assert len(c.coeffs) == 1

    def test_binomial_square(self):
        s = small_series({(0, 0): 1, (1, 1): 1})
        sq = s * s
        assert sq.exact_coeff(0, 0) == 1
        assert sq.exact_coeff(1, 2) == 2
        assert sq.exact_coeff(2, 4) == 1

    def test_cancellation_leaves_no_stale_keys(self):
        # regression: repeated accumulation through zero must clear the key
        a = small_series({(0, 0): 1, (3, 0): 1})
        b = small_series({(3, 0): -1})
        total = QYSeries({}, 12)
        total = total + b
        total = total + a
        assert (3, 0) not in total.coeffs
        assert total == QYSeries.one(12)

    def test_q_truncation(self):
        a = QYSeries.monomial(1, 4, 0, q_order=6)
        assert (a * a).exact_coeff(8, 0) == 0
        assert (a * a).q_order == 6

    def test_negative_q_powers(self):
        a = QYSeries.monomial(1, -2, 0)
        b = QYSeries.monomial(1, 5, 0)
        assert (a * b) == QYSeries.monomial(1, 3, 0)

    def test_product_flag_is_the_parity_of_its_exponents(self):
        half = QYSeries({(0, 1): 1, (1, -1): 2}, 10)
        whole = QYSeries({(0, 0): 1, (1, 2): 3}, 10)
        assert not (half * half).half_integral
        assert (half * whole).half_integral
        assert not (whole * whole).half_integral

    def test_y_guard(self):
        with pytest.raises(OverflowError):
            QYSeries.monomial(1, 0, 10 ** 6)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            QYSeries({(0, 0): 1.5})
        with pytest.raises(TypeError):
            QYSeries.monomial(1j, 0, 0)

    def test_float_scalar_rejected(self):
        s = small_series({(0, 0): 1, (1, 1): 2})
        for bad in (1.5, 2j):
            with pytest.raises(TypeError):
                s * bad
            with pytest.raises(TypeError):
                bad * s
            with pytest.raises(TypeError):
                s + bad
            with pytest.raises(TypeError):
                s / bad

    def test_float_prefactor_rejected(self):
        # a float would be taken through as_integer_ratio: 0.1 is not 1/10
        for bad in (0.1, 2.0, 1j):
            with pytest.raises(TypeError):
                Prefactor(bad)
        assert (QYSeries.one(3) * Prefactor(Fraction(1, 10))).exact_coeff(0) \
            == Fraction(1, 10)
        assert (QYSeries.one(3) * Prefactor(True)) == QYSeries.one(3)

    def test_ratio_matches_mpmath_two_pi(self):
        # (r) (2 pi)^b from the integer Machin constant, against mpmath at
        # 192 bits, to a relative 2^-185
        for b in range(-12, 13):
            for r in (1, -3, Fraction(5, 7), Fraction(-22, 9), 10 ** 30 + 7):
                num, den = Prefactor(r, 0, b).ratio()
                with mpmath.workprec(192):
                    ref = mpmath.mpf(r.numerator) / r.denominator \
                        * (2 * mpmath.pi) ** b
                    err = abs(mpmath.mpf(num) / den / ref - 1)
                assert err < mpmath.mpf(2) ** -185, (b, r)

    def test_mixed_prefactor_sum_rejected(self):
        s = small_series({(0, 0): 1, (1, 1): 2})
        for other in (s * EXACT_I, s * EXACT_TWO_PI_I):
            with pytest.raises(ValueError):
                s + other
            with pytest.raises(ValueError):
                s - other
            assert s != other
        assert s * EXACT_I + s * EXACT_I == s * EXACT_I * 2
        # the zero series adds to any prefactor
        assert QYSeries({}, 12) + s * EXACT_I == s * EXACT_I


class TestQOffset:
    """The power q^c of the prefactor: exact offsets carried through the
    ring operations."""

    def test_offsets_add_under_product(self):
        a = QYSeries.one(10) * Prefactor(c=Fraction(1, 24))
        b = QYSeries.one(10) * Prefactor(c=Fraction(5, 24))
        assert (a * b).q_offset == Fraction(1, 4)
        assert QYSeries.one(10).q_offset == 0

    def test_power_scales_the_offset(self):
        a = euler_product(10) * Prefactor(c=Fraction(1, 8))
        assert (a ** 3).q_offset == Fraction(3, 8)
        assert (a ** 8).q_offset == 1
        assert (a.invert() ** 2).q_offset == Fraction(-1, 4)
        # an integral offset stays in the prefactor: the mantissa keeps
        # every row to q_order, as it does without the offset
        assert (a ** 8).rows.shape == (euler_product(10) ** 8).rows.shape

    def test_invert_negates_offset(self):
        a = euler_product(10) * Prefactor(c=Fraction(1, 24))
        assert a.invert().q_offset == Fraction(-1, 24)
        assert a * a.invert() == QYSeries.one(10)

    def test_sum_of_different_offsets_rejected(self):
        s = small_series({(0, 0): 1, (1, 1): 2})
        shifted = s * Prefactor(c=Fraction(1, 2))
        for other in (shifted, s * Prefactor(c=1)):
            with pytest.raises(ValueError):
                s + other
            with pytest.raises(ValueError):
                other - s
        assert (shifted + shifted).q_offset == Fraction(1, 2)
        assert shifted - shifted == QYSeries({}, 12)

    def test_equality_sees_the_offset(self):
        s = small_series({(0, 0): 1, (1, 1): 2})
        assert s != s * Prefactor(c=Fraction(1, 3))
        third = s * Prefactor(c=Fraction(1, 3))
        assert third != s * Prefactor(c=Fraction(2, 3))
        assert third == s * Prefactor(c=Fraction(2, 6))

    def test_evaluate_applies_offset(self):
        pt = EvalPoint(0.13 + 1.21j, 0.07 + 0.03j)
        s = small_series({(0, 0): 1, (1, 1): 2})
        value, bound = s.evaluate(pt)
        v, b = (s * Prefactor(c=Fraction(1, 2))).evaluate(pt)
        half = cmath.exp(1j * cmath.pi * pt.tau)
        assert v == pytest.approx(value * half)
        assert b == pytest.approx(bound * abs(half))

    def test_derivations_and_y_one_keep_the_offset(self):
        s = small_series({(0, 0): 1, (1, 1): 2, (2, -1): 3})
        c = Fraction(3, 8)
        shifted = s * Prefactor(c=c)
        # q d/dq (q^c f) = q^c (c f + q df/dq)
        assert shifted.q_d_dq() == (s * c + s.q_d_dq()) * Prefactor(c=c)
        assert shifted.y_d_dy() == s.y_d_dy() * Prefactor(c=c)
        assert shifted.y_substitute_one().q_offset == c

    def test_float_offset_rejected(self):
        with pytest.raises(TypeError):
            Prefactor(c=0.5)


class TestInvert:
    def test_geometric_series(self):
        s = small_series({(0, 0): 1, (1, 0): -1})
        inv = s.invert()
        for n in range(13):
            assert inv.exact_coeff(n, 0) == 1

    def test_shifted_lowest_row(self):
        s = QYSeries({(2, 2): 1, (3, 0): 1}, 10)
        assert s * s.invert() == QYSeries.one(10)

    def test_non_monomial_lowest_row_rejected(self):
        s = small_series({(0, 0): 1, (0, 1): 1})
        with pytest.raises(ValueError):
            s.invert()

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QYSeries().invert()

    def test_no_quotient_by_a_series_or_negative_power(self):
        # an inverse is asked for by name; / takes scalars and prefactors
        s = small_series({(0, 0): 1, (1, 0): -1})
        with pytest.raises(TypeError):
            s / s
        with pytest.raises(TypeError):
            s ** -1
        assert s / 2 == s * Fraction(1, 2)


class TestEulerProduct:
    def test_pentagonal_coefficients(self):
        e = euler_product(26)
        for n in range(27):
            expected = PENTAGONAL.get(n, 0)
            assert e.exact_coeff(n, 0) == expected

    def test_partition_generating_function(self):
        inv = euler_product(15).invert()
        for n, p in enumerate(PARTITIONS):
            assert inv.exact_coeff(n, 0) == p

    def test_infinite_product_of_the_euler_factors(self):
        prod = infinite_product([(n, 0, -1) for n in range(1, 27)], 26)
        assert prod == euler_product(26)

    @pytest.mark.parametrize("k", [-36, -6, -3, -1, 0, 1, 18, 24])
    @pytest.mark.parametrize("n_q", [0, 1, 2, 40, 100])
    def test_power_is_the_repeated_product_or_its_inverse(self, n_q, k):
        ref = QYSeries.one(n_q)
        for _ in range(abs(k)):
            ref = ref * euler_product(n_q)
        if k < 0:
            ref = ref.invert()
        power = euler_product(n_q, k)
        assert power == ref
        assert (power.q_order, power.q_offset) == (n_q, 0)


def binomial_fold(binomials, n_q):
    """prod (1 + c q^a y^(b2/2)) as one series product per binomial: the
    reference for ``infinite_product``."""
    out = QYSeries.one(n_q)
    for a, b2, c in binomials:
        out = out * (QYSeries.one(n_q) + QYSeries.monomial(c, a, b2, n_q))
    return out


def character_binomials(n_q):
    """(1 - y q^n)(1 - y^-1 q^(n-1)), n = 1 .. n_q + 1."""
    return [t for n in range(1, n_q + 2)
            for t in ((n, 2, -1), (n - 1, -2, -1))]


def triple_binomials(n_q):
    """The character's binomials and (1 - q^n)."""
    return character_binomials(n_q) + [(n, 0, -1) for n in range(1, n_q + 2)]


class TestInfiniteProduct:
    @pytest.mark.parametrize("n_q", [0, 1, 7, 40, 100])
    @pytest.mark.parametrize("binomials",
                             [character_binomials, triple_binomials])
    def test_matches_the_binomial_fold(self, binomials, n_q):
        prod = infinite_product(binomials(n_q), n_q)
        assert prod == binomial_fold(binomials(n_q), n_q)
        assert prod.q_order == n_q

    def test_past_a_machine_word(self):
        # the majorant passes 2^63 at q^2, so the block holds Python ints
        binomials = [(n, 2, 2 ** 40) for n in range(1, 13)] + [
            (n, -2, -(2 ** 40) + 1) for n in range(0, 12)]
        prod = infinite_product(binomials, 12)
        assert prod == binomial_fold(binomials, 12)
        assert prod.max_abs_coeff() > 2 ** 100

    def test_rejects_a_half_integral_or_negative_power(self):
        for binomial in ((1, 1, -1), (-1, 2, -1)):
            with pytest.raises(ValueError):
                infinite_product([binomial], 5)


class TestDerivations:
    def test_q_d_dq(self):
        s = small_series({(3, 1): 2, (0, 0): 5})
        d = s.q_d_dq()
        assert d == small_series({(3, 1): 6})

    def test_y_d_dy(self):
        s = small_series({(1, 2): 4})
        assert s.y_d_dy() == small_series({(1, 2): 8})

    def test_y_d_dy_half_integral(self):
        s = QYSeries({(0, 1): 2}, 10)
        assert s.y_d_dy() == QYSeries({(0, 1): 1}, 10)

    def test_y_substitute_one(self):
        s = small_series({(2, 1): 3, (2, -1): 4, (1, 0): 1})
        flat = s.y_substitute_one()
        assert flat == small_series({(2, 0): 7, (1, 0): 1})


class TestEvaluate:
    def test_against_direct_sum(self):
        s = small_series({(0, 0): 1, (1, 1): 2, (3, -2): Fraction(1, 2)})
        pt = EvalPoint(0.1 + 1.2j, 0.3 + 0.05j)
        value, bound = s.evaluate(pt)
        direct = sum(c * pt.q ** n * pt.y ** (r2 // 2)
                     for (n, r2), c in s.coeffs.items())
        assert value == pytest.approx(direct)
        assert bound >= 0

    def test_half_integral_branch(self):
        # y^(1/2) must be continuous in alpha, not the principal square root:
        # alpha -> alpha + 1 flips its sign.
        s = QYSeries({(0, 1): 1}, 10)
        tau = 0.2 + 1.1j
        v0, _ = s.evaluate(EvalPoint(tau, 0.4))
        v1, _ = s.evaluate(EvalPoint(tau, 1.4))
        assert v1 == pytest.approx(-v0)
        assert v0 == pytest.approx(cmath.exp(1j * cmath.pi * 0.4))

    def test_tail_bound_shrinks(self):
        s = euler_product(20)
        pt = EvalPoint(0.0 + 2.0j, 0.0)
        _, bound = s.evaluate(pt)
        assert bound < abs(pt.q) ** 15

    def test_rejects_expanding_q(self):
        s = QYSeries.monomial(1, -1, 0)
        with pytest.raises(ValueError):
            s.evaluate(EvalPoint(0.3, 0.0))  # would need Im tau > 0 anyway


def evaluate_per_term(series, point):
    """``QYSeries.evaluate`` with every power of q and y computed for its
    own term and every term's magnitude added to its shell: the reference
    for the powers computed once per call."""
    q = point.q
    value, shells = 0j, {}
    sqrt_y = cmath.exp(1j * cmath.pi * point.alpha)
    for n, r2, c in series.terms():
        term = c * q ** n * sqrt_y ** r2
        value += term
        shells[n] = shells.get(n, 0.0) + abs(term)
    bound = shells[max(shells)] if shells else 0.0
    if series.scale.c:
        offset = cmath.exp(2j * math.pi * point.tau * float(series.scale.c))
        value, bound = value * offset, bound * abs(offset)
    return value, bound


@pytest.mark.parametrize("make", [
    lambda: characters.chi_character(characters.e8_lattice(), 30,
                                     "closed").chi,
    lambda: jacobi_forms.phi_weak("phi_m2_1", 30).offset_series,
    # half-integral y-powers and a (2 pi)^-1 prefactor
    lambda: jacobi_forms.phi_weak("phi_m1_half", 30).offset_series,
    # negative powers of y
    lambda: elliptic.zeta_bar_series(10, 20),
    # the q-offset 1/24
    lambda: jacobi_forms.eta_series(30),
    lambda: QYSeries({}, 10),
], ids=["chi_E8", "phi_m2_1", "phi_m1_half", "zeta_bar", "eta", "empty"])
def test_evaluate_is_the_sum_term_by_term(make):
    series = make()
    rng = random.Random(24)
    for _ in range(60):
        point = EvalPoint(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 2)),
                          complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)))
        assert series.evaluate(point) == evaluate_per_term(series, point)


class TestJsonRoundTrip:
    def test_json_is_valid(self):
        obj = _series_json(euler_product(5))["series"]
        assert obj["q_order"] == 5
        assert all(len(term) == 4 for term in obj["terms"])


coeff_strategy = st.one_of(
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=6))

# nonnegative q-powers only: with negative powers, truncation at q_order is
# not associative (a tail term can re-enter range after dividing by q).  Up
# to 12 terms, so that products take both the monomial shift and the
# Kronecker path.
series_strategy = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(-4, 4)),
    coeff_strategy, max_size=12,
).map(lambda d: QYSeries({(n, 2 * r): c for (n, r), c in d.items()}, 8))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, series_strategy)
    def test_mul_associative(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, series_strategy)
    def test_distributive(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(series_strategy)
    def test_invert_roundtrip(self, a):
        base = QYSeries.monomial(1, -1, 2, 8) + a * QYSeries.monomial(
            1, 0, 0, 8)
        prod = base * base.invert()
        # rows at q_order + n0 + 1 and above lose truncated cross terms
        assert prod * QYSeries.one(8 - 2) == QYSeries.one(8 - 2)
