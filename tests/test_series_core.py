import cmath
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from superchar.series_core import (
    EvalPoint, QYSeries, euler_product, infinite_product,
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
        a = QYSeries.monomial(2.0, 1, 2)
        b = QYSeries.monomial(3.0, 2, -4)
        c = a * b
        assert c.coeff(3, -2) == 6.0
        assert len(c.coeffs) == 1

    def test_binomial_square(self):
        s = small_series({(0, 0): 1.0, (1, 1): 1.0})
        sq = s * s
        assert sq.coeff(0, 0) == 1.0
        assert sq.coeff(1, 2) == 2.0
        assert sq.coeff(2, 4) == 1.0

    def test_cancellation_leaves_no_stale_keys(self):
        # regression: repeated accumulation through zero must clear the key
        a = small_series({(0, 0): 1.0, (3, 0): 1.0})
        b = small_series({(3, 0): -1.0})
        total = QYSeries.zero(12)
        total = total + b
        total = total + a
        assert (3, 0) not in total.coeffs
        assert total.coeff(0, 0) == 1.0

    def test_q_truncation(self):
        a = QYSeries.monomial(1.0, 4, 0, q_order=6)
        assert (a * a).coeff(8, 0) == 0j
        assert (a * a).q_order == 6

    def test_negative_q_powers(self):
        a = QYSeries.monomial(1.0, -2, 0)
        b = QYSeries.monomial(1.0, 5, 0)
        assert (a * b).coeff(3, 0) == 1.0

    def test_odd_doubled_exponent_requires_half_integral(self):
        with pytest.raises(ValueError):
            QYSeries({(0, 1): 1.0}, 10)
        s = QYSeries({(0, 1): 1.0}, 10, half_integral=True)
        assert s.coeff(0, 1) == 1.0

    def test_product_flag_is_the_parity_of_its_exponents(self):
        half = QYSeries({(0, 1): 1, (1, -1): 2}, 10, half_integral=True)
        whole = QYSeries({(0, 0): 1, (1, 2): 3}, 10)
        assert not (half * half).half_integral
        assert (half * whole).half_integral
        assert not (whole * whole).half_integral

    def test_y_guard(self):
        with pytest.raises(OverflowError):
            QYSeries.monomial(1.0, 0, 10 ** 6)


class TestInvert:
    def test_geometric_series(self):
        s = small_series({(0, 0): 1.0, (1, 0): -1.0})
        inv = s.invert()
        for n in range(13):
            assert inv.coeff(n, 0) == pytest.approx(1.0)

    def test_shifted_lowest_row(self):
        s = QYSeries({(2, 2): 1.0, (3, 0): 1.0}, 10)
        prod = s * s.invert()
        assert prod.coeff(0, 0) == pytest.approx(1.0)
        worst = max((abs(c) for k, c in prod.coeffs.items() if k != (0, 0)),
                    default=0.0)
        assert worst < 1e-12

    def test_non_monomial_lowest_row_rejected(self):
        s = small_series({(0, 0): 1.0, (0, 1): 1.0})
        with pytest.raises(ValueError):
            s.invert()

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QYSeries.zero().invert()


class TestEulerProduct:
    def test_pentagonal_coefficients(self):
        e = euler_product(26)
        for n in range(27):
            expected = PENTAGONAL.get(n, 0)
            assert e.coeff(n, 0) == pytest.approx(expected)

    def test_partition_generating_function(self):
        inv = euler_product(15).invert()
        for n, p in enumerate(PARTITIONS):
            assert inv.coeff(n, 0) == pytest.approx(p)

    def test_product_stabilization_guard(self):
        with pytest.raises(RuntimeError):
            infinite_product(
                lambda n: QYSeries({(0, 0): 1.0, (1, 0): 1.0}, 10),
                10, min_degree=lambda n: 1, max_factors=20)


class TestDerivations:
    def test_q_d_dq(self):
        s = small_series({(3, 1): 2.0, (0, 0): 5.0})
        d = s.q_d_dq()
        assert d.coeff(3, 2) == 6.0
        assert d.coeff(0, 0) == 0j

    def test_y_d_dy(self):
        s = small_series({(1, 2): 4.0})
        assert s.y_d_dy().coeff(1, 4) == 8.0

    def test_y_d_dy_half_integral(self):
        s = QYSeries({(0, 1): 2.0}, 10, half_integral=True)
        assert s.y_d_dy().coeff(0, 1) == 1.0

    def test_y_substitute_one(self):
        s = small_series({(2, 1): 3.0, (2, -1): 4.0, (1, 0): 1.0})
        flat = s.y_substitute_one()
        assert flat.coeff(2, 0) == 7.0
        assert flat.coeff(1, 0) == 1.0


class TestEvaluate:
    def test_against_direct_sum(self):
        s = small_series({(0, 0): 1.0, (1, 1): 2.0, (3, -2): 0.5})
        pt = EvalPoint(0.1 + 1.2j, 0.3 + 0.05j)
        value, bound = s.evaluate(pt)
        direct = sum(c * pt.q ** n * pt.y ** (r2 // 2)
                     for (n, r2), c in s.coeffs.items())
        assert value == pytest.approx(direct)
        assert bound >= 0

    def test_half_integral_branch(self):
        # y^(1/2) must be continuous in alpha, not the principal square root:
        # alpha -> alpha + 1 flips its sign.
        s = QYSeries({(0, 1): 1.0}, 10, half_integral=True)
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
        s = QYSeries.monomial(1.0, -1, 0)
        with pytest.raises(ValueError):
            s.evaluate(EvalPoint(0.3, 0.0))  # would need Im tau > 0 anyway


class TestJsonRoundTrip:
    def test_round_trip_exact(self):
        s = QYSeries({(0, 1): 1.0 + 2.0j, (3, -5): -0.25}, 17,
                     half_integral=True)
        t = QYSeries.from_json(s.to_json())
        assert t.q_order == 17
        assert t.half_integral
        assert t.coeffs == s.coeffs

    def test_json_is_valid(self):
        obj = json.loads(euler_product(5).to_json())
        assert obj["q_order"] == 5
        assert all(len(term) == 4 for term in obj["terms"])


coeff_strategy = st.builds(
    complex,
    st.floats(-4, 4, allow_nan=False),
    st.floats(-4, 4, allow_nan=False))

# nonnegative q-powers only: with negative powers, truncation at q_order is
# not associative (a tail term can re-enter range after dividing by q)
series_strategy = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(-4, 4)),
    coeff_strategy, max_size=6,
).map(lambda d: QYSeries({(n, 2 * r): c for (n, r), c in d.items()}, 8))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, series_strategy)
    def test_mul_associative(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.normalized_distance(rhs) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, series_strategy)
    def test_distributive(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.normalized_distance(rhs) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(series_strategy)
    def test_invert_roundtrip(self, a):
        base = QYSeries.monomial(1.0, -1, 2, 8) + a * QYSeries.monomial(
            1.0, 0, 0, 8)
        prod = base * base.invert()
        assert abs(prod.coeff(0, 0) - 1.0) < 1e-9
        # rows at q_order + n0 + 1 and above lose truncated cross terms
        worst = max((abs(c) for (n, r2), c in prod.coeffs.items()
                     if (n, r2) != (0, 0) and n < 8 - 1), default=0.0)
        assert worst < 1e-8
