"""Exact coefficients at high q-order.  The E8 character and the weak
Jacobi forms phi_{-2,1}, phi_{10,1} and phi_{0,1} are compared with
references built here from plain integer dict products, one binomial
factor at a time; the packed product and the inverse are compared with
naive integer arithmetic."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchar.characters import chi_character, e8_lattice
from superchar.jacobi_forms import phi_weak
from superchar import series_core
from superchar.series_core import (EXACT_I, Prefactor, QYSeries, _decode,
                                   _encode, _max_abs, _packed_copies,
                                   _packed_product, _shifted_copies,
                                   euler_product)


def mul(a, b, n_q):
    """Product of {(n, r2): int} dicts, truncated above q^n_q."""
    out = {}
    for (n1, r1), c1 in a.items():
        for (n2, r2), c2 in b.items():
            if n1 + n2 <= n_q:
                key = (n1 + n2, r1 + r2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def euler_power(k, n_q):
    """prod_{n>=1} (1 - q^n)^k, multiplying (k > 0) or dividing (k < 0) by
    one binomial at a time."""
    out = [1] + [0] * n_q
    for n in range(1, n_q + 1):
        for _ in range(abs(k)):
            if k > 0:
                for m in range(n_q, n - 1, -1):
                    out[m] -= out[m - n]
            else:
                for m in range(n, n_q + 1):
                    out[m] += out[m - n]
    return {(m, 0): c for m, c in enumerate(out) if c}


@lru_cache(maxsize=None)
def triple_product(n_q):
    """T = prod_{n>=1} (1 - q^n)(1 - y q^n)(1 - y^{-1} q^{n-1})."""
    out = {(0, 0): 1}
    for n in range(1, n_q + 2):
        for dn, dr2 in ((n, 0), (n, 2), (n - 1, -2)):
            out = mul(out, {(0, 0): 1, (dn, dr2): -1}, n_q)
    return out


def shifted(a, dn, dr2, n_q):
    return {(n + dn, r2 + dr2): c for (n, r2), c in a.items() if n + dn <= n_q}


def assert_exactly(series, ref):
    """Every coefficient of ``series`` is the integer of ``ref``, and the
    JSON output prints each as its correctly rounded double."""
    keys = set(ref) | set(series.coeffs)
    assert {k: series.exact_coeff(*k) for k in keys} == \
        {k: ref.get(k, 0) for k in keys}
    printed = {(n, r2): (re, im)
               for n, r2, re, im in json.loads(series.terms_json())}
    assert printed == {k: (float(c), 0.0) for k, c in ref.items()}


def test_e8_character_at_q45_in_both_modes():
    # y^{r/4} T^{r/2} prod (1 - q^n)^{-3r/2} Theta with r = 8, Theta = E4
    n_q = 45
    sigma3 = [sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
              for m in range(n_q + 1)]
    theta = {(m, 0): 240 * sigma3[m] if m else 1 for m in range(n_q + 1)}
    t = {k: c for k, c in triple_product(100).items() if k[0] <= n_q}
    t4 = mul(mul(t, t, n_q), mul(t, t, n_q), n_q)
    ref = shifted(mul(mul(t4, euler_power(-12, n_q), n_q), theta, n_q),
                  0, 4, n_q)
    assert max(abs(c) for c in ref.values()) > 2 ** 64
    for mode in ("product", "closed"):
        assert_exactly(chi_character(e8_lattice(), n_q, mode).chi, ref)


def test_phi_m2_1_and_phi_10_1_at_q100():
    # phi_{-2,1} = y T^2 prod (1 - q^n)^{-6}; phi_{10,1} = Delta phi_{-2,1}
    n_q = 100
    t2 = mul(triple_product(n_q), triple_product(n_q), n_q)
    ref = shifted(mul(t2, euler_power(-6, n_q), n_q), 0, 2, n_q)
    assert_exactly(phi_weak("phi_m2_1", n_q).offset_series, ref)
    ref = shifted(mul(t2, euler_power(18, n_q), n_q), 1, 2, n_q)
    assert_exactly(phi_weak("phi_10_1", n_q).offset_series, ref)


def sparse_mul(a, b, n_q):
    """``mul`` for a large ``a`` and a ``b`` of many q-rows: each term of
    ``a`` meets only the rows of ``b`` that stay below q^n_q."""
    rows = {}
    for (n, r2), c in b.items():
        rows.setdefault(n, []).append((r2, c))
    out = {}
    for (n1, r1), c1 in a.items():
        for n2 in range(n_q - n1 + 1):
            for r2, c2 in rows.get(n2, ()):
                key = (n1 + n2, r1 + r2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def test_phi_0_1_at_q100_matches_the_wp_formula():
    # phi_{0,1} = (3 / pi^2) wp phi_{-2,1}, written as
    #   phi_{-2,1} (1 + 12 sum_n sum_{d|n} d (y^d - 2 + y^-d) q^n) + 12 P,
    #   P = prod_n (1 - y q^n)^2 (1 - y^-1 q^n)^2 / (1 - q^n)^4,
    # with phi_{-2,1} = (y - 2 + y^-1) P
    n_q = 100
    half = {(0, 0): 1}
    for n in range(1, n_q + 1):
        for dr2 in (2, -2):
            half = mul(half, {(0, 0): 1, (n, dr2): -1}, n_q)
    p = mul(mul(half, half, n_q), euler_power(-4, n_q), n_q)
    phi_m2 = mul(p, {(0, 2): 1, (0, 0): -2, (0, -2): 1}, n_q)
    wp = {(0, 0): 1}
    for n in range(1, n_q + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                for r2, c in ((2 * d, 12 * d), (0, -24 * d), (-2 * d, 12 * d)):
                    wp[(n, r2)] = wp.get((n, r2), 0) + c
    ref = sparse_mul(phi_m2, wp, n_q)
    for k, c in p.items():
        ref[k] = ref.get(k, 0) + 12 * c
    ref = {k: c for k, c in ref.items() if c}
    assert ref[(1, 0)] == 108 and ref[(n_q, 0)] > 2 ** 64
    assert_exactly(phi_weak("phi_0_1", n_q).offset_series, ref)


def test_index_one_coefficients_depend_only_on_the_discriminant():
    # c(n, r) of a Jacobi form of index 1 is a function of 4n - r^2
    for name in ("phi_0_1", "phi_12_1"):
        series = phi_weak(name, 100).offset_series
        by_disc = {}
        for n, r2, _ in series.terms():
            by_disc.setdefault(4 * n - (r2 // 2) ** 2, set()).add(
                series.exact_coeff(n, r2))
        assert len(by_disc) >= 200
        assert all(len(values) == 1 for values in by_disc.values()), name


def test_phi_m1_half_prints_correctly_rounded_values():
    # phi_{-1,1/2} = y^{1/2} T prod (1 - q^n)^{-3} / (2 pi i): the powers of
    # 2 pi i stay symbolic, so each printed value is -c/(2 pi) rounded once
    n_q = 30
    t = {k: c for k, c in triple_product(100).items() if k[0] <= n_q}
    ref = shifted(mul(t, euler_power(-3, n_q), n_q), 0, 1, n_q)
    with mpmath.workdps(60):
        expect = {k: (0.0, float(-c / (2 * mpmath.pi))) for k, c in ref.items()}
    series = phi_weak("phi_m1_half", n_q).offset_series
    assert {(n, r2): (re, im) for n, r2, re, im
            in json.loads(series.terms_json())} == expect


def test_inverse_is_exact():
    partitions = euler_product(100).invert()
    assert partitions.exact_coeff(100) == 190569292
    # a lead of 2: the inverse has denominators 2^(n+1)
    s = QYSeries({(0, 0): 2, (1, 2): 3, (2, -2): -1}, 12)
    inv = s.invert()
    assert inv.exact_coeff(1, 2) == Fraction(-3, 4)
    assert s * inv == QYSeries.one(12)


def int_series(parity, monomial):
    """{(n, r2): int} with negative q-exponents, doubled y-exponents of one
    parity, and coefficients up to 2^90: one term if ``monomial``, else
    from 2 to 40."""
    keys = st.tuples(st.integers(-3, 7),
                     st.integers(-5, 4).map(lambda r: 2 * r + parity))
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-2 ** 90, 2 ** 90))
    return st.dictionaries(keys, coeffs.filter(bool),
                           min_size=1 if monomial else 2,
                           max_size=1 if monomial else 40)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_packed_product_matches_naive_convolution(data):
    # a monomial factor shifts the other block, any other product is
    # packed; a factor whose terms all lie above q_order is zero
    q_order = data.draw(st.integers(-2, 9))
    a, b = (data.draw(int_series(data.draw(st.integers(0, 1)),
                                 data.draw(st.booleans())))
            for _ in range(2))
    a, b = ({k: c for k, c in x.items() if k[0] <= q_order} for x in (a, b))
    prod = QYSeries(a, q_order) * QYSeries(b, q_order)
    ref = mul(a, b, q_order)
    keys = set(ref) | set(prod.coeffs)
    assert {k: prod.exact_coeff(*k) for k in keys} == \
        {k: ref.get(k, 0) for k in keys}


@pytest.mark.parametrize("width", [8, 9])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_product_at_the_machine_word(width, sign):
    # r x w blocks of +-m, checkerboard signs: every product coefficient
    # is a sum of like-signed terms, and the one at (r - 1, w - 1) is
    # +-r w m^2, the bound that sets the digit width.  r w m^2 just below
    # 2^63 takes 8-byte digits, packed through int64; just above, 9-byte
    # digits.  The 2 x 40 and 40 x 2 pairs are the extreme shapes, packed
    # by q-rows like any other.
    for r, w in ((3, 3), (2, 40), (40, 2)):
        m = isqrt((2 ** 63 - 1) // (r * w)) + (width == 9)
        assert (r * w * m * m).bit_length() // 8 + 1 == width
        checker = np.array([[(-1) ** (i + j) * m for j in range(w)]
                            for i in range(r)], dtype=object)
        a, b = sign * checker, checker
        naive = naive_blocks(a, b, 2 * r - 1)
        assert abs(naive[r - 1, w - 1]) == r * w * m * m
        for n_rows in (2 * r - 1, r):
            assert (_packed_product(a, b, n_rows) == naive[:n_rows]).all()
            assert (_packed_product(b, b, n_rows)
                    == sign * naive[:n_rows]).all()
        # through QYSeries, from q^-1 y^(-w/2), with m - 1 in a's first
        # entry so that its content is 1, cut by the q-order or not
        for q_order in (2 * r - 4, r - 3):
            x, y = ({(i - 1, 2 * j - w): c for (i, j), c in np.ndenumerate(
                block) if i - 1 <= q_order} for block in (a, b))
            x[(-1, -w)] = sign * (m - 1)
            ref = mul(x, y, q_order)
            prod = QYSeries(x, q_order) * QYSeries(y, q_order)
            keys = set(ref) | set(prod.coeffs)
            assert {k: prod.exact_coeff(*k) for k in keys} == \
                {k: ref.get(k, 0) for k in keys}


@st.composite
def block_series(draw, parity, sparse):
    """{(n, r2): int} on an r x w block, r >= 3 and w >= 6, from q^n0
    y^(r0/2) with n0 and r0 down to -3 and -10, both corners nonzero: under
    an eighth of its entries nonzero if ``sparse``, else at least an
    eighth.  Coefficients run up to 2^90."""
    r, w = draw(st.integers(3, 12)), draw(st.integers(6, 10))
    n0 = draw(st.integers(-3, 3))
    r0 = 2 * draw(st.integers(-5, 2)) + parity
    cut = -(-r * w // 8)  # k nonzero entries are under an eighth iff k < cut
    k = draw(st.integers(2, cut - 1) if sparse
             else st.integers(cut, min(r * w, cut + 24)))
    inner = draw(st.lists(st.integers(1, r * w - 2), unique=True,
                          min_size=k - 2, max_size=k - 2))
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-2 ** 90, 2 ** 90))
    return {(n0 + cell // w, r0 + 2 * (cell % w)): draw(coeffs.filter(bool))
            for cell in [0, r * w - 1] + inner}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shifted_copies_match_naive_convolution(data):
    # a factor under or over an eighth of nonzero entries (shifted copies
    # or a packed product), times itself or a series of either y-parity;
    # the factor keeps every row while the product's q_order can cut its
    # upper rows
    sparse = data.draw(st.booleans())
    a = data.draw(block_series(data.draw(st.integers(0, 1)), sparse))
    top = max(n for n, _ in a)
    if data.draw(st.booleans()):
        q_order = data.draw(st.integers(top, top + 3))
        left = right = QYSeries(a, q_order)
        b = a
    else:
        q_order = data.draw(st.integers(-2, 14))
        left = QYSeries(a, max(q_order, top))
        b = data.draw(int_series(data.draw(st.integers(0, 1)),
                                 data.draw(st.booleans())))
        b = {k: c for k, c in b.items() if k[0] <= q_order}
        right = QYSeries(b, q_order)
    assert (np.count_nonzero(left.rows) / left.rows.size < 1 / 8) == sparse
    prod = left * right
    ref = mul(a, b, q_order)
    keys = set(ref) | set(prod.coeffs)
    assert {k: prod.exact_coeff(*k) for k in keys} == \
        {k: ref.get(k, 0) for k in keys}


@pytest.mark.parametrize("total, m", [(2 ** 63 - 1, 92737 * 649657),
                                      (2 ** 63, 2 ** 31)])
@pytest.mark.parametrize("sign", [1, -1])
def test_shifted_copies_at_the_machine_word(total, m, sign):
    # two entries of one column, at q^0 and q^16, times a column of 17
    # entries m: the coefficient at q^16 sums both terms, sum |c| * m =
    # total, the bound that picks int64.  2^63 - 1 = 7^2 73 127 337 92737
    # 649657 fits an int64; 2^63 must take Python ints.
    s = total // m
    assert s * m == total
    sparse = np.zeros((17, 1), dtype=object)
    sparse[0, 0], sparse[16, 0] = sign, sign * (s - 1)
    block = np.full((17, 1), m, dtype=object)
    naive = np.zeros((33, 1), dtype=object)
    for i, k in np.ndindex(17, 17):
        naive[i + k, 0] += sparse[i, 0] * block[k, 0]
    assert naive[16, 0] == sign * total
    for n_rows in (33, 17, 9):
        assert (_shifted_copies(sparse, block, n_rows)
                == naive[:n_rows]).all()
    # through QYSeries, with m - 1 at q^16 so that no content divides out
    a = QYSeries({(0, 0): sign, (16, 0): sign * (s - 1)}, 40)
    b = QYSeries({(n, 0): m for n in range(16)} | {(16, 0): m - 1}, 40)
    assert (a * b).exact_coeff(16) == sign * (total - 1)


def naive_blocks(a, b, n_rows):
    """The first ``n_rows`` rows of the product of two integer blocks, one
    pair of entries at a time."""
    out = np.zeros((n_rows, a.shape[1] + b.shape[1] - 1), dtype=object)
    for (i, j), c in np.ndenumerate(a):
        for (k, l), d in np.ndenumerate(b):
            if i + k < n_rows:
                out[i + k, j + l] += c * d
    return out


def y_free_pair(bits, top, sign):
    """A column of 9 mixed-sign entries and a 9 x 5 block whose largest
    |entry| m is ``top``, or else sets sum |c| * m to ``bits`` bits.  The
    block's first column makes the product at row 8 exactly ``sign`` times
    that bound, and the block also holds zeros and small entries."""
    rng = random.Random(bits or top)
    column = [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(9)]
    total = sum(map(abs, column))
    m = top or ((1 << bits) - 1) // total
    block = np.array([[rng.choice((0, 1, -2, m, -m, rng.randint(-m, m)))
                       for _ in range(4)] for _ in range(9)], dtype=object)
    first = [[sign * m * (1 if c > 0 else -1)] for c in reversed(column)]
    block = np.hstack([np.array(first, dtype=object), block])
    return np.array([column], dtype=object).T, block, total * m


@pytest.mark.parametrize("bits, top", [
    (62, None), (63, None),              # int64 copies
    (64, None), (127, None),             # 9- and 16-byte digits: 2 limbs
    (128, None), (191, None),            # 17- and 24-byte digits: 3 limbs
    (None, 2 ** 63 - 1),                 # block entries at +-(2^63 - 1)
    (None, 2 ** 63),                     # one block entry past int64
])
@pytest.mark.parametrize("sign", [1, -1])
def test_y_free_products_match_naive_loops(bits, top, sign):
    column, block, bound = y_free_pair(bits, top, sign)
    if bits:
        assert bound.bit_length() == bits
    naive = naive_blocks(column, block, 17)
    assert naive[8, 0] == sign * bound
    for n_rows in (17, 9, 3):
        assert (_shifted_copies(column, block, n_rows)
                == naive[:n_rows]).all()
        assert (_shifted_copies(block, column, n_rows)
                == naive[:n_rows]).all()
    # through QYSeries in both orders, from q^-2 y^(-3/2), against the
    # naive double loop over terms
    a = {(n - 2, -1): c for n, c in enumerate(column[:, 0].tolist())}
    b = {(n, 2 * j - 2): d for (n, j), d in np.ndenumerate(block) if d}
    for q_order in (14, 4):
        a, b = ({k: c for k, c in x.items() if k[0] <= q_order}
                for x in (a, b))
        ref = mul(a, b, q_order)
        for prod in (QYSeries(a, q_order) * QYSeries(b, q_order),
                     QYSeries(b, q_order) * QYSeries(a, q_order)):
            keys = set(ref) | set(prod.coeffs)
            assert {k: prod.exact_coeff(*k) for k in keys} == \
                {k: ref.get(k, 0) for k in keys}


@pytest.mark.parametrize("bits", [64, 127, 128, 191])
def test_packed_copies_of_either_factor_by_rows_or_columns(bits):
    # the four plans of the copies past int64: either factor copied, packed
    # by rows or (both transposed) by columns; and a block times itself
    column, block, bound = y_free_pair(bits, None, -1)
    digit = bound.bit_length() // 8 + 1
    naive = naive_blocks(column, block, 17)
    for n_rows in (17, 9, 3):
        for a, b in ((column, block), (block, column)):
            assert (_packed_copies(a, b, n_rows, 5, digit)
                    == naive[:n_rows]).all()
            assert (_packed_copies(a.T, b.T, 5, n_rows, digit).T
                    == naive[:n_rows]).all()
    square = naive_blocks(block, block, 17)
    digit = (sum(map(abs, block.ravel().tolist())) * max(
        map(abs, block.ravel().tolist()))).bit_length() // 8 + 1
    for n_rows in (17, 4):
        assert (_packed_copies(block, block, n_rows, 9, digit)
                == square[:n_rows]).all()
        assert (_packed_copies(block.T, block.T, 9, n_rows, digit).T
                == square[:n_rows]).all()
        assert (_shifted_copies(block, block, n_rows) == square[:n_rows]).all()


@pytest.mark.parametrize("width", range(1, 25))
def test_digits_round_trip_at_every_width(width):
    # the extreme digits +-(2^(8 width - 1) - 1), the int64 extremes that
    # fit the width, and small entries of both signs: the int64 words are
    # written by numpy as limbs, byte for byte as one Python int at a
    # time, and read back exactly
    top = (1 << (8 * width - 1)) - 1
    entries = [0, 1, -1, 2, -3, top, -top]
    entries += [x for x in (2 ** 63 - 1, -2 ** 63 + 1, -2 ** 63, 2 ** 62)
                if abs(x) <= top]
    entries += [random.Random(width).randint(-top, top) for _ in range(5)]
    objects = np.array(entries, dtype=object)
    data = _encode(objects, width)
    assert len(data) == width * len(entries)
    assert (_decode(data, width) == objects).all()
    words = [x for x in entries if -2 ** 63 <= x < 2 ** 63]
    assert _encode(np.array(words, dtype=np.int64), width) == \
        _encode(np.array(words, dtype=object), width)
    assert _max_abs(np.array(words, dtype=np.int64)) == max(map(abs, words))


def test_y_free_products_never_pack(monkeypatch):
    # a y-free factor times a wider block goes to the shifted copies at
    # every share and size of entries; a dense 2-D pair still packs
    def refuse(a, b, n_rows):
        raise AssertionError("packed a y-free product")

    monkeypatch.setattr(series_core, "_packed_product", refuse)
    for top in (5, 2 ** 63, 2 ** 150):
        column, block, _ = y_free_pair(None, top, 1)
        a = QYSeries({(n, 0): c for n, c in enumerate(column[:, 0].tolist())},
                     12)
        b = QYSeries({(n, 2 * j): d for (n, j), d in np.ndenumerate(block)},
                     12)
        assert (a * b).exact_coeff(8, 0) == top * sum(
            map(abs, column[:, 0].tolist()))
        assert b * a == a * b
    with pytest.raises(AssertionError, match="packed"):
        b * b


@pytest.mark.parametrize("scale", [Fraction(1, 3), EXACT_I,
                                   Prefactor(Fraction(-2, 7), 1, -3)])
def test_json_terms_are_the_rounded_terms(scale):
    # the prefactors 1/3, i and -2/7 i (2 pi)^-3, over a coefficient past
    # 2^53 that the rounding changes
    series = QYSeries({(-1, 1): 2 ** 60 + 1, (0, -3): -5, (2, 1): 7},
                      4) * scale
    expect = [[n, r2, c.real, c.imag] for n, r2, c in series.terms()]
    assert json.dumps(json.loads(series.terms_json())) == json.dumps(expect)
