"""Truncated bivariate Laurent series in q and y^(1/2), evaluation points
on the upper half plane, and infinite products.

A ``QYSeries`` is a dense block of coefficients: row i, column j holds the
coefficient of q^(c + n0 + i) * y^((r0 + 2 j)/2).  y-exponents are doubled
so that half-integral powers of y stay integers; within one series they
step by whole powers of y.  Series are truncated at q-order ``q_order``
(terms with n0 + i > q_order are dropped); ``half_integral`` says whether
their doubled y-exponents are odd.

Every series holds Python integers times one symbolic ``Prefactor``
r * i^a * (2 pi)^b * q^c, so sums, products, powers and inverses stay exact
at every order, the powers of 2 pi i cancel exactly, and so do the
rational q-offsets c of eta (1/24) and theta (1/8).  Coefficients are ints
or Fractions; a sum of series whose prefactors differ in their powers of
i, 2 pi or q is an error, not a rounding.

A product of two blocks takes one of three routes:

* a monomial (one entry) only shifts the other block, with no copy;
* a y-free factor (one column) times a wider block, or any factor with
  under an eighth of its entries nonzero (such as a power of theta up to
  theta^2), goes as shifted copies: the factor with fewer nonzero entries
  adds one shifted, scaled copy of the other block per nonzero entry.  The
  copies add up in int64 when sum |c| over those entries times the other
  block's largest |entry| is below 2^63 (a bound on every product
  coefficient).  Otherwise each q-row (or y-column) of the copied block is
  one Python integer of signed digits sized by that bound, and a copy is
  one shifted multiple of each; which factor is copied, and along which
  axis it is packed, is chosen by an estimate of the integer work;
* any other pair, dense 2-D or both y-free, is packed by Kronecker
  substitution: each block becomes one Python integer and the two are
  multiplied once (D. Harvey, "Faster polynomial multiplication via
  multipoint Kronecker substitution", J. Symb. Comput. 44, 2009).

Blocks go to and from digits of any width through numpy, as 64-bit limbs;
only an entry past int64 is converted one Python int at a time.

An infinite product of binomials is built in place on one int64 block when
its coefficients fit a machine word.

``QYSeries.terms_json`` writes the terms as JSON text from the block with
one %-format over the nonzero entries: an integer coefficient of at most
2^53 as its digits and ".0", any other as the repr of its nearest double.
A series whose nonzero terms pass the y-exponent guard is refused before
its block is allocated.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


DEFAULT_Q_ORDER = 20
Y_EXPONENT_GUARD = 200  # |r2| <= 2 * Y_EXPONENT_GUARD
_EXACT_DOUBLE = 1 << 53  # every integer up to this is a double


class EvalPoint:
    """A numeric evaluation point (tau, alpha) with tau in the upper half
    plane; q = exp(2 pi i tau), y = exp(2 pi i alpha)."""

    __slots__ = ("tau", "alpha")

    def __init__(self, tau, alpha=0.0):
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError(f"tau must lie in the upper half plane, got {tau}")
        self.tau = tau
        self.alpha = complex(alpha)

    @property
    def q(self):
        return cmath.exp(2j * cmath.pi * self.tau)

    @property
    def y(self):
        return cmath.exp(2j * cmath.pi * self.alpha)

    def as_tuple(self):
        return (self.tau.real, self.tau.imag, self.alpha.real, self.alpha.imag)

    def __repr__(self):
        return f"EvalPoint(tau={self.tau}, alpha={self.alpha})"


def _arctan_inverse(x, unity):
    """unity * arctan(1/x) for an integer x > 1, by its Taylor series in
    integers (each term truncated, so below one unit off per term)."""
    power = total = unity // x
    k = 1
    while power:
        power //= x * x
        k += 2
        total += -(power // k) if k % 4 == 3 else power // k
    return total


#: 2 pi * 2^_TWO_PI_BITS, by Machin's formula
#: pi/4 = 4 arctan(1/5) - arctan(1/239) with 32 guard bits
_TWO_PI_BITS = 256
_TWO_PI = (32 * _arctan_inverse(5, 1 << _TWO_PI_BITS + 32)
           - 8 * _arctan_inverse(239, 1 << _TWO_PI_BITS + 32)) >> 32


class Prefactor:
    """The exact factor (num / den) * i^a * (2 pi)^b * q^c with num / den a
    reduced fraction (den > 0), a in {0, 1} (a factor i^2 = -1 is folded
    into num), b an integer and c an int or a Fraction: the q-offset."""

    __slots__ = ("num", "den", "a", "b", "c")

    def __init__(self, r=1, a=0, b=0, c=0):
        for x in (r, c):
            if not isinstance(x, (int, Fraction)):
                raise TypeError("a prefactor is an int or a Fraction, got "
                                f"{type(x).__name__} {x!r}")
        num, self.den = r.as_integer_ratio()
        self.num = -num if a % 4 >= 2 else num
        self.a, self.b, self.c = a % 2, b, c

    def is_one(self):
        return self.num == self.den == 1 and not (self.a or self.b or self.c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Prefactor(other)
        if other.is_one():
            return self
        if self.is_one():
            return other
        out = Prefactor.__new__(Prefactor)
        num, den = self.num * other.num, self.den * other.den
        g = math.gcd(num, den)
        a = self.a + other.a
        out.num = (num if a < 2 else -num) // g
        out.den, out.a, out.b = den // g, a % 2, self.b + other.b
        out.c = self.c + other.c
        return out

    def __pow__(self, k):
        r = Fraction(self.num, self.den) ** k
        return Prefactor(r, self.a * k, self.b * k, self.c * k)

    def ratio(self):
        """Integers (num, den) with num / den = (num / den) (2 pi)^b: exact
        when b = 0, else to a relative 2^-190, far inside one rounding of a
        double."""
        if not self.b:
            return self.num, self.den
        power, shift = _TWO_PI ** abs(self.b), _TWO_PI_BITS * abs(self.b)
        num, den = ((self.num * power, self.den << shift) if self.b > 0
                    else (self.num << shift, self.den * power))
        # keep 192 significant bits of the quotient, as man * 2^exp
        exp = num.bit_length() - den.bit_length() - 192
        if exp >= 0:
            return num // (den << exp) << exp, 1
        return (num << -exp) // den, 1 << -exp


EXACT_I = Prefactor(1, 1)
EXACT_TWO_PI_I = Prefactor(1, 1, 1)
_SCALARS = (int, Fraction, Prefactor)


def _half_digits(width, count):
    """The integer with ``count`` digits in base 2^(8 width), each half the
    base: added to a number in signed digits, it makes every digit
    nonnegative."""
    half = (1 << (8 * width - 1)).to_bytes(width, "little")
    return int.from_bytes(half * count, "little")


def _as_words(block):
    """``block`` as an int64 array, or the block itself (Python ints) when
    an entry does not fit."""
    try:
        return block.astype(np.int64)
    except OverflowError:
        return block


def _max_abs(block):
    """The largest |entry| of an int64 block or a block of Python ints."""
    if block.dtype == object:
        return max(map(abs, block.ravel().tolist()))
    return int(np.abs(block).view(np.uint64).max())  # |-2^63| wraps to 2^63


def _limbs(count, width):
    """``count`` zeroed digits of ``width`` bytes as rows of 64-bit limbs,
    and the half base 2^(8 width - 1) as it falls in the top limb."""
    n = -(-width // 8)
    half = np.uint64(1 << 8 * (width - 8 * n) + 63)
    return np.zeros((count, n), "<i8"), half


def _encode(block, width):
    """The entries d of ``block`` in order as little-endian digits of
    ``width`` bytes, each d + 2^(8 width - 1) (every |d| is below that).
    An int64 block is written by numpy as 64-bit limbs: d in two's
    complement, a negative d borrowing from every limb above the first,
    and the half added to the top limb.  A block of Python ints is written
    one digit at a time."""
    flat = block.ravel()
    if flat.dtype == object:
        half = 1 << (8 * width - 1)
        return b"".join([(d + half).to_bytes(width, "little")
                         for d in flat.tolist()])
    limbs, half = _limbs(flat.size, width)
    if limbs.shape[1] > 1:
        limbs[:, 1:] = (flat >> 63)[:, None]
    limbs[:, 0] = flat
    limbs.view(np.uint64)[:, -1] += half
    return limbs.view(np.uint8)[:, :width].tobytes()


def _decode(data, width):
    """The digits that ``_encode`` writes, read back from ``data`` as a
    flat object array of Python ints.  numpy reads each digit as 64-bit
    limbs and takes the half off the top limb; a digit whose upper limbs
    are not the sign of its low limb does not fit int64 and is read as a
    Python int."""
    count = len(data) // width
    limbs, half = _limbs(count, width)
    limbs.view(np.uint8)[:, :width] = np.frombuffer(
        data, np.uint8).reshape(count, width)
    limbs.view(np.uint64)[:, -1] -= half
    low = limbs[:, 0]
    values = low.astype(object)
    if limbs.shape[1] > 1:
        wide = (limbs[:, 1:] != (low >> 63)[:, None]).any(axis=1)
        for k in np.flatnonzero(wide).tolist():
            values[k] = int.from_bytes(data[k * width:(k + 1) * width],
                                       "little") - (1 << 8 * width - 1)
    return values


def _kronecker(a, b, n_rows):
    """The first ``n_rows`` rows of the product of two integer blocks (object
    arrays; rows are q-powers, columns whole y-powers) that are either both
    y-free or both wider than one column: a y-free factor times a wider
    block goes to ``_shifted_copies``.  Each block is packed into one
    integer, one row (or column) per ``stride`` digits so that product rows
    cannot overlap, in signed digits wide enough for every product
    coefficient; one big-integer product then does the whole convolution.
    CPython multiplies integers of n and m < n digits in about n m^0.585
    steps, so q runs along the integer (columns packed one after another)
    when that makes the smaller factor short enough."""
    square = a is b
    a, b = a[:n_rows], b[:n_rows]
    (ra, wa), (rb, wb) = a.shape, b.shape

    def cost(x, y):
        return max(x, y) * min(x, y) ** 0.585

    if (cost(wa, wb) * (ra + rb - 1) ** 1.585
            < cost(ra, rb) * (wa + wb - 1) ** 1.585):
        return _packed_product(a.T, b.T, wa + wb - 1, square).T[:n_rows]
    return _packed_product(a, b, n_rows, square)


def _packed_product(a, b, n_rows, square):
    """The first ``n_rows`` rows of the product of two integer blocks, each
    packed row-major into one integer; masking off the low digits of the
    product truncates it.  The digit width comes from a bound of at least
    max|a| max|b| (neither block is zero), both maxima read from the int64
    words of the blocks unless an entry does not fit.  ``_encode`` and
    ``_decode`` move the digits of any width through numpy."""
    stride = a.shape[1] + b.shape[1] - 1
    a = _as_words(a)
    b = a if square else _as_words(b)
    top = _max_abs(a)
    bound = (top * (top if square else _max_abs(b))
             * min(a.shape[0], b.shape[0]) * min(a.shape[1], b.shape[1]))
    width = bound.bit_length() // 8 + 1  # bytes per digit, sign included

    def pack(block):
        padded = np.zeros((block.shape[0], stride), block.dtype)
        padded[:, :block.shape[1]] = block
        return (int.from_bytes(_encode(padded, width), "little")
                - _half_digits(width, padded.size))

    packed = pack(a)
    product = packed * (packed if square else pack(b))
    count = n_rows * stride
    mask = (1 << (8 * width * count)) - 1
    low = (product + _half_digits(width, count)) & mask
    return _decode(low.to_bytes(width * count, "little"),
                   width).reshape(n_rows, stride)


#: The share of nonzero entries below which a factor is multiplied in as
#: shifted copies, whatever the shape of the other factor (a y-free factor
#: times a wider block takes the copies at any share).  Timed against the
#: packed product at q^20-100 (Python 3.11, one core of a 2-core Xeon), the
#: copies took 0.04-1.04 times as long for a theta mantissa (1-6% nonzero)
#: times eta-powers, theta^2 and itself.  For theta^2 they took 0.17-1.03
#: times as long at 8-11% nonzero (q^56-100), 0.71-1.55 at 11-12% (q^42-54),
#: 0.84-1.50 at 13% (q^40) and 1.5-1.7 at 17% (q^20).
_COPIES_SHARE = 1 / 8


def _copies(sparse):
    """The nonzero entries (c, s, t) of ``sparse`` at row s and column t,
    sorted, so that the entries of one value come together."""
    i, j = np.nonzero(sparse)
    return sorted(zip(sparse[i, j].tolist(), i.tolist(), j.tolist()))


#: The cost of one Python integer operation (a shift, multiply or add)
#: apart from its operands, in bytes of operand: about 0.13-0.25 us, as
#: long as 0.2-0.5 KB of operand takes (Python 3.11, one core of a 2-core
#: Xeon).
_INT_OP_BYTES = 256


def _shifted_copies(a, b, n_rows):
    """The first ``n_rows`` rows of the product of two integer blocks (object
    arrays), as one copy of one factor (the block), shifted by the entry's
    row and column and scaled by its value, per nonzero entry of the other
    (the sparse factor); rows past ``n_rows`` are never formed, and the
    block is scaled once per distinct value.  Each coefficient of the
    product sums at most one term c d per nonzero entry c of the sparse
    factor, d an entry of the block, so it, each partial sum and each term
    are at most sum |c| * max|d| in absolute value.

    When that bound, with the factor of fewer nonzero entries as the sparse
    one, is below 2^63, the copies add up in one int64 block, which no step
    can overflow.  Otherwise they add up in Python ints of signed digits
    sized by the bound (``_packed_copies``): either factor may then be the
    block, packed one int per row (digits along y) or one per column
    (digits along q, both blocks transposed).  The plan taken has the least
    estimated cost: its count of integer operations, each weighed as
    ``_INT_OP_BYTES`` plus the bytes of a packed row."""
    a, b = a[:n_rows], b[:n_rows]
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    block = _as_words(b)
    entries = _copies(a)
    bound = sum(abs(c) for c, _, _ in entries) * _max_abs(block)
    out_width = a.shape[1] + block.shape[1] - 1
    if bound >= 1 << 63:
        digit = bound.bit_length() // 8 + 1  # bytes, sign included
        plans = []
        for x, y in ((a, b), (b, a)):
            (height, width), s = y.shape, np.nonzero(x)[0]
            by_row = int(np.minimum(height, n_rows - s).sum())
            plans.append((by_row * (_INT_OP_BYTES + digit * width), False,
                          x, y))
            plans.append((s.size * width * (_INT_OP_BYTES + digit * height),
                          True, x, y))
        _, by_column, sparse, block = min(plans, key=lambda p: p[:2])
        if by_column:
            return _packed_copies(sparse.T, block.T, out_width, n_rows,
                                  digit).T
        return _packed_copies(sparse, block, n_rows, out_width, digit)
    height, width = block.shape  # every entry of block is in int64
    out = np.zeros((n_rows, out_width), np.int64)
    for c, group in itertools.groupby(entries, key=lambda e: e[0]):
        copy = c * block
        for _, s, t in group:
            h = min(height, n_rows - s)
            out[s:s + h, t:t + width] += copy[:h]
    return out.astype(object)


def _packed_copies(sparse, block, n_out, out_digits, digit):
    """The first ``n_out`` rows of the product of two integer blocks, each
    cut to its first ``out_digits`` columns, as shifted copies of ``block``
    in Python ints.  Each row of the block is one int of signed
    ``digit``-byte digits, and for each entry c at (s, t) of ``sparse``, row
    i of the product adds c * row[i - s], shifted up by t digits.  Every
    product coefficient is below half the digit base, so the rows are
    decoded once at the end."""
    width = block.shape[1]
    data = _encode(_as_words(block), digit)
    offset = _half_digits(digit, width)
    rows = [int.from_bytes(data[k:k + digit * width], "little") - offset
            for k in range(0, len(data), digit * width)]
    acc = [0] * n_out
    for c, group in itertools.groupby(_copies(sparse[:n_out]),
                                      key=lambda e: e[0]):
        group = list(group)
        copy = rows[:n_out - group[0][1]]  # the group's least s comes first
        if c != 1:
            copy = [c * row for row in copy]
        for _, s, t in group:
            shift = 8 * digit * t
            for k, row in enumerate(copy[:n_out - s], s):
                acc[k] += row << shift if shift else row
    offset = _half_digits(digit, out_digits)
    mask = (1 << 8 * digit * out_digits) - 1
    data = b"".join([((row + offset) & mask).to_bytes(digit * out_digits,
                                                      "little")
                     for row in acc])
    return _decode(data, digit).reshape(n_out, out_digits)


def _check_y_guard(r2):
    """Refuse a series whose largest |doubled y-exponent| is ``r2`` when it
    lies past the guard."""
    if r2 > 2 * Y_EXPONENT_GUARD:
        raise OverflowError(f"y-exponent +-{r2}/2 exceeds the guard "
                            f"+-{Y_EXPONENT_GUARD}")


class QYSeries:
    """Truncated Laurent series q^c sum_{n, r2} c_{n,r2} q^n y^(r2/2).

    ``rows`` is the dense block from q^n0 y^(r0/2) on, trimmed of zero edge
    rows and columns and never modified after construction.  It holds
    Python ints (an object array) of content 1, and the series is the
    ``Prefactor`` ``scale`` times them; its power of q is the rational
    ``q_offset`` c.  The exponents n, the truncation ``q_order`` and every
    method that takes or returns an exponent count from q^c.  ``coeffs``
    and ``terms`` give each coefficient as the complex double nearest its
    value; ``exact_coeff`` gives it exactly when it is rational.
    """

    __slots__ = ("q_order", "n0", "r0", "rows", "scale", "_terms")

    def __init__(self, coeffs=None, q_order=DEFAULT_Q_ORDER):
        """``coeffs`` maps (n, r2) to the coefficient of q^n y^(r2/2), an
        int or a Fraction."""
        coeffs = coeffs or {}
        for c in coeffs.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError("series coefficients are ints or Fractions, "
                                f"got {type(c).__name__} {c!r}")
        items = [((int(n), int(r2)), c) for (n, r2), c in coeffs.items()
                 if n <= q_order]
        den = math.lcm(*(c.denominator for _, c in items))
        items = [(k, int(c * den)) for k, c in items]
        if len({r2 % 2 for (_, r2), _ in items}) > 1:
            raise ValueError(
                "doubled y-exponents of both parities in one series")
        _check_y_guard(max((abs(r2) for (_, r2), c in items if c), default=0))
        ns = [n for (n, _), _ in items] or [0]
        r2s = [r2 for (_, r2), _ in items] or [0]
        n0, r0 = min(ns), min(r2s)
        rows = np.zeros((max(ns) - n0 + 1, (max(r2s) - r0) // 2 + 1), object)
        for (n, r2), c in items:
            rows[n - n0, (r2 - r0) // 2] = c
        self._assign(rows, n0, r0, Prefactor(Fraction(1, den)), q_order)

    def _assign(self, rows, n0, r0, scale, q_order):
        self.q_order = int(q_order)
        rows = rows[:max(self.q_order - n0 + 1, 0)]
        i, j = np.nonzero(rows)
        if i.size:
            j = j.tolist()
            rows = rows[i[0]:i[-1] + 1, min(j):max(j) + 1]
            n0, r0 = n0 + int(i[0]), r0 + 2 * min(j)
            _check_y_guard(max(-r0, r0 + 2 * rows.shape[1] - 2))
            content = math.gcd(*rows.ravel().tolist())
            if content > 1:
                rows, scale = rows // content, scale * content
        else:
            rows, n0, r0, scale = rows[:0, :0], 0, 0, Prefactor()
        self.rows, self.n0, self.r0, self.scale = rows, n0, r0, scale
        self._terms = None

    @classmethod
    def _make(cls, rows, n0, r0, scale, q_order):
        out = cls.__new__(cls)
        out._assign(rows, n0, r0, scale, q_order)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, q_order=DEFAULT_Q_ORDER):
        return cls({(0, 0): 1}, q_order)

    @classmethod
    def monomial(cls, coeff, n, r2, q_order=DEFAULT_Q_ORDER):
        return cls({(n, r2): coeff}, q_order)

    # -- basic queries -----------------------------------------------------

    @property
    def half_integral(self):
        """Whether the doubled y-exponents are odd (y^(1/2), y^(3/2), ...)."""
        return bool(self.r0 % 2)

    @property
    def q_offset(self):
        """The rational power c of q that multiplies every term."""
        return Fraction(self.scale.c)

    def terms(self):
        """The nonzero terms (n, r2, c), sorted by (n, r2), each c the
        correctly rounded complex double."""
        if self._terms is None:
            i, j = np.nonzero(self.rows)
            num, den = self.scale.ratio()
            parts = [c * num / den for c in self.rows[i, j].tolist()]
            values = ([complex(0.0, x) for x in parts] if self.scale.a
                      else [complex(x) for x in parts])
            self._terms = tuple(zip((self.n0 + i).tolist(),
                                    (self.r0 + 2 * j).tolist(), values))
        return self._terms

    @property
    def coeffs(self):
        """{(n, r2): c} over the nonzero terms."""
        return {(n, r2): c for n, r2, c in self.terms()}

    def _index(self, n, r2):
        i, j = int(n) - self.n0, int(r2) - self.r0
        if 0 <= i < self.rows.shape[0] and 0 <= j < 2 * self.rows.shape[1] \
                and j % 2 == 0:
            return i, j // 2
        return None

    def exact_coeff(self, n, r2=0):
        """The coefficient of q^n y^(r2/2) as an int or a Fraction."""
        if self.scale.a or self.scale.b:
            raise ValueError("the coefficients of this series are not rational")
        at = self._index(n, r2)
        c = 0 if at is None else Fraction(self.rows[at] * self.scale.num,
                                          self.scale.den)
        return int(c) if c.denominator == 1 else c

    def max_abs_coeff(self):
        if not self.rows.size:
            return 0.0
        num, den = self.scale.ratio()
        return abs(max(map(abs, self.rows.ravel().tolist())) * num / den)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QYSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QYSeries({(0, 0): other}, self.q_order)
        return None

    def _combine(self, other, sign, q_order):
        """self + sign * other, truncated at ``q_order``, over the largest
        common rational part r of the two prefactors, which must agree in
        their powers of i, 2 pi and q."""
        if not (self.rows.size and other.rows.size):
            live = other * sign if self.rows.size == 0 else self
            return QYSeries._make(live.rows, live.n0, live.r0, live.scale,
                                  q_order)
        if (self.r0 - other.r0) % 2:
            raise ValueError("cannot add series of opposite y-parity")
        p, s = self.scale, other.scale
        if (p.a, p.b, p.c) != (s.a, s.b, s.c):
            raise ValueError("cannot add series whose prefactors differ in "
                             "their powers of i, 2 pi or q")
        num = math.gcd(p.num, s.num)
        den = math.lcm(p.den, s.den)
        scale = p if (p.num, p.den) == (num, den) else Prefactor(
            Fraction(num, den), p.a, p.b, p.c)
        blocks = [block if m == 1 else block * m for block, m in (
            (self.rows, p.num // num * (den // p.den)),
            (other.rows, sign * s.num // num * (den // s.den)))]
        n0, r0 = min(self.n0, other.n0), min(self.r0, other.r0)
        top = min(max(self.n0 + self.rows.shape[0],
                      other.n0 + other.rows.shape[0]), q_order + 1)
        right = max(self.r0 + 2 * self.rows.shape[1],
                    other.r0 + 2 * other.rows.shape[1])
        out = np.zeros((max(top - n0, 0), (right - r0) // 2), object)
        for block, s in zip(blocks, (self, other)):
            block = block[:max(top - s.n0, 0)]
            i, j = s.n0 - n0, (s.r0 - r0) // 2
            out[i:i + block.shape[0], j:j + block.shape[1]] += block
        return QYSeries._make(out, n0, r0, scale, q_order)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1, min(self.q_order, other.q_order))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1, min(self.q_order, other.q_order))

    def _scaled(self, s):
        if (s.is_one() if isinstance(s, Prefactor)
                else isinstance(s, (int, Fraction)) and s == 1):
            return self
        scale = self.scale * s
        return QYSeries._make(self.rows if scale.num else self.rows[:0],
                              self.n0, self.r0, scale, self.q_order)

    def __mul__(self, other):
        """The product, truncated at the lesser q-order.  A scalar goes
        into the prefactor; a monomial factor shifts the other block.  A
        y-free factor times a wider block, or a pair in which a factor has
        under ``_COPIES_SHARE`` of its entries nonzero, is multiplied as
        shifted copies of one block per nonzero entry of the other
        (``_shifted_copies``); any other pair of blocks as one packed
        integer product (``_kronecker``).  Every route gives the same exact
        integers."""
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        if not isinstance(other, QYSeries):
            return NotImplemented
        q_order = min(self.q_order, other.q_order)
        n0, r0 = self.n0 + other.n0, self.r0 + other.r0
        scale = self.scale * other.scale
        a, b = self.rows, other.rows
        if not (a.size and b.size):
            return QYSeries({}, q_order)
        if a.size == 1 or b.size == 1:
            # a monomial's block is one unit (its content is in the
            # prefactor): the other block only moves, and the unit scales
            unit, block = (a, b) if a.size == 1 else (b, a)
            return QYSeries._make(block, n0, r0, scale * int(unit[0, 0]),
                                  q_order)
        n_rows = min(q_order - n0 + 1, a.shape[0] + b.shape[0] - 1)
        if n_rows <= 0:
            return QYSeries({}, q_order)
        widths = sorted((a.shape[1], b.shape[1]))
        if (widths[0] == 1 < widths[1]
                or min(np.count_nonzero(x) / x.size for x in (a, b))
                < _COPIES_SHARE):
            rows = _shifted_copies(a, b, n_rows)
        else:
            rows = _kronecker(a, b, n_rows)
        return QYSeries._make(rows, n0, r0, scale, q_order)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if k == 0:
            return QYSeries.one(self.q_order)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Prefactor(other)
        if isinstance(other, Prefactor):
            return self * other ** -1
        return NotImplemented

    def invert(self):
        """Multiplicative inverse.

        Requires the lowest q-row to be a single nonzero monomial c*y^(r0/2);
        otherwise the inverse would need unbounded y-exponents at fixed
        q-order.  Dividing out c q^n0 y^(r0/2) leaves 1 - x with x = O(q),
        and 1/(1 - x) = (1 + x)(1 + x^2)(1 + x^4)..., a product of about
        log2(q-range) factors.  The inverse is exact: 1/c goes into the
        prefactor.
        """
        if not self.rows.size:
            raise ZeroDivisionError("cannot invert the zero series")
        lead = np.flatnonzero(self.rows[0])
        if len(lead) != 1:
            raise ValueError(
                "inverse requires a monomial lowest q-row, got "
                f"{len(lead)} terms at q^{self.n0}")
        j = int(lead[0])
        c = self.rows[0, j]
        # rows 0 .. n_rows - 1 of the inverse mantissa land in the q-range
        n_rows = self.q_order + self.n0 + 1
        power = QYSeries.one(n_rows - 1) - QYSeries._make(
            self.rows, 0, -2 * j, Prefactor(), n_rows - 1) / c
        inverse = 1 + power
        while (power := power * power).rows.size:
            inverse = inverse + inverse * power
        inverse = inverse / c
        return QYSeries._make(
            inverse.rows, inverse.n0 - self.n0, inverse.r0 - self.r0 - 2 * j,
            inverse.scale * self.scale ** -1, self.q_order)

    # -- calculus ----------------------------------------------------------

    def _reweighted(self, weights, factor):
        """Each coefficient times its entry of the integer array ``weights``
        (broadcast over the block) and the rational ``factor``."""
        return QYSeries._make(self.rows * weights.astype(object), self.n0,
                              self.r0, self.scale * factor, self.q_order)

    def q_d_dq(self):
        """q d/dq: multiplies each term by its q-exponent c + n."""
        c = self.q_offset
        n = np.arange(self.n0, self.n0 + self.rows.shape[0])
        return self._reweighted(c.denominator * n[:, None] + c.numerator,
                                Fraction(1, c.denominator))

    def y_d_dy(self):
        """y d/dy: multiplies each term by its y-exponent r2/2."""
        r2 = np.arange(self.r0, self.r0 + 2 * self.rows.shape[1], 2)
        return self._reweighted(r2[None, :], Fraction(1, 2))

    def y_substitute_one(self):
        """Set y = 1: collapse to a pure q-series."""
        return QYSeries._make(self.rows.sum(axis=1, keepdims=True), self.n0,
                              0, self.scale, self.q_order)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """Numerically evaluate at ``point``.

        Returns ``(value, bound)`` where ``bound`` is the magnitude of the
        last retained q-shell, a heuristic truncation error estimate; the
        value includes the factor q^c of the offset, the bound |q^c|.
        Raises if |q| >= 1.  Each power of q and y is computed once per
        call; each term is c * q^n * y^(r2/2), summed in (n, r2) order.
        """
        q = point.q
        if abs(q) >= 1.0:
            raise ValueError(f"|q| = {abs(q)} >= 1: series diverges")
        # y^(1/2) is defined through alpha, not a branch cut in y
        sqrt_y = cmath.exp(1j * cmath.pi * point.alpha)
        n_rows, n_cols = self.rows.shape  # no zero edge rows or columns
        y_pow = {r2: sqrt_y ** r2
                 for r2 in range(self.r0, self.r0 + 2 * n_cols, 2)}
        value, bound, row, last = 0j, 0.0, None, self.n0 + n_rows - 1
        # term by term in (n, r2) order: the character constants that
        # transformation_check prints in its row labels carry the rounding
        # of this sum
        for n, r2, c in self.terms():
            if n != row:
                row, q_n = n, q ** n
            term = c * q_n * y_pow[r2]
            value += term
            if n == last:
                bound += abs(term)
        if self.scale.c:
            offset = cmath.exp(2j * math.pi * point.tau * float(self.scale.c))
            value, bound = value * offset, bound * abs(offset)
        return value, bound

    # -- comparison and serialization --------------------------------------

    def __eq__(self, other):
        """Equal when the exact difference is the zero series."""
        if not isinstance(other, QYSeries):
            return NotImplemented
        p, s = self.scale, other.scale
        if self.rows.size and other.rows.size and (
                (self.r0 - other.r0) % 2
                or (p.a, p.b, p.c) != (s.a, s.b, s.c)):
            return False
        return not self._combine(
            other, -1, max(self.q_order, other.q_order)).rows.size

    def __repr__(self):
        terms = self.terms()
        body = " + ".join(f"({c:.6g})q^{n}y^{r2}/2" for n, r2, c in terms[:6])
        more = "..." if len(terms) > 6 else ""
        return f"QYSeries[{body}{more}; q_order={self.q_order}]"

    def terms_json(self):
        """The nonzero terms as JSON text, sorted by (n, r2), one
        [n, r2, re, im] per line; re, or im when the prefactor holds i, is
        the double nearest the coefficient and the other part is 0.0.  A
        coefficient that is an integer of at most 2^53 is written as
        "<integer>.0", which is the repr of its double; any other as the
        repr of c * num / den."""
        i, j = np.nonzero(self.rows)
        if not i.size:
            return "[]"
        exact, rounded = (("[%d, %d, 0.0, %d.0]", "[%d, %d, 0.0, %r]")
                          if self.scale.a else
                          ("[%d, %d, %d.0, 0.0]", "[%d, %d, %r, 0.0]"))
        num, den = self.scale.ratio()
        values = _as_words(self.rows[i, j])
        if den == 1 and values.dtype != object \
                and _max_abs(values) * abs(num) <= _EXACT_DOUBLE:
            values, forms = values * num, [exact] * i.size
        else:
            values = values.astype(object, copy=False) * num
            fits = (np.abs(values) <= _EXACT_DOUBLE if den == 1
                    else np.zeros(i.size, bool))
            values[~fits] = [v / den for v in values[~fits].tolist()]
            forms = np.where(fits, exact, rounded).tolist()
        flat = np.column_stack((self.n0 + i, self.r0 + 2 * j, values))
        return "[" + ",\n".join(forms) % tuple(flat.ravel().tolist()) + "]"


def infinite_product(binomials, n_q):
    """prod (1 + c q^a y^(b2/2)) over the triples (a, b2, c) of ints in
    ``binomials`` (a >= 0, b2 even), truncated at q-order ``n_q``.

    Each binomial is applied in place to one dense block, as one shifted
    add of its live columns: those whose lowest q-power, moved up by a,
    is still at most n_q (for c = -1, one subtraction with no scaled
    temporary).  The block is int64 when the majorant
    prod (1 + |c| q^a) has every coefficient up to q^n_q below 2^63, and
    holds Python ints otherwise.  The majorant bounds every coefficient:
    the coefficients at q^n of a partial product, over all powers of y,
    have absolute values summing to at most the coefficient at q^n of its
    own majorant, which is at most the full majorant's, since each further
    factor 1 + |c| q^a has nonnegative coefficients and constant term 1.
    So no add, and no product c times a coefficient, can overflow."""
    if any(a < 0 or b2 % 2 for a, b2, _ in binomials):
        raise ValueError("binomials need a >= 0 and an even b2")
    if n_q < 0:
        return QYSeries({}, n_q)
    binomials = [(a, b2 // 2, c) for a, b2, c in binomials if a <= n_q]
    majorant = np.zeros(n_q + 1, object)
    majorant[0] = 1
    for a, _, c in binomials:
        majorant[a:] += abs(c) * majorant[:n_q + 1 - a]
    word = max(majorant.tolist()) < 1 << 63
    origin = -sum(min(b, 0) for _, b, _ in binomials)  # the column of y^0
    width = origin + 1 + sum(max(b, 0) for _, b, _ in binomials)
    block = np.zeros((n_q + 1, width), np.int64 if word else object)
    low = np.full(width, n_q + 1)  # the least q-power of each column
    block[0, origin], low[origin] = 1, 0
    left = right = origin
    for a, b, c in binomials:
        # low[origin] stays 0, so both scans stop at the origin
        s, t = left, right
        while low[s] + a > n_q:
            s += 1
        while low[t] + a > n_q:
            t -= 1
        target = block[a:, s + b:t + 1 + b]
        if c == -1:  # numpy buffers the overlap of source and target
            np.subtract(target, block[:n_q + 1 - a, s:t + 1], out=target)
        else:
            target += c * block[:n_q + 1 - a, s:t + 1]
        np.minimum(low[s + b:t + 1 + b], low[s:t + 1] + a,
                   out=low[s + b:t + 1 + b])
        left, right = min(left, s + b), max(right, t + b)
    return QYSeries._make(block[:, left:right + 1].astype(object), 0,
                          2 * (left - origin), Prefactor(), n_q)


def euler_product(n_q, k=1):
    """prod_{n>=1} (1 - q^n)^k for an integer k, truncated at q-order n_q.

    Euler's pentagonal number theorem gives the k = 1 series
    f = sum over all integers m of (-1)^m q^{m(3m-1)/2}.  Any other power
    p = f^k follows from J. C. P. Miller's recurrence for powers of a
    series with f_0 = 1, which comes from comparing coefficients in
    f q dp/dq = k p q df/dq:

        n p_n = sum_{j=1}^{n} ((k + 1) j - n) f_j p_{n-j}.

    The p_n are integers, so every division is exact; and only the about
    sqrt(8 n / 3) pentagonal j have f_j != 0, whatever k is: each sum runs
    over the positive ones in increasing order and stops at the first
    j > n.  A negative power costs as much as a positive one, with no
    series inverse."""
    pentagonal = {}
    m = 0
    while m * (3 * m - 1) // 2 <= n_q:
        for j in (m, -m):
            pentagonal[j * (3 * j - 1) // 2] = (-1) ** (j % 2)
        m += 1
    if k == 1:
        return QYSeries({(j, 0): f for j, f in pentagonal.items()}, n_q)
    steps = sorted((j, f) for j, f in pentagonal.items() if j > 0)
    p = [1] + [0] * max(n_q, 0)
    for n in range(1, n_q + 1):
        total = 0
        for j, f in steps:
            if j > n:
                break
            total += ((k + 1) * j - n) * f * p[n - j]
        p[n] = total // n
    return QYSeries._make(np.array(p, object)[:, None], 0, 0, Prefactor(),
                          n_q)


# perfbench/spans.py reads this name and patches its ``__mul__`` and
# ``evaluate``; the alias goes with those two patches.
TXSeries = QYSeries
