"""Grassmann algebra on two odd generators eps, delta, and 2x2 (1|1)
supermatrices, over any number ring.

Elements are a0 + a1*eps + a2*delta + a3*eps*delta whose components are
ints, Fractions, floats or complex numbers, each kept in the ring it was
given: over Fractions every identity is exact.  eps^2 = delta^2 = 0 and
eps*delta = -delta*eps; the body is a0 and the nilpotent part the rest.  A
scalar may stand on either side of + and *, and on the right of -.  The
public constructor checks that its arguments are numbers; arithmetic builds
its results unchecked (in place when both operands are GrassmannNumbers,
else through ``_grassmann``), and supermatrix arithmetic with the unchecked
``_supermatrix`` from entries that are GrassmannNumbers already.
"""

from __future__ import annotations

from fractions import Fraction

_SCALARS = (int, float, complex, Fraction)


class GrassmannNumber:
    """An element of the Grassmann algebra on eps and delta."""

    __slots__ = ("c0", "ce", "cd", "ced")

    def __init__(self, c0=0, ce=0, cd=0, ced=0):
        for c in (c0, ce, cd, ced):
            if not isinstance(c, _SCALARS):
                raise TypeError(f"a Grassmann component is a number, not {c!r}")
        self.c0, self.ce, self.cd, self.ced = c0, ce, cd, ced

    # -- structure ---------------------------------------------------------

    @property
    def body(self):
        return self.c0

    def nilpotent(self):
        return GrassmannNumber(0, self.ce, self.cd, self.ced)

    def components(self):
        return (self.c0, self.ce, self.cd, self.ced)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GrassmannNumber):
            return x
        if isinstance(x, _SCALARS):
            return _grassmann(x, 0, 0, 0)
        return None

    def __add__(self, o):
        if type(o) is GrassmannNumber:
            out = object.__new__(GrassmannNumber)
            out.c0 = self.c0 + o.c0
            out.ce = self.ce + o.ce
            out.cd = self.cd + o.cd
            out.ced = self.ced + o.ced
            return out
        if isinstance(o, _SCALARS):
            return _grassmann(self.c0 + o, self.ce, self.cd, self.ced)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _grassmann(-self.c0, -self.ce, -self.cd, -self.ced)

    def __sub__(self, o):
        if type(o) is GrassmannNumber:
            out = object.__new__(GrassmannNumber)
            out.c0 = self.c0 - o.c0
            out.ce = self.ce - o.ce
            out.cd = self.cd - o.cd
            out.ced = self.ced - o.ced
            return out
        if isinstance(o, _SCALARS):
            return _grassmann(self.c0 - o, self.ce, self.cd, self.ced)
        return NotImplemented

    def __mul__(self, o):
        if type(o) is GrassmannNumber:
            a0, a1, a2, a3 = self.c0, self.ce, self.cd, self.ced
            b0, b1, b2, b3 = o.c0, o.ce, o.cd, o.ced
            out = object.__new__(GrassmannNumber)
            out.c0 = a0 * b0
            out.ce = a0 * b1 + a1 * b0
            out.cd = a0 * b2 + a2 * b0
            out.ced = a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1
            return out
        if isinstance(o, _SCALARS):
            return _grassmann(self.c0 * o, self.ce * o, self.cd * o,
                              self.ced * o)
        return NotImplemented

    __rmul__ = __mul__  # a scalar commutes with every element

    def inverse(self):
        """Inverse in closed form c0^-1 (1 - N/c0), N the nilpotent part:
        N^2 = 0, since (a eps + b delta)^2 = ab (eps delta + delta eps) = 0
        and every other term of N^2 has degree above two.  An int body
        inverts to a Fraction."""
        if self.c0 == 0:
            raise ZeroDivisionError("Grassmann number with zero body")
        inv0 = Fraction(1, self.c0) if isinstance(self.c0, int) \
            else 1 / self.c0
        m = -inv0
        return _grassmann(inv0, self.ce * m * inv0, self.cd * m * inv0,
                          self.ced * m * inv0)

    # -- comparison --------------------------------------------------------

    def max_abs(self):
        return max(abs(self.c0), abs(self.ce), abs(self.cd), abs(self.ced))

    def __repr__(self):
        # six significant digits, a Fraction exactly
        c0, ce, cd, ced = (c if isinstance(c, Fraction) else f"{c:.6g}"
                           for c in self.components())
        return f"G({c0} + ({ce})e + ({cd})d + ({ced})ed)"


def _grassmann(c0, ce, cd, ced):
    """The GrassmannNumber with these four number components, unchecked."""
    out = object.__new__(GrassmannNumber)
    out.c0 = c0
    out.ce = ce
    out.cd = cd
    out.ced = ced
    return out


EPS = GrassmannNumber(0, 1, 0, 0)
DELTA = GrassmannNumber(0, 0, 1, 0)


def odd(a, b=0):
    """The odd element a*eps + b*delta."""
    return GrassmannNumber(0, a, b, 0)


class SuperMatrix:
    """A 2x2 matrix with GrassmannNumber entries in (1|1) block format: even
    entries on the diagonal, odd entries off it (the parities are not
    checked)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [[GrassmannNumber._coerce(x) for x in row] for row in rows]
        if len(self.rows) != 2 or any(
                len(row) != 2 or any(x is None for x in row)
                for row in self.rows):
            raise ValueError("SuperMatrix requires a 2x2 array of Grassmann "
                             "or scalar entries")

    @classmethod
    def identity(cls):
        return cls([[1, 0], [0, 1]])

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return _supermatrix([[x + y for x, y in zip(r, s)]
                             for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return _supermatrix([[x - y for x, y in zip(r, s)]
                             for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, SuperMatrix):
            (e, f), (g, h) = other.rows
            return _supermatrix([[a * e + b * g, a * f + b * h]
                                 for a, b in self.rows])
        o = GrassmannNumber._coerce(other)
        if o is None:
            return NotImplemented
        return _supermatrix([[x * o for x in row] for row in self.rows])

    def max_abs(self):
        return max(x.max_abs() for row in self.rows for x in row)

    def distance(self, other):
        return (self - other).max_abs()

    def __repr__(self):
        return "SuperMatrix(" + ", ".join(repr(r) for r in self.rows) + ")"


def _supermatrix(rows):
    """The SuperMatrix with these 2x2 rows of GrassmannNumbers, unchecked."""
    out = object.__new__(SuperMatrix)
    out.rows = rows
    return out


def berezinian(m):
    """Berezinian of [[A, B], [C, D]]: A*D^{-1} + C*B*D^{-2}.

    The odd entries enter in the order C*B; with that ordering the Berezinian
    of the coordinate-change matrix q[[1, eps], [delta, y - eps*delta]] is
    exactly y^{-1} and the map is multiplicative.
    """
    a, b = m.rows[0]
    c, d = m.rows[1]
    dinv = d.inverse()
    return a * dinv + c * b * dinv * dinv


#: the most powers of a nilpotent matrix that ``exp_nilpotent`` sums
_EXP_TERMS = 8


def exp_nilpotent(m):
    """Matrix exponential of a nilpotent matrix by summing powers until a
    power vanishes exactly; raises if none of the first _EXP_TERMS + 1
    does."""
    out, term = SuperMatrix.identity(), m
    for k in range(2, _EXP_TERMS + 3):
        if term.max_abs() == 0:
            return out
        out = out + term
        term = term * m * Fraction(1, k)
    raise ValueError(f"matrix is not nilpotent within {_EXP_TERMS} powers")
