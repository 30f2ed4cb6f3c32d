"""Supertrace characters of SUSY lattice vertex algebras: lattice theta
functions (modular forms in E4 and Delta for even unimodular summands,
Fincke-Pohst vector enumeration for the others), the product and
closed-form character series, a brute-force Fock-space oracle with its
L_0 / J_0 trace insertions, both sides of the Jacobi triple product, and
cusp predicates with expansion certificates.  The rows that compare these
are built in ``superchar.checks``.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

# perfbench wraps these two names here as well as in jacobi_forms
from .jacobi_forms import _theta_mantissa, transformation_check  # noqa: F401
from .jacobi_forms import (discriminant_series, eisenstein_e4, eta_series,
                           theta_offset_series, theta_sum_terms)
from .series_core import (DEFAULT_Q_ORDER, QYSeries, euler_product,
                          infinite_product)


def integer_determinant(matrix):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division is exact, so all entries stay
    integers.  A zero pivot is replaced by a lower row with a nonzero
    entry in its column."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


class EvenLattice:
    """A positive-definite even integral lattice given by its Gram matrix."""

    __slots__ = ("gram", "rank")

    def __init__(self, gram):
        for row in gram:
            for x in row:
                if x in (math.inf, -math.inf) or x != int(x):
                    raise ValueError(f"Gram entry {x!r} is not an integer")
        gram = [[int(x) for x in row] for row in gram]
        r = len(gram)
        for row in gram:
            if len(row) != r:
                raise ValueError("Gram matrix must be square")
        for i in range(r):
            for j in range(r):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
            if gram[i][i] % 2 != 0:
                raise ValueError("Gram matrix must have even diagonal")
        if r > 0:
            eigs = np.linalg.eigvalsh(np.array(gram, dtype=float))
            if eigs[0] <= 0:
                raise ValueError("Gram matrix must be positive definite")
        self.gram = gram
        self.rank = r

    def determinant(self):
        return integer_determinant(self.gram)

    def is_unimodular(self):
        return abs(self.determinant()) == 1

    @classmethod
    def from_json_obj(cls, obj):
        lat = cls(obj["gram"])
        if lat.rank != obj.get("rank", lat.rank):
            raise ValueError("rank field does not match the Gram matrix")
        return lat

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


def _even_lattice(gram):
    """The EvenLattice of this list of int rows, unchecked: for a principal
    block of a validated Gram matrix, which is already symmetric, even,
    integral and positive definite."""
    out = object.__new__(EvenLattice)
    out.gram = gram
    out.rank = len(gram)
    return out


def e8_lattice():
    """The E8 root lattice (Gram matrix of the simply-laced Cartan type with
    a 7-chain and one branch node)."""
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    gram = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return EvenLattice(gram)


#: Most child nodes one breadth-first step of the enumeration builds at
#: once; a wider level is expanded in slices of its nodes.  Every level of
#: slices holds its frontier while the next one runs, so this bounds the
#: working set: 2^14 keeps D8 to norm 14 within 4 MB of a depth-first
#: enumeration's peak, where an unsliced frontier adds 36 MB.
_FRONTIER_CAP = 1 << 14


def count_vectors_by_norm(lattice, max_norm):
    """Counts of lattice vectors with (v,v)/2 = n for 0 <= n <= max_norm,
    by exhaustive Fincke-Pohst enumeration.  Returns a list of counts."""
    counts = np.zeros(max_norm + 1, dtype=np.int64)
    r = lattice.rank
    if r and max_norm:
        # Q(v) = |R v|^2 with R upper triangular
        rmat = np.linalg.cholesky(np.array(lattice.gram, dtype=float) / 2).T
        # one root node, above every coordinate
        _count_half(rmat, r - 1, [np.zeros(1)] * r, np.zeros(1),
                    np.ones(1, dtype=bool), counts)
        counts *= 2  # v and -v
    counts[0] = 1  # zero vector
    return [int(c) for c in counts]


def _count_half(rmat, j, t, used, az, half):
    """Count into ``half``, by norm, the vectors below the frontier nodes at
    coordinate level j whose top nonzero coordinate is positive.  Each step
    expands the range of coordinate j of every node at once; ``t[k]`` holds
    each node's partial centre of coordinate k <= j, ``used`` the norm of
    its coordinates above j, ``az`` whether they are all zero."""
    max_norm = len(half) - 1
    budget = max_norm + 1e-9
    while True:
        rjj = rmat[j, j]
        sq = np.sqrt(np.maximum(budget - used, 0.0))
        lo = np.ceil((-sq - t[j]) / rjj - 1e-12).astype(np.int64)
        # half-space rule: the top nonzero coordinate is positive, and the
        # zero vector is left out
        lo = np.where(az, 1 if j == 0 else 0, lo)
        hi = np.floor((sq - t[j]) / rjj + 1e-12).astype(np.int64)
        n = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(n)
        total = int(ends[-1])
        if total > _FRONTIER_CAP and len(n) > 1:
            cut = 0
            while cut < len(n):
                base = ends[cut - 1] if cut else 0
                stop = max(int(np.searchsorted(ends, base + _FRONTIER_CAP,
                                               "right")), cut + 1)
                _count_half(rmat, j, [x[cut:stop] for x in t[:j + 1]],
                            used[cut:stop], az[cut:stop], half)
                cut = stop
            return
        if total == 0:
            return
        v = np.repeat(lo - (ends - n), n) + np.arange(total)
        used = np.repeat(used, n) + (rjj * v + np.repeat(t[j], n)) ** 2
        if j == 0:
            break
        az = np.repeat(az, n) & (v == 0)
        t = [np.repeat(t[k], n) + rmat[k, j] * v for k in range(j)]
        j -= 1
    idx = np.rint(used).astype(np.int64)
    half += np.bincount(idx[idx <= max_norm], minlength=max_norm + 1)


def _orthogonal_components(gram):
    """Index lists of the orthogonal summands of a Gram matrix: the
    connected components of the graph joining i and j when gram[i][j] is
    nonzero."""
    todo = set(range(len(gram)))
    parts = []
    while todo:
        stack = [min(todo)]
        todo.discard(stack[0])
        part = []
        while stack:
            i = stack.pop()
            part.append(i)
            linked = {j for j in todo if gram[i][j] != 0}
            todo -= linked
            stack.extend(linked)
        parts.append(sorted(part))
    return parts


def _unimodular_theta(lattice, n_q):
    """Theta series of an even unimodular lattice of rank 8m, exactly, to
    q^n_q.  It is a modular form of weight 4m for SL(2, Z), so
    Theta = sum_{j <= m/3} c_j E4^{m-3j} Delta^j (Serre, A Course in
    Arithmetic, ch. VII).  Delta^j = q^j + O(q^{j+1}), so the c_j follow by
    back-substitution from the vector counts through q^{m/3}; below rank 24
    the only count needed is the zero vector's."""
    m = lattice.rank // 8
    e4 = eisenstein_e4(n_q)
    theta = e4 ** m  # c_0 = 1, the zero vector
    if m >= 3:
        counts = count_vectors_by_norm(lattice, m // 3)
        delta = discriminant_series(n_q)
        for j in range(1, m // 3 + 1):
            form = e4 ** (m - 3 * j) * delta ** j
            theta = theta + form * (counts[j] - theta.exact_coeff(j))
    return theta


def lattice_theta(lattice, n_q=DEFAULT_Q_ORDER):
    """Theta function of the lattice, sum_v q^{(v,v)/2}, as an exact y-free
    QYSeries.  The lattice is split into orthogonal summands; an even
    unimodular summand (its rank is then a multiple of 8) takes its theta
    series from E4 and Delta, every other summand from Fincke-Pohst
    enumeration."""
    theta = QYSeries.one(n_q)
    for idx in _orthogonal_components(lattice.gram):
        part = _even_lattice([[lattice.gram[i][j] for j in idx] for i in idx])
        if part.is_unimodular():
            theta = theta * _unimodular_theta(part, n_q)
        else:
            counts = count_vectors_by_norm(part, n_q)
            theta = theta * QYSeries(
                {(n, 0): c for n, c in enumerate(counts)}, n_q)
    return theta


def _oscillator_binomials(n_q):
    """The triples (a, b2, c) of (1 - y q^n)(1 - y^{-1} q^{n-1}),
    n = 1 .. n_q + 1, for ``infinite_product``: past n_q + 1 no factor
    reaches q^n_q."""
    return [t for n in range(1, n_q + 2)
            for t in ((n, 2, -1), (n - 1, -2, -1))]


class CharacterSeries:
    """A supertrace character including the y^{C/6} prefactor; chi is the
    full series, central_charge = 3 rank / 2, index = C/6 = rank/4."""

    __slots__ = ("chi", "central_charge", "index")

    def __init__(self, chi, rank):
        self.chi = chi
        self.central_charge = Fraction(3 * rank, 2)
        self.index = Fraction(rank, 4)


def chi_character(lattice, n_q=DEFAULT_Q_ORDER, mode="product"):
    """The supertrace character y^{C/6} str q^{L_0} y^{J_0} of the SUSY
    lattice vertex algebra of an even unimodular lattice of rank r.

    mode "product":
        y^{r/4} [prod_n (1 - y q^n)(1 - y^{-1} q^{n-1})/(1 - q^n)^2]^{r/2}
        * Theta(q)
    mode "closed" (requires 8 | r):
        eta^{-C} Theta(q) theta^{C/3} with C = 3r/2; the q-offsets -C/24
        of eta^{-C} and C/24 of theta^{C/3} cancel exactly (an offset left
        over is a ValueError).
    """
    r = lattice.rank
    if r % 2 != 0:
        raise ValueError("rank must be even")
    theta_l = lattice_theta(lattice, n_q)
    if mode == "product":
        osc = infinite_product(_oscillator_binomials(n_q), n_q) ** (r // 2)
        prefactor = QYSeries.monomial(1, 0, r // 2, n_q)  # y^{r/4}
        # the two y-free factors first: one y-block product fewer
        chi = prefactor * osc * (euler_product(n_q, -r) * theta_l)
        return CharacterSeries(chi, r)
    if mode == "closed":
        if r % 8 != 0:
            raise ValueError("closed form requires rank divisible by 8")
        chi = (eta_series(n_q, -3 * r // 2)
               * theta_offset_series(n_q) ** (r // 2) * theta_l)
        if chi.q_offset:
            raise ValueError(f"q-offset {chi.q_offset} has not cancelled")
        return CharacterSeries(chi, r)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# brute-force Fock oracle
# ---------------------------------------------------------------------------

def _convolve(a, b, n_q):
    """Convolution of {(w, charge): coeff} arrays truncated at weight n_q."""
    out = {}
    for (w1, c1), v1 in a.items():
        for (w2, c2), v2 in b.items():
            w = w1 + w2
            if w > n_q:
                continue
            key = (w, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


def _boson_sector(colors, n_q):
    """Signed state sum over occupation numbers of ``colors`` bosonic
    oscillators in each mode n >= 1 (all states have sign +1, charge 0)."""
    acc = {(0, 0): 1}
    for n in range(1, n_q + 1):
        for _ in range(colors):
            # one oscillator of weight n: occupations 0, 1, 2, ...
            mode = {(n * j, 0): 1 for j in range(n_q // n + 1)}
            acc = _convolve(acc, mode, n_q)
    return acc


def _fermion_sector(colors, weights, charge, n_q):
    """Signed state sum over a family of fermionic oscillators: each mode is
    empty or singly occupied, and occupation flips the supertrace sign."""
    acc = {(0, 0): 1}
    for w in weights:
        for _ in range(colors):
            mode = {(0, 0): 1}
            if w <= n_q:
                mode[(w, charge)] = mode.get((w, charge), 0) - 1
            acc = _convolve(acc, mode, n_q)
    return acc


def fock_oracle(lattice, n_q, counts=None):
    """The supertrace y^{C/6} str q^{L_0} y^{J_0} assembled by brute-force
    state sums: r colored bosons (modes n >= 1), r/2 positively charged
    fermions (weights n >= 1), r/2 negatively charged fermions (weights
    n - 1 >= 0, including zero modes), and the lattice sector enumerated
    vector by vector.  ``counts`` is ``count_vectors_by_norm(lattice, n_q)``
    if the caller has already enumerated it.  Returns a QYSeries with
    doubled y-exponents."""
    r = lattice.rank
    if r % 2 != 0:
        raise ValueError("rank must be even")
    bos = _boson_sector(r, n_q)
    ferm_plus = _fermion_sector(r // 2, range(1, n_q + 1), +1, n_q)
    ferm_minus = _fermion_sector(r // 2, range(0, n_q + 1), -1, n_q)
    if counts is None:
        counts = count_vectors_by_norm(lattice, n_q)
    lat = {(w, 0): c for w, c in enumerate(counts)}
    total = _convolve(_convolve(_convolve(bos, ferm_plus, n_q),
                                ferm_minus, n_q), lat, n_q)
    # include the y^{r/4} prefactor (doubled exponent r/2)
    return QYSeries({(w, 2 * charge + r // 2): v
                     for (w, charge), v in total.items()}, n_q)


def fock_weighted_trace(fock, insertion):
    """The state sum ``fock`` of ``fock_oracle`` with an L_0 or J_0
    insertion: every state is weighted by its total weight ("L0") or its
    total charge including the C/6 shift ("J0").  The states are summed
    into coefficients by (weight, charge), so the coefficient of
    q^n y^(r2/2) is weighted by its own n or r2/2."""
    if insertion not in ("L0", "J0"):
        raise ValueError("insertion must be 'L0' or 'J0'")
    return QYSeries({(n, r2): (n if insertion == "L0" else Fraction(r2, 2))
                     * fock.exact_coeff(n, r2) for n, r2, _ in fock.terms()},
                    fock.q_order)


# ---------------------------------------------------------------------------
# triple product
# ---------------------------------------------------------------------------

def triple_product_sum(n_q=DEFAULT_Q_ORDER):
    """sum_k (-y)^k q^{k(k+1)/2}: the sum side of the Jacobi triple
    product."""
    return QYSeries({(n, 2 * k): sign for n, k, sign in theta_sum_terms(n_q)},
                    n_q)


def jacobi_triple_product(n_q=DEFAULT_Q_ORDER):
    """Returns (product_side, sum_side):
    prod_n (1-q^n)(1-y q^n)(1-y^{-1} q^{n-1})  and  sum_k (-y)^k q^{k(k+1)/2}.
    """
    binomials = _oscillator_binomials(n_q) + [
        (n, 0, -1) for n in range(1, n_q + 1)]
    return infinite_product(binomials, n_q), triple_product_sum(n_q)


# ---------------------------------------------------------------------------
# cusp predicates and expansion certificates
# ---------------------------------------------------------------------------

def cusp_predicate(delta, k, l):
    """Whether the averaged section x^k a/(x-z)^l of a weight-delta vector
    extends over the cusp: delta + l > k + 1 > delta (both strict)."""
    return (delta + l > k + 1) and (k + 1 > delta)


def super_cusp_predicate(delta, k, l, cap_k, charge):
    """Super version for the section x^k theta^K a/(x-z)^l with K = cap_k
    and charge c: the sum extends iff

      (a) delta + l > K + k > delta, or
      (b) K + k = delta and K > 1 + c, or
      (c) K + k = delta + l and K < 1 + c.
    """
    s = cap_k + k
    if delta + l > s > delta:
        return True
    if s == delta and cap_k > 1 + charge:
        return True
    if s == delta + l and cap_k < 1 + charge:
        return True
    return False


def cusp_class(delta, k, l, cap_k=0, charge=0, super_case=False):
    """The (e, sign f, l) on which the cusp certificate depends: the
    translate by q^n carries the prefactor q^{n e} y^{n f}, with
    e = 1 + k - delta and f = 0 in the non-super case, e = K + k - delta
    and f = K - 1 - c in the super case.  Otherwise k only shifts every
    x-exponent, and the certificate never compares across x-exponents.
    It uses the y-power n f only to test keys for equality (within and
    across the two cutoffs) and to find the least key of a q-shell; for
    f != 0, n -> n f is injective and strictly monotone, so sign f gives
    every answer that f gives, and for f = 0 every y-power is 0."""
    if super_case:
        sign_f = (cap_k > 1 + charge) - (cap_k < 1 + charge)
        return cap_k + k - delta, sign_f, l
    return 1 + k - delta, 0, l


def _add_translates(acc, e, f, l, translates, q_max):
    """Add to ``acc`` = {(q_pow, x_pow, y_pow): int}, and return it, the
    geometric expansions of the translates n in ``translates`` of the
    averaged section of class (e, f, l), with x-exponents taken relative to
    k.  The power of z in each term is fixed by its key, (-z)^{-l} z^{-j}
    at x^j for n > 0 and z^j at x^{-l-j} for n < 0, so it is divided out
    and every coefficient is an integer.  The q-powers of a translate rise
    from its first term, so it stops and returns None instead at the first
    translate whose first term has a negative q-power: n e < 0 for n > 0,
    m (l - e) < 0 for n = -m < 0."""
    sign = -1 if l % 2 else 1  # (-z)^{-l} = (-1)^l z^{-l}
    for n in translates:
        q_pref, y_pow = n * e, n * f
        if n > 0:
            if q_pref < 0:
                return None
            # (q^n x - z)^{-l} = (-z)^{-l} sum_j C(l-1+j, j) (x/z)^j q^{nj}
            j = 0
            while q_pref + n * j <= q_max:
                key = (q_pref + n * j, j, y_pow)
                acc[key] = acc.get(key, 0) + sign * math.comb(l - 1 + j, j)
                j += 1
        else:
            m = -n
            if q_pref + m * l < 0:
                return None
            # (q^{-m} x - z)^{-l} = q^{ml} x^{-l} sum_j C(l-1+j,j) (z/x)^j q^{mj}
            j = 0
            while q_pref + m * l + m * j <= q_max:
                key = (q_pref + m * l + m * j, -l - j, y_pow)
                acc[key] = acc.get(key, 0) + math.comb(l - 1 + j, j)
                j += 1
    return acc


def _shell_min_y(acc):
    """{q_pow: least y-exponent of a nonzero term with that q-power}."""
    out = {}
    for (qp, _, yp), v in acc.items():
        if v != 0 and (qp not in out or yp < out[qp]):
            out[qp] = yp
    return out


#: the translate cutoff and the q-order of the cusp certificate
_N_CUT = 12
_Q_MAX = 8


def cusp_certificate(delta, k, l, cap_k=0, charge=0, *, super_case):
    """Independent expansion certificate for the cusp predicates, in exact
    integers.

    The averaged section is expanded to q^_Q_MAX at translate cutoffs
    _N_CUT and _N_CUT + 5 (the larger expansion adds the translates
    _N_CUT < |n| <= _N_CUT + 5 to the smaller); the sum extends over the
    cusp iff no negative q-powers appear, coefficients at common keys agree
    between the cutoffs, and the minimum y-exponent of each q-shell does
    not drop (new keys may appear only at higher y-powers, where the limit
    is a power series in y).

    The verdict does not depend on the point z of the pole: every term at
    one key (q-power, x-power, y-power) carries the same power of z and the
    same sign, and the translates n > 0 and n < 0 have disjoint x-powers.
    So the coefficients are sums of binomials that never cancel, the
    certificate divides z out, and it compares integers.  For the same
    reason the first term with a negative q-power that the expansion meets
    stays nonzero in the sum, so the expansion stops there and the sum does
    not extend.
    """
    e, f, l = cusp_class(delta, k, l, cap_k, charge, super_case)
    inner = [n for n in range(-_N_CUT, _N_CUT + 1) if n]
    outer = [s * n for n in range(_N_CUT + 1, _N_CUT + 6) for s in (-1, 1)]
    small = _add_translates({}, e, f, l, inner, _Q_MAX)
    if small is None:
        return False
    large = _add_translates(dict(small), e, f, l, outer, _Q_MAX)
    if large is None:
        return False
    if any(v != large[key] for key, v in small.items()):
        return False
    min_y_small = _shell_min_y(small)
    for qp, ymin in _shell_min_y(large).items():
        # a q-shell that the smaller cutoff lacks, or whose least y-power
        # drops: the sum has not stabilized
        if qp not in min_y_small or ymin < min_y_small[qp]:
            return False
    return True


def cusp_grid_check(super_grid=False):
    """Compare predicate and certificate over the grid Delta 0..5, k 0..7,
    l 1..4 and, for the super predicate, c -3..3 and K 0..1; returns the
    list of mismatches (empty iff they agree everywhere).  The certificate
    is computed once per ``cusp_class`` and the predicate at every point."""
    certs = {}

    def certificate(*args):
        key = cusp_class(*args, super_case=super_grid)
        if key not in certs:
            certs[key] = cusp_certificate(*args, super_case=super_grid)
        return certs[key]

    mismatches = []
    for delta, k, l in itertools.product(range(6), range(8), range(1, 5)):
        if not super_grid:
            pred = cusp_predicate(delta, k, l)
            cert = certificate(delta, k, l)
            if pred != cert:
                mismatches.append((delta, k, l, pred, cert))
        else:
            for c, cap_k in itertools.product(range(-3, 4), (0, 1)):
                pred = super_cusp_predicate(delta, k, l, cap_k, c)
                cert = certificate(delta, k, l, cap_k, c)
                if pred != cert:
                    mismatches.append((delta, k, l, cap_k, c, pred, cert))
    return mismatches
