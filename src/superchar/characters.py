"""Supertrace characters of SUSY lattice vertex algebras: lattice theta
functions (modular forms in E4 and Delta for even unimodular summands,
Fincke-Pohst vector enumeration for the others), the product and
closed-form character series, a brute-force Fock-space oracle, the triple
product identity, cusp predicates with expansion certificates, and numeric
Jacobi transformation checks for the normalized character.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np

from .elliptic import divisor_sigma
from .jacobi_forms import (JacobiForm, OffsetSeries, _theta_mantissa,
                           theta_sum_terms, transformation_check)
from .report import VerificationRow
from .series_core import (DEFAULT_Q_ORDER, EvalPoint, QYSeries, euler_product,
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

    def norm(self, v):
        """(v, v)/2 as an exact integer."""
        g = self.gram
        total = sum(v[i] * g[i][j] * v[j]
                    for i in range(self.rank) for j in range(self.rank))
        assert total % 2 == 0
        return total // 2

    def to_json_obj(self):
        return {"rank": self.rank, "gram": self.gram}

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj):
        lat = cls(obj["gram"])
        if lat.rank != obj.get("rank", lat.rank):
            raise ValueError("rank field does not match the Gram matrix")
        return lat

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


def e8_lattice():
    """The E8 root lattice (Gram matrix of the simply-laced Cartan type with
    a 7-chain and one branch node)."""
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    gram = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return EvenLattice(gram)


def count_vectors_by_norm(lattice, max_norm):
    """Counts of lattice vectors with (v,v)/2 = n for 0 <= n <= max_norm,
    by exhaustive Fincke-Pohst enumeration.  Returns a list of counts."""
    r = lattice.rank
    counts = np.zeros(max_norm + 1, dtype=np.int64)
    counts[0] = 1  # zero vector
    if r == 0 or max_norm == 0:
        return [int(c) for c in counts]
    g = np.array(lattice.gram, dtype=float) / 2.0
    # Q(v) = |R v|^2 with R upper triangular
    rmat = np.linalg.cholesky(g).T
    budget = max_norm + 1e-9
    half = np.zeros(max_norm + 1, dtype=np.int64)
    vec_levels = min(4, r)  # bottom levels handled as flat numpy batches

    def count_tail(partial, used, all_zero_above):
        # vectorized enumeration of coordinates vec_levels-1 .. 0
        t = [np.array([partial[j]]) for j in range(vec_levels)]
        used_a = np.array([used])
        az = np.array([all_zero_above])
        for j in range(vec_levels - 1, -1, -1):
            rjj = rmat[j, j]
            sq = np.sqrt(np.maximum(budget - used_a, 0.0))
            lo = np.where(az, 0,
                          np.ceil((-sq - t[j]) / rjj - 1e-12)).astype(np.int64)
            hi = np.floor((sq - t[j]) / rjj + 1e-12).astype(np.int64)
            if j == 0:
                # exclude the zero vector
                lo = np.where(az, np.maximum(lo, 1), lo)
            n = np.maximum(hi - lo + 1, 0)
            total = int(n.sum())
            if total == 0:
                return
            starts = np.cumsum(n) - n
            v = np.repeat(lo, n) + np.arange(total) - np.repeat(starts, n)
            used_a = np.repeat(used_a, n) + \
                (rjj * v + np.repeat(t[j], n)) ** 2
            if j == 0:
                break
            az = np.repeat(az, n) & (v == 0)
            for k in range(j):
                t[k] = np.repeat(t[k], n) + rmat[k, j] * v
        idx = np.rint(used_a).astype(np.int64)
        half[:] += np.bincount(idx[idx <= max_norm], minlength=max_norm + 1)

    def recurse_top(i, partial, used, all_zero_above):
        # enumerate vectors whose top nonzero coordinate is positive
        if i < vec_levels:
            count_tail(partial, used, all_zero_above)
            return
        rii = rmat[i, i]
        ti = partial[i]
        sq = math.sqrt(budget - used)
        lo_i = 0 if all_zero_above else math.ceil((-sq - ti) / rii - 1e-12)
        hi_i = math.floor((sq - ti) / rii + 1e-12)
        for v in range(lo_i, hi_i + 1):
            s = rii * v + ti
            new_used = used + s * s
            if new_used > budget:
                continue
            recurse_top(i - 1, partial + rmat[:, i] * v, new_used,
                        all_zero_above and v == 0)

    recurse_top(r - 1, np.zeros(r), 0.0, True)
    counts += 2 * half
    return [int(c) for c in counts]


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


def _mul(a, b):
    """Product of two integer coefficient lists of equal length, truncated
    at that length."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def _pow(a, k):
    out = [1] + [0] * (len(a) - 1)
    for _ in range(k):
        out = _mul(out, a)
    return out


def _eta24(size):
    """prod_n (1 - q^n)^24 = Delta / q, as integers to q^(size - 1)."""
    euler = [1] + [0] * (size - 1)
    for n in range(1, size):
        for i in range(size - 1, n - 1, -1):
            euler[i] -= euler[i - n]
    return _pow(euler, 24)


def _unimodular_theta(lattice, n_q):
    """Theta series of an even unimodular lattice of rank 8m, as exact
    integers to q^n_q.  It is a modular form of weight 4m for SL(2, Z), so
    Theta = sum_{j <= m/3} c_j E4^{m-3j} Delta^j (Serre, A Course in
    Arithmetic, ch. VII).  Delta^j = q^j + O(q^{j+1}), so the c_j follow by
    back-substitution from the vector counts through q^{m/3}."""
    m = lattice.rank // 8
    top = m // 3
    size = max(n_q, top) + 1
    e4 = [1] + [240 * divisor_sigma(3, n) for n in range(1, size)]
    counts = count_vectors_by_norm(lattice, top)
    theta = [0] * size
    delta_j = [1] + [0] * (size - 1)  # Delta^j / q^j
    for j in range(top + 1):
        form = _mul(_pow(e4, m - 3 * j), delta_j)
        c = counts[j] - theta[j]
        for n in range(j, size):
            theta[n] += c * form[n - j]
        if j < top:
            delta_j = _mul(delta_j, _eta24(size))
    return theta[:n_q + 1]


def lattice_theta(lattice, n_q=DEFAULT_Q_ORDER):
    """Theta function of the lattice, sum_v q^{(v,v)/2}, as a y-free
    QYSeries.  The lattice is split into orthogonal summands; an even
    unimodular summand (its rank is then a multiple of 8) takes its theta
    series from E4 and Delta, every other summand from Fincke-Pohst
    enumeration, and the product is taken in exact integers."""
    theta = [1] + [0] * n_q
    for idx in _orthogonal_components(lattice.gram):
        part = EvenLattice([[lattice.gram[i][j] for j in idx] for i in idx])
        if part.is_unimodular():
            counts = _unimodular_theta(part, n_q)
        else:
            counts = count_vectors_by_norm(part, n_q)
        theta = _mul(theta, counts)
    return QYSeries({(n, 0): float(c) for n, c in enumerate(theta)}, n_q)


class CharacterSeries:
    """A supertrace character including the y^{C/6} prefactor; chi is the
    full series, central_charge = 3 rank / 2, index = C/6 = rank/4."""

    __slots__ = ("chi", "central_charge", "index", "mode")

    def __init__(self, chi, rank, mode):
        self.chi = chi
        self.central_charge = Fraction(3 * rank, 2)
        self.index = Fraction(rank, 4)
        self.mode = mode


def chi_character(lattice, n_q=DEFAULT_Q_ORDER, mode="product"):
    """The supertrace character y^{C/6} str q^{L_0} y^{J_0} of the SUSY
    lattice vertex algebra of an even unimodular lattice of rank r.

    mode "product":
        y^{r/4} [prod_n (1 - y q^n)(1 - y^{-1} q^{n-1})/(1 - q^n)^2]^{r/2}
        * Theta(q)
    mode "closed" (requires 8 | r):
        eta^{-C} Theta(q) theta^{C/3} with C = 3r/2; the fractional
        q-offsets of eta and theta cancel exactly (asserted).
    """
    r = lattice.rank
    if r % 2 != 0:
        raise ValueError("rank must be even")
    theta_l = lattice_theta(lattice, n_q)
    if mode == "product":
        def factor(n):
            return QYSeries({(0, 0): 1.0, (n, 2): -1.0, (n - 1, -2): -1.0,
                             (2 * n - 1, 0): 1.0}, n_q)
        osc = infinite_product(factor, n_q, min_degree=lambda n: n - 1)
        osc = osc ** (r // 2)
        den = euler_product(n_q) ** r
        prefactor = QYSeries.monomial(1.0, 0, r // 2, n_q)  # y^{r/4}
        chi = prefactor * osc * den.invert() * theta_l
        return CharacterSeries(chi, r, mode)
    if mode == "closed":
        if r % 8 != 0:
            raise ValueError("closed form requires rank divisible by 8")
        c_central = 3 * r // 2
        eta_inv = OffsetSeries(euler_product(n_q).invert() ** c_central,
                               -Fraction(c_central, 24))
        th = OffsetSeries(_theta_mantissa(n_q), Fraction(1, 8)) ** (r // 2)
        chi = (eta_inv * th).require_integral() * theta_l
        return CharacterSeries(chi, r, mode)
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
    out = QYSeries.zero(n_q)
    for (w, charge), v in total.items():
        # include the y^{r/4} prefactor (doubled exponent r/2)
        out._set(w, 2 * charge + r // 2, out.coeff(w, 2 * charge + r // 2)
                 + float(v))
    return out


def fock_weighted_trace(lattice, n_q, insertion, fock=None):
    """As ``fock_oracle`` but with an L_0 or J_0 insertion: every state is
    weighted by its total weight ("L0") or its total charge including the
    C/6 shift ("J0").  ``fock`` is ``fock_oracle(lattice, n_q)`` if the
    caller has already built it."""
    if insertion not in ("L0", "J0"):
        raise ValueError("insertion must be 'L0' or 'J0'")
    if fock is None:
        fock = fock_oracle(lattice, n_q)
    out = QYSeries.zero(n_q)
    for (w, r2), v in fock.coeffs.items():
        factor = w if insertion == "L0" else r2 / 2.0
        if factor != 0:
            out._set(w, r2, v * factor)
    return out


def trace_identity_check(lattice, n_q, tol=0.0, fock=None):
    """Verify the bookkeeping identities

        str L_0 q^{L_0} y^{J_0} = q d/dq str q^{L_0} y^{J_0}
        str J_0 q^{L_0} y^{J_0} = y d/dy str q^{L_0} y^{J_0}

    with the insertion side from the brute-force Fock sum (``fock``, built
    here if not given) and the differentiated side from the product-form
    character.  Returns rows."""
    chi = chi_character(lattice, n_q, "product").chi
    if fock is None:
        fock = fock_oracle(lattice, n_q)
    rows = []
    for insertion, diff in (("L0", chi.q_d_dq()), ("J0", chi.y_d_dy())):
        ins = fock_weighted_trace(lattice, n_q, insertion, fock)
        resid = ins.normalized_distance(diff)
        rows.append(VerificationRow(
            suite="",
            identity=f"trace-insertion-{insertion}",
            paper_ref="supertrace-derivative-bookkeeping",
            element=f"rank-{lattice.rank}-lattice",
            point=None,
            residual=resid,
            tolerance=tol,
            passed=resid <= tol,
        ))
    return rows


# ---------------------------------------------------------------------------
# triple product
# ---------------------------------------------------------------------------

def jacobi_triple_product(n_q=DEFAULT_Q_ORDER):
    """Returns (product_side, sum_side):
    prod_n (1-q^n)(1-y q^n)(1-y^{-1} q^{n-1})  and  sum_k (-y)^k q^{k(k+1)/2}.
    """
    def factor(n):
        return (QYSeries({(0, 0): 1.0, (n, 0): -1.0}, n_q)
                * QYSeries({(0, 0): 1.0, (n, 2): -1.0}, n_q)
                * QYSeries({(0, 0): 1.0, (n - 1, -2): -1.0}, n_q))
    lhs = infinite_product(factor, n_q, min_degree=lambda n: n - 1)
    rhs = QYSeries.zero(n_q)
    for n, k, sign in theta_sum_terms(n_q):
        rhs._set(n, 2 * k, rhs.coeff(n, 2 * k) + float(sign))
    return lhs, rhs


def triple_product_check(n_q=30):
    """Exact coefficient comparison of the triple product identity."""
    lhs, rhs = jacobi_triple_product(n_q)
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    resid = max((abs(lhs.coeff(*k) - rhs.coeff(*k)) for k in keys),
                default=0.0)
    return VerificationRow(
        suite="",
        identity="triple-product",
        paper_ref="theta-product-expansion",
        element=f"q-order-{n_q}",
        point=None,
        residual=resid,
        tolerance=0.0,
        passed=resid == 0.0,
    )


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
    """The (e, f, l) on which the cusp certificate depends: the translate
    by q^n carries the prefactor q^{n e} y^{n f}, with e = 1 + k - delta
    and f = 0 in the non-super case, e = K + k - delta and f = K - 1 - c in
    the super case.  Otherwise k only shifts every x-exponent, and the
    certificate never compares across x-exponents."""
    if super_case:
        return cap_k + k - delta, cap_k - 1 - charge, l
    return 1 + k - delta, 0, l


def _add_translates(acc, e, f, l, translates, q_max, z):
    """Add to ``acc`` = {(q_pow, x_pow, y_pow): complex} the geometric
    expansions of the translates n in ``translates`` of the averaged
    section of class (e, f, l), with x-exponents taken relative to k."""
    for n in translates:
        q_pref, y_pow = n * e, n * f
        if n > 0:
            # (q^n x - z)^{-l} = (-z)^{-l} sum_j C(l-1+j, j) (x/z)^j q^{nj}
            base = (-z) ** (-l)
            j = 0
            while q_pref + n * j <= q_max:
                key = (q_pref + n * j, j, y_pow)
                acc[key] = acc.get(key, 0j) + \
                    base * math.comb(l - 1 + j, j) * z ** (-j)
                j += 1
        else:
            m = -n
            # (q^{-m} x - z)^{-l} = q^{ml} x^{-l} sum_j C(l-1+j,j) (z/x)^j q^{mj}
            j = 0
            while q_pref + m * l + m * j <= q_max:
                key = (q_pref + m * l + m * j, -l - j, y_pow)
                acc[key] = acc.get(key, 0j) + math.comb(l - 1 + j, j) * z ** j
                j += 1
    return acc


def cusp_certificate(delta, k, l, cap_k=0, charge=0, n_cut=12, q_max=8,
                     z=0.73 + 0.21j, tol=1e-9, super_case=None):
    """Independent expansion certificate for the cusp predicates.

    The averaged section is expanded at translate cutoffs n_cut and
    n_cut + 5 (the larger expansion adds the translates n_cut < |n| <=
    n_cut + 5 to the smaller); the sum extends over the cusp iff no
    negative q-powers appear, coefficients at common keys agree between
    the cutoffs, and the minimum y-exponent of each q-shell does not drop
    (new keys may appear only at higher y-powers, where the limit is a
    power series in y).
    """
    if super_case is None:
        super_case = not (cap_k == 0 and charge == 0)
    e, f, l = cusp_class(delta, k, l, cap_k, charge, super_case)
    inner = [n for n in range(-n_cut, n_cut + 1) if n]
    outer = [s * n for n in range(n_cut + 1, n_cut + 6) for s in (-1, 1)]
    small = _add_translates({}, e, f, l, inner, q_max, z)
    large = _add_translates(dict(small), e, f, l, outer, q_max, z)
    scale = max((abs(v) for v in large.values()), default=1.0)
    for key, v in large.items():
        if key[0] < 0 and abs(v) > tol * scale:
            return False
    for key, v in small.items():
        if abs(v - large[key]) > tol * scale:
            return False
    min_y_small = {}
    min_y_large = {}
    for (qp, _, yp), v in small.items():
        if abs(v) > tol * scale:
            min_y_small[qp] = min(min_y_small.get(qp, yp), yp)
    for (qp, _, yp), v in large.items():
        if abs(v) > tol * scale:
            min_y_large[qp] = min(min_y_large.get(qp, yp), yp)
    for qp, ymin in min_y_large.items():
        if qp in min_y_small and ymin < min_y_small[qp]:
            return False
        if qp not in min_y_small and qp <= q_max:
            # a whole q-shell that the smaller cutoff lacks: the sum has
            # not stabilized
            return False
    return True


def cusp_grid_check(delta_range=range(0, 6), k_range=range(0, 8),
                    l_range=range(1, 5), super_grid=False,
                    charge_range=range(-3, 4), cap_k_values=(0, 1)):
    """Compare predicate and certificate over a parameter grid; returns the
    list of mismatches (empty iff they agree everywhere).  The certificate
    is computed once per ``cusp_class`` and the predicate at every point."""
    certs = {}

    def certificate(*args):
        key = cusp_class(*args, super_case=super_grid)
        if key not in certs:
            certs[key] = cusp_certificate(*args, super_case=super_grid)
        return certs[key]

    mismatches = []
    for delta in delta_range:
        for k in k_range:
            for l in l_range:
                if not super_grid:
                    pred = cusp_predicate(delta, k, l)
                    cert = certificate(delta, k, l)
                    if pred != cert:
                        mismatches.append((delta, k, l, pred, cert))
                else:
                    for c in charge_range:
                        for cap_k in cap_k_values:
                            pred = super_cusp_predicate(delta, k, l, cap_k, c)
                            cert = certificate(delta, k, l, cap_k, c)
                            if pred != cert:
                                mismatches.append(
                                    (delta, k, l, cap_k, c, pred, cert))
    return mismatches


# ---------------------------------------------------------------------------
# Jacobi transformation checks for the normalized character
# ---------------------------------------------------------------------------

def character_jacobi_form(lattice, n_q=30):
    """The character as a numeric Jacobi form of weight 0 and index C/6,
    evaluated from the closed-form series."""
    cs = chi_character(lattice, n_q, "closed")
    oseries = OffsetSeries(cs.chi, 0)
    return JacobiForm(f"chi-rank-{lattice.rank}", 0, cs.index, oseries)


def jacobi_character_check(lattice, points=None, tol=1e-5, n_q=30):
    """Numeric verification that the normalized character transforms as a
    Jacobi form of weight 0 and index C/6 under the generators of the
    Jacobi group (lattice shifts and S, T)."""
    if points is None:
        points = [EvalPoint(0.25 + 1.1j, 0.31 + 0.12j),
                  EvalPoint(-0.4 + 1.3j, 0.11 - 0.07j),
                  EvalPoint(0.1 + 0.9j, 0.42 + 0.05j)]
    form = character_jacobi_form(lattice, n_q)
    elements = [("shift", 1, 0), ("shift", 0, 1), ("shift", 1, 1),
                ("sl2", 0, -1, 1, 0), ("sl2", 1, 1, 0, 1)]
    return transformation_check(form, elements, points, tol,
                                paper_ref="character-jacobi-transformation")
