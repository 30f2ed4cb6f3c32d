"""The topological N=2 mode algebra, its realization by super vector fields
on the punctured superline, flatness residues for the family connection,
GL(1|1) supermatrix actions, and second-order jet data.

Basis keys are ("L", m), ("J", m), ("Q", m), ("H", m) and the central
element ("C",); L, J, C are even, Q, H odd.  Coefficients are exact
rationals: a Python int where the value is integral and a Fraction only
where it is not (the central terms m/3 and (m^2 +- m)/6 of the bracket
table), so all bracket identities are checked exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .grassmann import (DELTA, EPS, GrassmannNumber, SuperMatrix, _supermatrix,
                        berezinian, exp_nilpotent)

_PARITY = {"L": 0, "J": 0, "C": 0, "Q": 1, "H": 1}
CENTRAL = ("C",)


def parity(gen):
    p = _PARITY.get(gen)
    if p is None:
        raise ValueError(f"unknown generator {gen!r}")
    return p


def _exact(c):
    """``c`` as an exact rational: an int if it is integral, else a
    Fraction (floats are converted exactly)."""
    if type(c) is not Fraction:
        if type(c) is int:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ratio(num, den):
    """num / den for ints, as an int when den divides num."""
    return num // den if num % den == 0 else Fraction(num, den)


class AlgebraVector:
    """A finite linear combination of mode-algebra basis elements with exact
    coefficients (int where integral, Fraction otherwise); ``terms`` maps
    basis keys to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not int:
                    c = _exact(c)
                if c:
                    self.terms[key] = c

    @staticmethod
    def basis(gen, mode=None, coeff=1):
        key = CENTRAL if gen == "C" else (gen, int(mode))
        return _algebra_vector({key: coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return _algebra_vector(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return _algebra_vector(out)

    def is_zero(self):
        return not self.terms

    def parity(self):
        parities = {parity(k[0]) for k in self.terms}
        if len(parities) > 1:
            raise ValueError("vector of mixed parity")
        return parities.pop() if parities else 0

    def __repr__(self):
        def label(key):
            return "C" if key == CENTRAL else f"{key[0]}_{key[1]}"
        body = " + ".join(f"({c})*{label(k)}"
                          for k, c in sorted(self.terms.items()))
        return f"AV[{body or '0'}]"


def _algebra_vector(terms):
    """The AlgebraVector of the coefficients ``terms``.  A dict of nonzero
    ints is taken over as it is; one that holds a zero or any other number
    goes through the public constructor, which drops zeros and makes each
    coefficient exact (an int where it is integral)."""
    for c in terms.values():
        if type(c) is not int or not c:
            return AlgebraVector(terms)
    out = object.__new__(AlgebraVector)
    out.terms = terms
    return out


def _basis_bracket(g1, m, g2, n):
    """Bracket of two basis modes, returned as a dict {key: coefficient}
    (coefficients may be zero).

    [L_m, L_n] = (m-n) L_{m+n}
    [L_m, J_n] = -n J_{m+n} + ((m^2+m)/6) C delta_{m,-n}
    [L_m, H_n] = -n H_{m+n}
    [L_m, Q_n] = (m-n) Q_{m+n}
    [J_m, J_n] = (m/3) C delta_{m,-n}
    [J_m, Q_n] = Q_{m+n}
    [J_m, H_n] = -H_{m+n}
    [H_m, Q_n] = L_{m+n} - m J_{m+n} + ((m^2-m)/6) C delta_{m,-n}
    [Q, Q] = [H, H] = 0; C is central.
    """
    if g1 == "C" or g2 == "C":
        return {}
    if g1 == "L":
        if g2 == "L":
            return {("L", m + n): m - n}
        if g2 == "J":
            if m + n == 0:
                return {("J", 0): -n, CENTRAL: _ratio(m * m + m, 6)}
            return {("J", m + n): -n}
        if g2 == "H":
            return {("H", m + n): -n}
        if g2 == "Q":
            return {("Q", m + n): m - n}
    if g1 == "J":
        if g2 == "J":
            return {CENTRAL: _ratio(m, 3)} if m + n == 0 else {}
        if g2 == "Q":
            return {("Q", m + n): 1}
        if g2 == "H":
            return {("H", m + n): -1}
    if g1 == "H" and g2 == "Q":
        if m + n == 0:
            return {("L", 0): 1, ("J", 0): -m, CENTRAL: _ratio(m * m - m, 6)}
        return {("L", m + n): 1, ("J", m + n): -m}
    if g1 == g2:  # [Q, Q] = [H, H] = 0
        return {}
    # remaining pairs via super-antisymmetry: [x, y] = -(-1)^{|x||y|} [y, x]
    swapped = _basis_bracket(g2, n, g1, m)
    if parity(g1) * parity(g2) == 0:
        return {k: -c for k, c in swapped.items()}
    return swapped


def _bracket(x, y):
    """Super bracket of two term dicts {key: coefficient}, as a term dict
    that may still hold zeros and integral Fractions."""
    out = {}
    for k1, c1 in x.items():
        if k1 == CENTRAL:
            continue
        for k2, c2 in y.items():
            if k2 == CENTRAL:
                continue
            c = c1 * c2
            for key, b in _basis_bracket(k1[0], k1[1], k2[0], k2[1]).items():
                out[key] = out.get(key, 0) + b * c
    return out


def mode_bracket(x, y):
    """Super bracket of two (bilinear combinations of) basis modes."""
    return _algebra_vector(_bracket(x.terms, y.terms))


def _jacobi_sum(outer, inner, odd):
    """The sum of (-1)^odd[i] [outer[i], inner[i]] over the three cyclic
    terms of the graded Jacobi identity, on term dicts, normalised."""
    out = {}
    for a, bc, odd_sign in zip(outer, inner, odd):
        for key, v in _bracket(a, bc).items():
            out[key] = out.get(key, 0) + (-v if odd_sign else v)
    return _algebra_vector(out)


def jacobi_residual(x, y, z):
    """(-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]]
    for homogeneous vectors; zero iff the graded Jacobi identity holds.
    The brackets nest on term dicts, and only the sum is normalised."""
    px, py, pz = x.parity(), y.parity(), z.parity()
    x, y, z = x.terms, y.terms, z.terms
    return _jacobi_sum((x, y, z), (_bracket(y, z), _bracket(z, x),
                                   _bracket(x, y)),
                       (px * pz, py * px, pz * py))


def jacobi_residuals(xs, ys, zs):
    """``jacobi_residual(x, y, z)`` for (x, y, z) in
    ``itertools.product(xs, ys, zs)``, in that order.  Each inner bracket
    [y,z], [z,x] and [x,y] is taken once per pair and each parity once per
    vector, not once per triple."""
    px, py, pz = ([v.parity() for v in vs] for vs in (xs, ys, zs))
    xs, ys, zs = ([v.terms for v in vs] for vs in (xs, ys, zs))
    yz = [[_bracket(y, z) for z in zs] for y in ys]
    zx = [[_bracket(z, x) for z in zs] for x in xs]
    for i, x in enumerate(xs):
        xy = [_bracket(x, y) for y in ys]
        for j, y in enumerate(ys):
            for k, z in enumerate(zs):
                yield _jacobi_sum((x, y, z), (yz[j][k], zx[i][k], xy[j]),
                                  (px[i] * pz[k], py[j] * px[i],
                                   pz[k] * py[j]))


# ---------------------------------------------------------------------------
# realization by super vector fields on C[t, t^-1, zeta]
# ---------------------------------------------------------------------------
#
# Monomials are (a, e) <-> t^a zeta^e with e in {0, 1}.
#
# L_n = -t^{n+1} d_t - (n+1) t^n zeta d_zeta
# J_n = -t^n zeta d_zeta
# Q_n = -t^{n+1} d_zeta
# H_n = t^n zeta d_t
# C   = 0

def _act(gen, n, a, e):
    """The super vector field of the basis mode (gen, n) on t^a zeta^e, as
    (integer coefficient, monomial), or None where it vanishes."""
    if gen == "L":
        coeff = -a if e == 0 else -a - (n + 1)
        return (coeff, (a + n, e)) if coeff else None
    if gen == "J":
        return (-1, (a + n, 1)) if e == 1 else None
    if gen == "Q":
        return (-1, (a + n + 1, 0)) if e == 1 else None
    if gen == "H":
        return (a, (a + n - 1, 1)) if e == 0 and a != 0 else None
    raise ValueError(f"unknown generator {gen!r}")


def _apply_vector(vec, stack):
    """Apply the realization of an AlgebraVector (C acts as zero) to a
    stack {(source, (a, e)): coeff} of polynomials, one per source."""
    out = {}
    for key, c in vec.terms.items():
        if key == CENTRAL:
            continue
        gen, n = key
        for (src, (a, e)), pc in stack.items():
            hit = _act(gen, n, a, e)
            if hit is not None:
                k = (src, hit[1])
                out[k] = out.get(k, 0) + c * pc * hit[0]
    return out


def _test_stack():
    """The test monomials t^a zeta^e (|a| <= 6) of ``homomorphism_residual``
    as one stack keyed by (source monomial, monomial)."""
    return {((a, e), (a, e)): 1 for a in range(-6, 7) for e in (0, 1)}


def _homomorphism_gap(x, y, stack, dx, dy, odd):
    """[D_x, D_y] - D_[x,y] on ``stack``, with C sent to zero, as
    {key: difference}; ``dx`` and ``dy`` are D_x(stack) and D_y(stack) and
    ``odd`` is |x||y|, so [D_x, D_y] = D_x D_y - (-1)^odd D_y D_x."""
    gap = _apply_vector(x, dy)
    for k, v in _apply_vector(y, dx).items():
        gap[k] = gap.get(k, 0) + (v if odd else -v)
    for k, v in _apply_vector(mode_bracket(x, y), stack).items():
        gap[k] = gap.get(k, 0) - v
    return gap


def homomorphism_residual(x, y):
    """Max deviation (exact) between [D_x, D_y] and the realization of
    [x, y] with C sent to zero, over the test monomials t^a zeta^e
    (|a| <= 6), all applied at once as one stack keyed by (source
    monomial, monomial)."""
    stack = _test_stack()
    gap = _homomorphism_gap(x, y, stack, _apply_vector(x, stack),
                            _apply_vector(y, stack), x.parity() * y.parity())
    return max(map(abs, gap.values()), default=0)


def homomorphism_residuals(xs, ys):
    """``homomorphism_residual(x, y)`` for (x, y) in
    ``itertools.product(xs, ys)``, in that order, with D_v(stack) and the
    parity of each vector computed once, not once per pair."""
    stack = _test_stack()
    xs, ys = ([(v, _apply_vector(v, stack), v.parity()) for v in vs]
              for vs in (xs, ys))
    for x, dx, px in xs:
        for y, dy, py in ys:
            gap = _homomorphism_gap(x, y, stack, dx, dy, px * py)
            yield max(map(abs, gap.values()), default=0)


# ---------------------------------------------------------------------------
# flatness residues for the family connection
# ---------------------------------------------------------------------------

def nabla_operator(f):
    """For a Laurent polynomial f = {a: coeff}, the mode-algebra element
    Res_t f(t) (L(t) + d_t J(t)) = sum_a f_a (L_{a-1} - a J_{a-1})."""
    out = {}
    for a, c in f.items():
        c = _exact(c)
        out[("L", a - 1)] = c
        out[("J", a - 1)] = -a * c
    return AlgebraVector(out)


def current_operator(g):
    """Res_t g(t) J(t) = sum_b g_b J_b."""
    return AlgebraVector({("J", b): c for b, c in g.items()})


def nabla_commutator(f, g):
    """The commutator [Res f (L + dJ), Res g J] computed two ways.

    Returns ``(direct, residue)``: ``direct`` expands the bracket in modes;
    ``residue`` extracts the same element from the operator product
    expansion

        delta(t,t') d'J(t') + J(t') d'delta(t,t') - (C/6) d'^2 delta(t,t')

    by taking residues in t and t' against f(t) g(t') with the formal delta
    function sum_n t^n t'^{-1-n}.  The residue in t keeps the one term
    n = -1 - a of each t^a, so the sum needs no truncation.  The central
    term carries the coefficient C/6 (the normalization that reproduces the
    mode brackets).
    """
    direct = mode_bracket(nabla_operator(f), current_operator(g))
    residue = {}
    for a, fa in f.items():
        for b, gb in g.items():
            coeff = _exact(fa) * _exact(gb)
            # delta(t,t') contributes t^n t'^{-1-n}; only n = -1 - a
            # survives the residue in t
            n = -1 - a
            p = a + b - 1
            # term 1: delta * d'J: Res_{t'} t'^b t'^{-1-n} d'J(t') gives
            # -(1 + p) J_p; term 2: J(t') d'delta gives (-1 - n) J_p
            residue[("J", p)] = residue.get(("J", p), 0) + \
                coeff * (-(1 + p) - 1 - n)
            # term 3: -(C/6) d'^2 delta
            if b - 2 == n:
                residue[CENTRAL] = residue.get(CENTRAL, 0) + \
                    coeff * _ratio(-(n + 1) * (n + 2), 6)
    return direct, AlgebraVector(residue)


# ---------------------------------------------------------------------------
# GL(1|1) matrices
# ---------------------------------------------------------------------------

def gl11_generators():
    """The 2x2 matrices representing J_0, Q_0, H_0, L_0."""
    J0 = SuperMatrix([[0, 0], [0, -1]])
    Q0 = SuperMatrix([[0, -1], [0, 0]])
    H0 = SuperMatrix([[0, 0], [1, 0]])
    L0 = SuperMatrix([[-1, 0], [0, -1]])
    return J0, Q0, H0, L0


def gl11_group_element(q, y):
    """The group element exp(eps H_0) exp(-2 pi i alpha J_0)
    exp(-2 pi i tau L_0) exp(-delta Q_0), assembled from the nilpotent
    exponentials and the diagonal factors exp(-2 pi i alpha J_0) = diag(1, y),
    exp(-2 pi i tau L_0) = q * Id.  Equals q [[1, delta], [eps, y + eps delta]].
    """
    _, Q0, H0, _ = gl11_generators()
    f1 = exp_nilpotent(H0 * EPS)
    f2 = SuperMatrix([[1, 0], [0, y]])
    f3 = SuperMatrix([[q, 0], [0, q]])
    f4 = exp_nilpotent(Q0 * -DELTA)
    return f1 * f2 * f3 * f4


def action_matrix(delta_wt, charge, odd_parity, q, y):
    """The 2x2 matrix of the group action on a weight/charge (Delta, c)
    vector pair, with sign s = +1 for even parity and -1 for odd:

        q^{-Delta} y^{-(c+1)} [[y + Delta eps delta, s Delta eps], [s delta, 1]].
    """
    s = -1 if odd_parity else 1
    q, y = (Fraction(x) if isinstance(x, int) else x for x in (q, y))
    scale = q ** -delta_wt * y ** -(charge + 1)
    m = SuperMatrix([
        [GrassmannNumber(y) + EPS * DELTA * delta_wt, EPS * (s * delta_wt)],
        [DELTA * s, 1],
    ])
    return m * scale


def action_factors(delta_wt, charge, odd_parity, q, y):
    """The factored form of ``action_matrix``: a scalar q^{-Delta}, an upper
    unipotent factor, a diagonal y-charge factor, and a lower unipotent
    factor, whose product equals the assembled matrix."""
    s = -1 if odd_parity else 1
    upper = SuperMatrix([[1, EPS * (s * delta_wt)], [0, 1]])
    q, y = (Fraction(x) if isinstance(x, int) else x for x in (q, y))
    diag = SuperMatrix([[y ** -charge, 0], [0, y ** -(charge + 1)]])
    lower = SuperMatrix([[1, 0], [DELTA * s, 1]])
    return q ** -delta_wt, upper, diag, lower


def coordinate_matrix(q, y):
    """The coordinate-change matrix q [[1, eps], [delta, y - eps delta]];
    its Berezinian is exactly y^{-1}."""
    m = SuperMatrix([[1, EPS], [DELTA, GrassmannNumber(y) - EPS * DELTA]])
    return m * q


# ---------------------------------------------------------------------------
# second-order jets
# ---------------------------------------------------------------------------

JET_KEYS = ("Ft", "Fz", "Pt", "Pz", "Ftt", "Ftz", "Ptt", "Ptz")


def _first_order(ft, fz, pt, pz):
    """The first-order jet coordinates (q, eps0, delta0, y) from Ft, Fz, Pt
    and Pz, followed by 1/Ft."""
    ft_inv = ft.inverse()
    eps0 = -fz * ft_inv
    delta0 = pt * ft_inv
    y = pz * ft_inv - fz * pt * ft_inv * ft_inv
    return ft, eps0, delta0, y, ft_inv


def solve_jet(jets):
    """Solve the first- and second-order jet relations for the coordinates
    (q, eps0, delta0, y; tau1, alpha1, eps1, delta1) of a superconformal
    2-jet given the derivatives of the even coordinate F and the odd
    coordinate Psi at the base point.

    ``jets`` maps the keys Ft, Fz, Pt, Pz, Ftt, Ftz, Ptt, Ptz to Grassmann
    numbers (F* even/odd as dictated by the parity of F and the derivative).
    """
    g = {k: GrassmannNumber._coerce(jets[k]) for k in JET_KEYS}
    pt, pz = g["Pt"], g["Pz"]
    q, eps0, delta0, y, ft_inv = _first_order(g["Ft"], g["Fz"], pt, pz)
    pz_inv = pz.inverse()
    r1 = g["Ftt"] * ft_inv * 0.5
    r2 = g["Ftz"] * ft_inv
    r3 = g["Ptt"] * 0.5
    r4 = g["Ptz"]
    tau1 = (r1 - eps0 * r3 * pz_inv) * \
        (GrassmannNumber(1.0) - eps0 * pt * pz_inv).inverse()
    delta1 = (r3 - pt * tau1) * pz_inv
    a = (r4 - pt * r2) * (pz - pt * eps0).inverse()
    eps1 = r2 - eps0 * a
    alpha1 = a - tau1 * 2.0
    return {"q": q, "eps0": eps0, "delta0": delta0, "y": y,
            "tau1": tau1, "alpha1": alpha1, "eps1": eps1, "delta1": delta1}


def jet_from_params(params):
    """Inverse of ``solve_jet``: build the eight derivative entries from the
    jet coordinates."""
    q = GrassmannNumber._coerce(params["q"])
    y = GrassmannNumber._coerce(params["y"])
    e0 = GrassmannNumber._coerce(params["eps0"])
    d0 = GrassmannNumber._coerce(params["delta0"])
    t1 = GrassmannNumber._coerce(params["tau1"])
    a1 = GrassmannNumber._coerce(params["alpha1"])
    e1 = GrassmannNumber._coerce(params["eps1"])
    d1 = GrassmannNumber._coerce(params["delta1"])
    ymix = y - e0 * d0
    a_tot = a1 + t1 * 2.0
    return {
        "Ft": q,
        "Fz": -(q * e0),
        "Pt": q * d0,
        "Pz": q * ymix,
        "Ftt": q * (t1 + e0 * d1) * 2.0,
        "Ftz": q * (e0 * a_tot + e1),
        "Ptt": q * (d0 * t1 + ymix * d1) * 2.0,
        "Ptz": q * (d0 * e1 + ymix * a_tot),
    }


def jet_matrix_identity_residual(jets):
    """Residual of the first-order identity

        (q/y) [[1, eps0], [delta0, y - eps0 delta0]]
            = Ber(rho) [[Ft, -Fz], [Pt, Pz]]

    where rho = [[Ft, Pt], [Fz, Pz]] is the jet coordinate matrix.

    With (q, eps0, delta0, y) from the first-order solve, both sides reduce
    to y^{-1} [[Ft, -Fz], [Pt, Pz]] for *any* Ft, Fz, Pt, Pz with invertible
    Ft and Pz and with Fz Pt squaring to zero (Fz or Pt odd), since
    y - eps0 delta0 = Pz/Ft and Ber(rho) = Ft/Pz + Fz Pt/Pz^2 = 1/y.  So the
    identity checks the solve against the Berezinian's ordering of the odd
    entries (C*B), not the jet data: a scaled Pz or an Fz with a body still
    reads zero, while a Berezinian that takes B*C does not."""
    ft, fz, pt, pz = (GrassmannNumber._coerce(jets[k]) for k in JET_KEYS[:4])
    q, eps0, delta0, y, _ = _first_order(ft, fz, pt, pz)
    qy = q * y.inverse()
    lhs = _supermatrix([[qy, eps0 * qy],
                        [delta0 * qy, (y - eps0 * delta0) * qy]])
    rho = _supermatrix([[ft, pt], [fz, pz]])
    rhs = _supermatrix([[ft, -fz], [pt, pz]]) * berezinian(rho)
    return lhs.distance(rhs)
