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

import cmath
from fractions import Fraction

from .grassmann import (DELTA, EPS, GrassmannNumber, SuperMatrix, berezinian,
                        exp_nilpotent)

EVEN_GENERATORS = {"L", "J", "C"}
ODD_GENERATORS = {"Q", "H"}
CENTRAL = ("C",)


def parity(gen):
    if gen in EVEN_GENERATORS:
        return 0
    if gen in ODD_GENERATORS:
        return 1
    raise ValueError(f"unknown generator {gen!r}")


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

    @classmethod
    def basis(cls, gen, mode=None, coeff=1):
        key = CENTRAL if gen == "C" else (gen, int(mode))
        return cls({key: coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return AlgebraVector(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return AlgebraVector(out)

    def __neg__(self):
        return AlgebraVector({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        scalar = _exact(scalar)
        return AlgebraVector({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraVector):
            return NotImplemented
        return self.terms == other.terms

    def is_homogeneous(self):
        parities = {parity(k[0]) for k in self.terms}
        return len(parities) <= 1

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


def L(m, coeff=1):
    return AlgebraVector.basis("L", m, coeff)


def J(m, coeff=1):
    return AlgebraVector.basis("J", m, coeff)


def Q(m, coeff=1):
    return AlgebraVector.basis("Q", m, coeff)


def H(m, coeff=1):
    return AlgebraVector.basis("H", m, coeff)


def C(coeff=1):
    return AlgebraVector({CENTRAL: coeff})


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


def mode_bracket(x, y):
    """Super bracket of two (bilinear combinations of) basis modes."""
    out = {}
    for k1, c1 in x.terms.items():
        if k1 == CENTRAL:
            continue
        for k2, c2 in y.terms.items():
            if k2 == CENTRAL:
                continue
            c = c1 * c2
            for key, b in _basis_bracket(k1[0], k1[1], k2[0], k2[1]).items():
                out[key] = out.get(key, 0) + b * c
    return AlgebraVector(out)


def jacobi_residual(x, y, z):
    """(-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]]
    for homogeneous vectors; zero iff the graded Jacobi identity holds."""
    px, py, pz = x.parity(), y.parity(), z.parity()
    out = {}
    for a, b, c, odd_sign in ((x, y, z, px * pz), (y, z, x, py * px),
                              (z, x, y, pz * py)):
        for key, v in mode_bracket(a, mode_bracket(b, c)).terms.items():
            out[key] = out.get(key, 0) + (-v if odd_sign else v)
    return AlgebraVector(out)


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

def realize_basis(gen, n=0):
    """The super vector field for one basis mode, as a function from a
    monomial (a, e) to a list of (integer coefficient, monomial) pairs."""
    if gen == "C":
        return lambda a, e: []
    if gen == "L":
        def op(a, e):
            coeff = -a if e == 0 else -a - (n + 1)
            return [(coeff, (a + n, e))] if coeff else []
        return op
    if gen == "J":
        return lambda a, e: ([(-1, (a + n, 1))] if e == 1 else [])
    if gen == "Q":
        return lambda a, e: ([(-1, (a + n + 1, 0))] if e == 1 else [])
    if gen == "H":
        return lambda a, e: ([(a, (a + n - 1, 1))]
                             if (e == 0 and a != 0) else [])
    raise ValueError(f"unknown generator {gen!r}")


def _apply_vector(vec, poly):
    """Apply the realization of an AlgebraVector to a polynomial
    {(a, e): coeff}."""
    out = {}
    for (gen, *n), c in vec.terms.items():
        op = realize_basis(gen, *n)
        for (a, e), pc in poly.items():
            for oc, mono in op(a, e):
                out[mono] = out.get(mono, 0) + c * pc * oc
    return {k: v for k, v in out.items() if v != 0}


def realization_commutator(x, y, poly):
    """[D_x, D_y] applied to ``poly`` with the super sign
    D_x D_y - (-1)^{|x||y|} D_y D_x (x, y homogeneous)."""
    sign = (-1) ** (x.parity() * y.parity())
    first = _apply_vector(x, _apply_vector(y, poly))
    second = _apply_vector(y, _apply_vector(x, poly))
    out = dict(first)
    for k, v in second.items():
        out[k] = out.get(k, 0) - sign * v
    return {k: v for k, v in out.items() if v != 0}


def homomorphism_residual(x, y, monomials=None):
    """Max deviation (exact) between [D_x, D_y] and the realization of
    [x, y] with C sent to zero, over test monomials."""
    if monomials is None:
        monomials = [(a, e) for a in range(-6, 7) for e in (0, 1)]
    bracket = mode_bracket(x, y)
    bracket = AlgebraVector({k: c for k, c in bracket.terms.items()
                             if k != CENTRAL})
    worst = 0
    for mono in monomials:
        poly = {mono: 1}
        lhs = realization_commutator(x, y, poly)
        rhs = _apply_vector(bracket, poly)
        for k in set(lhs) | set(rhs):
            worst = max(worst, abs(lhs.get(k, 0) - rhs.get(k, 0)))
    return worst


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


def nabla_commutator(f, g, truncation=None):
    """The commutator [Res f (L + dJ), Res g J] computed two ways.

    Returns ``(direct, residue)``: ``direct`` expands the bracket in modes;
    ``residue`` extracts the same element from the operator product
    expansion

        delta(t,t') d'J(t') + J(t') d'delta(t,t') - (C/6) d'^2 delta(t,t')

    by taking residues in t and t' against f(t) g(t') with the formal delta
    function truncated at |n| <= truncation.  The central term carries the
    coefficient C/6 (the normalization that reproduces the mode brackets).
    """
    direct = mode_bracket(nabla_operator(f), current_operator(g))
    if truncation is None:
        spread = max((abs(a) for a in f), default=0) + \
            max((abs(b) for b in g), default=0)
        truncation = spread + 3
    residue = {}
    for a, fa in f.items():
        for b, gb in g.items():
            coeff = _exact(fa) * _exact(gb)
            # delta(t,t') contributes t^n t'^{-1-n}; only n = -1 - a
            # survives the residue in t
            n = -1 - a
            if abs(n) > truncation:
                continue
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


def gl11_group_element(q, y, eps=EPS, delta=DELTA):
    """The group element exp(eps H_0) exp(-2 pi i alpha J_0)
    exp(-2 pi i tau L_0) exp(-delta Q_0), assembled from the nilpotent
    exponentials and the diagonal factors exp(-2 pi i alpha J_0) = diag(1, y),
    exp(-2 pi i tau L_0) = q * Id.  Equals q [[1, delta], [eps, y + eps delta]].
    """
    J0, Q0, H0, _ = gl11_generators()
    f1 = exp_nilpotent(H0 * eps)
    f2 = SuperMatrix([[1, 0], [0, y]])
    f3 = SuperMatrix([[q, 0], [0, q]])
    f4 = exp_nilpotent(Q0 * (-GrassmannNumber._coerce(delta)))
    return f1 * f2 * f3 * f4


def _sign(odd_parity):
    return -1.0 if odd_parity else 1.0


def _cpow(base, expo):
    base = complex(base)
    return cmath.exp(expo * cmath.log(base))


def action_matrix(delta_wt, charge, odd_parity, q, y, eps=EPS, delta=DELTA):
    """The 2x2 matrix of the group action on a weight/charge (Delta, c)
    vector pair, with sign s = +1 for even parity and -1 for odd:

        q^{-Delta} y^{-(c+1)} [[y + Delta eps delta, s Delta eps], [s delta, 1]].
    """
    s = _sign(odd_parity)
    scale = _cpow(q, -delta_wt) * _cpow(y, -(charge + 1))
    m = SuperMatrix([
        [GrassmannNumber(y) + eps * delta * delta_wt, eps * (s * delta_wt)],
        [delta * s, GrassmannNumber(1.0)],
    ])
    return m * scale


def action_factors(delta_wt, charge, odd_parity, q, y, eps=EPS, delta=DELTA):
    """The factored form of ``action_matrix``: a scalar q^{-Delta}, an upper
    unipotent factor, a diagonal y-charge factor, and a lower unipotent
    factor, whose product equals the assembled matrix."""
    s = _sign(odd_parity)
    upper = SuperMatrix([[1, eps * (s * delta_wt)], [0, 1]])
    diag = SuperMatrix([[_cpow(y, -charge), 0],
                        [0, _cpow(y, -(charge + 1))]])
    lower = SuperMatrix([[1, 0], [delta * s, 1]])
    return _cpow(q, -delta_wt), upper, diag, lower


def section_matrix(delta_wt, charge, odd_parity, q, y, eps=EPS, delta=DELTA):
    """The matrix acting on section coefficients:
    q^{-Delta} y^{-(c+2)} [[y + Delta eps delta, s eps], [s delta, 1]]."""
    s = _sign(odd_parity)
    scale = _cpow(q, -delta_wt) * _cpow(y, -(charge + 2))
    m = SuperMatrix([
        [GrassmannNumber(y) + eps * delta * delta_wt, eps * s],
        [delta * s, GrassmannNumber(1.0)],
    ])
    return m * scale


def coordinate_matrix(q, y, eps=EPS, delta=DELTA):
    """The coordinate-change matrix q [[1, eps], [delta, y - eps delta]];
    its Berezinian is exactly y^{-1}."""
    m = SuperMatrix([
        [GrassmannNumber(1.0), eps],
        [delta, GrassmannNumber(y) - eps * delta],
    ])
    return m * q


def invariant_conjugation_residual(m, q, y, eps=EPS, delta=DELTA):
    """Residual of P^{-1} M P = M for the unscaled coordinate-change matrix
    P = [[1, eps], [delta, y - eps delta]]; zero iff M is fixed by the
    linear action on vectors."""
    p = SuperMatrix([
        [GrassmannNumber(1.0), eps],
        [delta, GrassmannNumber(y) - eps * delta],
    ])
    conj = p.inverse() * m * p
    return conj.distance(m)


# ---------------------------------------------------------------------------
# second-order jets
# ---------------------------------------------------------------------------

JET_KEYS = ("Ft", "Fz", "Pt", "Pz", "Ftt", "Ftz", "Ptt", "Ptz")


def solve_jet(jets):
    """Solve the first- and second-order jet relations for the coordinates
    (q, eps0, delta0, y; tau1, alpha1, eps1, delta1) of a superconformal
     2-jet given the derivatives of the even coordinate F and the odd
    coordinate Psi at the base point.

    ``jets`` maps the keys Ft, Fz, Pt, Pz, Ftt, Ftz, Ptt, Ptz to Grassmann
    numbers (F* even/odd as dictated by the parity of F and the derivative).
    """
    g = {k: GrassmannNumber._coerce(jets[k]) for k in JET_KEYS}
    ft, fz, pt, pz = g["Ft"], g["Fz"], g["Pt"], g["Pz"]
    q = ft
    ft_inv = ft.inverse()
    eps0 = -fz * ft_inv
    delta0 = pt * ft_inv
    y = pz * ft_inv - fz * pt * ft_inv * ft_inv
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


def rho_jet_matrix(jets, central):
    """The 3x3 matrix of the 2-jet acting on the span of the vacuum and the
    weight-one states (h, j):

        [[1, (C/3) delta1, (C/3)(alpha1 + tau1)],
         [0, q/y,          (q/y) eps0          ],
         [0, (q/y) delta0, q (1 - eps0 delta0 / y)]]

    Returns (matrix, params).
    """
    p = solve_jet(jets)
    q, y = p["q"], p["y"]
    y_inv = y.inverse()
    qy = q * y_inv
    c3 = central / 3.0
    m = SuperMatrix([
        [GrassmannNumber(1.0), p["delta1"] * c3, (p["alpha1"] + p["tau1"]) * c3],
        [GrassmannNumber(0.0), qy, qy * p["eps0"]],
        [GrassmannNumber(0.0), qy * p["delta0"],
         q * (GrassmannNumber(1.0) - y_inv * p["eps0"] * p["delta0"])],
    ])
    return m, p


def jet_matrix_identity_residual(jets):
    """Residual of the first-order identity

        (q/y) [[1, eps0], [delta0, y - eps0 delta0]]
            = Ber(rho) [[Ft, -Fz], [Pt, Pz]]

    where rho = [[Ft, Pt], [Fz, Pz]] is the jet coordinate matrix."""
    g = {k: GrassmannNumber._coerce(jets[k]) for k in JET_KEYS[:4]}
    p = solve_jet({**jets})
    q, y = p["q"], p["y"]
    qy = q * y.inverse()
    lhs = SuperMatrix([
        [GrassmannNumber(1.0), p["eps0"]],
        [p["delta0"], y - p["eps0"] * p["delta0"]],
    ]) * qy
    rho = SuperMatrix([[g["Ft"], g["Pt"]], [g["Fz"], g["Pz"]]])
    rhs = SuperMatrix([
        [g["Ft"], -g["Fz"]],
        [g["Pt"], g["Pz"]],
    ]) * berezinian(rho)
    return lhs.distance(rhs)
