import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from superchar import characters, checks
from superchar.characters import (
    EvenLattice, chi_character, count_vectors_by_norm, cusp_certificate,
    cusp_class, cusp_grid_check, cusp_predicate, e8_lattice, fock_oracle,
    fock_weighted_trace, integer_determinant, jacobi_triple_product,
    lattice_theta, super_cusp_predicate,
)
from superchar.jacobi_forms import eisenstein_e4
from superchar.series_core import Prefactor, QYSeries

# sigma_3(1..8): E8 shell counts are 240 sigma_3(n)
SIGMA3 = [1, 9, 28, 73, 126, 252, 344, 585]
A2 = [[2, -1], [-1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def simply_laced(n, edges):
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return gram


# D8: rank 8 like E8, but det 4 and 112 roots, so its theta is not E4
D8 = simply_laced(8, [(k, k + 1) for k in range(6)] + [(5, 7)])


def block_diagonal(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for g in grams:
        for i, row in enumerate(g):
            out[offset + i][offset:offset + len(g)] = row
        offset += len(g)
    return out


def e8_power(k):
    return EvenLattice(block_diagonal(*[e8_lattice().gram] * k))


def skewed_e8():
    """E8 in the basis U^T G U, U = 1 + (ones on the superdiagonal): a
    unimodular change of basis that leaves no block structure."""
    g = e8_lattice().gram
    u = [[int(j in (i, i + 1)) for j in range(8)] for i in range(8)]
    return EvenLattice([[sum(u[k][i] * g[k][l] * u[l][j]
                             for k in range(8) for l in range(8))
                         for j in range(8)] for i in range(8)])


def d_plus(n):
    """D_n^+ for 8 | n: D_n and the glue vector (1/2, ..., 1/2), in the
    basis (1/2)(1, -1, ..., -1, 1), e1 + e2, e_{i+1} - e_i."""
    glue = [Fraction(1, 2)] + [Fraction(-1, 2)] * (n - 2) + [Fraction(1, 2)]
    basis = [glue, [1, 1] + [0] * (n - 2)] + \
        [[0] * i + [-1, 1] + [0] * (n - 2 - i) for i in range(n - 2)]
    return EvenLattice([[int(sum(a * b for a, b in zip(x, y)))
                         for y in basis] for x in basis])


def inverse_matrix(gram):
    """G^-1 over the rationals, by Gauss-Jordan elimination."""
    n = len(gram)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def e8_weight_basis():
    """E8 in the basis of its fundamental weights (E8 is its own dual), so
    the Gram matrix is the inverse Cartan matrix, whose diagonal entries
    run up to 30: far from reduced."""
    return EvenLattice(inverse_matrix(e8_lattice().gram))


def brute_force_counts(gram, max_norm):
    """Vector counts by norm over every integer vector of the box
    |v_i| <= sqrt(2 max_norm (G^-1)_ii), which holds all vectors of norm at
    most max_norm (Cauchy-Schwarz against the dual basis), with exact
    integer norms."""
    inv = inverse_matrix(gram)
    box = itertools.product(*(range(-b, b + 1) for b in (
        math.isqrt(int(2 * max_norm * inv[i][i])) for i in range(len(gram)))))
    g = np.array(gram, dtype=np.int64)
    counts = np.zeros(max_norm + 1, dtype=np.int64)
    while chunk := list(itertools.islice(box, 1 << 16)):
        v = np.array(chunk, dtype=np.int64)
        norms = np.einsum("ij,jk,ik->i", v, g, v) // 2
        counts += np.bincount(norms[norms <= max_norm],
                              minlength=max_norm + 1)
    return [int(c) for c in counts]


class TestEvenLattice:
    def test_e8_properties(self):
        lat = e8_lattice()
        assert lat.rank == 8
        assert lat.determinant() == 1

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            EvenLattice([[1]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            EvenLattice([[2, 1], [0, 2]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            EvenLattice([[2, 3], [3, 2]])

    @pytest.mark.parametrize("entry", [0.5, math.inf, math.nan, "2"])
    def test_rejects_non_integral_entries(self, entry):
        with pytest.raises(ValueError):
            EvenLattice([[2, entry], [entry, 2]])

    def test_accepts_integral_floats(self):
        assert EvenLattice([[2.0, -1.0], [-1.0, 2.0]]).gram == A2

    @pytest.mark.parametrize("lattice, det", [
        (e8_lattice(), 1), (e8_power(3), 1), (d_plus(24), 1),
        (EvenLattice(A2), 3), (EvenLattice(D4), 4), (EvenLattice(D8), 4),
    ], ids=["E8", "E8^3", "D24+", "A2", "D4", "D8"])
    def test_determinant(self, lattice, det):
        assert lattice.determinant() == det
        assert lattice.is_unimodular() == (det == 1)

    def test_determinant_swaps_zero_pivot(self):
        assert integer_determinant([[0, 1], [1, 0]]) == -1
        assert integer_determinant([[0, 2, 1], [1, 0, 0], [0, 0, 3]]) == -6
        assert integer_determinant([[0, 1], [0, 2]]) == 0
        assert integer_determinant([]) == 1

    def test_json_round_trip(self):
        lat = EvenLattice([[2, -1], [-1, 2]])
        back = EvenLattice.from_json(
            json.dumps({"rank": lat.rank, "gram": lat.gram}))
        assert back.rank == 2
        assert back.gram == lat.gram


class TestVectorCounts:
    def test_e8_shells(self):
        counts = count_vectors_by_norm(e8_lattice(), 8)
        assert counts[0] == 1
        for n, s in enumerate(SIGMA3, start=1):
            assert counts[n] == 240 * s

    def test_a1(self):
        # gram [[2]]: vectors m with m^2 = n
        counts = count_vectors_by_norm(EvenLattice([[2]]), 9)
        assert counts == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]

    def test_a2(self):
        counts = count_vectors_by_norm(
            EvenLattice([[2, -1], [-1, 2]]), 7)
        assert counts == [1, 6, 0, 6, 6, 0, 0, 12]

    def test_theta_is_e4_for_e8(self):
        counts = count_vectors_by_norm(e8_lattice(), 10)
        e4 = eisenstein_e4(10)
        assert counts == [e4.exact_coeff(n) for n in range(11)]

    @pytest.mark.parametrize("lattice, max_norm", [
        (EvenLattice([[2]]), 30), (EvenLattice(A2), 12),
        (EvenLattice(D4), 5), (e8_weight_basis(), 2),
        (EvenLattice([[4, 1], [1, 4]]), 20),
    ], ids=["A1", "A2", "D4", "E8-weight-basis", "4-1-1-4"])
    def test_matches_brute_force_box(self, lattice, max_norm):
        assert count_vectors_by_norm(lattice, max_norm) == \
            brute_force_counts(lattice.gram, max_norm)

    def test_sliced_frontier_gives_the_same_counts(self, monkeypatch):
        want = {n: count_vectors_by_norm(lat, n)
                for lat, n in ((e8_lattice(), 4), (EvenLattice(D4), 20))}
        calls = []
        real = characters._count_half

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(characters, "_FRONTIER_CAP", 8)
        monkeypatch.setattr(characters, "_count_half", counted)
        assert count_vectors_by_norm(e8_lattice(), 4) == want[4]
        assert count_vectors_by_norm(EvenLattice(D4), 20) == want[20]
        # two root calls, and every other call is a slice
        assert len(calls) > 100

    @pytest.mark.parametrize("lattice, n_q", [
        (e8_lattice(), 10), (skewed_e8(), 6), (e8_power(2), 2),
        (e8_power(3), 1), (EvenLattice(D8), 4), (d_plus(16), 1),
        (EvenLattice(block_diagonal(A2, e8_lattice().gram)), 4),
        (e8_lattice(), 0), (e8_lattice(), 1),
    ], ids=["E8-q10", "skewed-E8-q6", "E8^2-q2", "E8^3-q1", "D8-q4",
            "D16+-q1", "A2+E8-q4", "E8-q0", "E8-q1"])
    def test_theta_matches_enumeration(self, lattice, n_q):
        th = lattice_theta(lattice, n_q)
        counts = count_vectors_by_norm(lattice, n_q)
        assert th.q_order == n_q
        assert th.coeffs == {(n, 0): c for n, c in enumerate(counts) if c}

    def test_e8_summands_need_no_enumeration(self, monkeypatch):
        # below rank 24 the E4/Delta path needs only the zero vector's count
        def refuse(lattice, max_norm):
            raise AssertionError(f"enumerated rank {lattice.rank}")

        monkeypatch.setattr(characters, "count_vectors_by_norm", refuse)
        assert lattice_theta(e8_lattice(), 6) == eisenstein_e4(6)
        assert lattice_theta(e8_power(2), 6) == eisenstein_e4(6) ** 2

    def test_theta_of_d24_plus_has_a_delta_term(self):
        # Theta = E4^3 + (1104 - 720) Delta.  Independent counts: norm 2,
        # 48 vectors (+-2, 0^23) and 16 C(24, 4) of shape (+-1^4, 0^20);
        # norm 3, 24 * 8 C(23, 2) of shape (+-2, +-1^2), 64 C(24, 6) of
        # shape (+-1^6) and 2^23 glue vectors (+-1/2)^24
        lat = d_plus(24)
        assert count_vectors_by_norm(lat, 1) == [1, 1104]
        th = lattice_theta(lat, 3)
        assert [th.exact_coeff(n) for n in range(4)] == [
            1, 1104, 48 + 16 * 10626, 24 * 8 * 253 + 64 * 134596 + 2 ** 23]


class TestCharacter:
    def test_product_vs_closed(self):
        # eta^{-C} has the integral q-offset -r/16 for r = 16 and 24: a
        # closed form that folded it into the mantissa would lose a row
        for lattice, n_q in [(e8_lattice(), 10), (e8_power(2), 25),
                             (d_plus(16), 25), (e8_power(3), 25)]:
            prod = chi_character(lattice, n_q, "product")
            closed = chi_character(lattice, n_q, "closed")
            assert closed.chi.q_offset == 0
            assert prod.chi == closed.chi, lattice.rank

    def test_closed_offset_must_cancel(self, monkeypatch):
        # theta with the q-offset 1/4 in place of 1/8 leaves r/16 uncancelled
        theta = characters.theta_offset_series
        eighth = Prefactor(c=Fraction(1, 8))
        monkeypatch.setattr(characters, "theta_offset_series",
                            lambda n_q: theta(n_q) * eighth)
        with pytest.raises(ValueError, match="has not cancelled"):
            chi_character(e8_lattice(), 4, "closed")

    def test_metadata(self):
        cs = chi_character(e8_lattice(), 4, "product")
        assert cs.central_charge == 12
        assert cs.index == 2

    def test_closed_requires_rank_multiple_of_8(self):
        with pytest.raises(ValueError):
            chi_character(EvenLattice([[2, -1], [-1, 2]]), 4, "closed")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            chi_character(e8_lattice(), 4, "nope")

    def test_fock_oracle_takes_the_vector_counts(self):
        lat = e8_lattice()
        counts = count_vectors_by_norm(lat, 3)
        assert fock_oracle(lat, 3, counts=counts).coeffs == \
            fock_oracle(lat, 3).coeffs

    def test_characters_suite_enumerates_e8_once(self, monkeypatch):
        # the Fock oracle reuses the suite's counts; enumerations to q^0
        # (the E4/Delta path's vector counts) are trivial
        calls = []
        real = characters.count_vectors_by_norm

        def counted(lattice, max_norm):
            calls.append(max_norm)
            return real(lattice, max_norm)

        monkeypatch.setattr(characters, "count_vectors_by_norm", counted)
        for _ in range(2):
            calls.clear()
            assert all(r.passed for r in checks.characters())
            assert [n for n in calls if n > 0] == [4]

    def test_characters_suite_builds_two_characters(self, monkeypatch):
        # the trace rows differentiate the suite's product character
        modes = []
        real = characters.chi_character

        def counted(lattice, n_q, mode):
            modes.append(mode)
            return real(lattice, n_q, mode)

        monkeypatch.setattr(characters, "chi_character", counted)
        assert all(r.passed for r in checks.characters())
        assert sorted(modes) == ["closed", "product"]

    def test_characters_suite_reads_exact_coefficients(self, monkeypatch):
        # 2^60 + 240 and 2^60 + 241 round to the same double: only exact
        # coefficients show this miss in the theta row
        big = 2 ** 60
        counts, theta = (characters.count_vectors_by_norm,
                         characters.lattice_theta)

        monkeypatch.setattr(characters, "count_vectors_by_norm",
                            lambda lat, n: [c + big * (k == 1) for k, c in
                                            enumerate(counts(lat, n))])
        monkeypatch.setattr(characters, "lattice_theta",
                            lambda lat, n: theta(lat, n) + QYSeries.monomial(
                                big + 1, 1, 0, n))
        rows = {r.identity: r for r in checks.characters()}
        assert rows["lattice-theta-vs-enumeration"].residual == 1.0
        assert not rows["lattice-theta-vs-enumeration"].passed

    def test_product_matches_fock_oracle(self):
        lat = e8_lattice()
        orc = fock_oracle(lat, 5)
        prod = chi_character(lat, 5, "product").chi
        keys = set(orc.coeffs) | set(prod.coeffs)
        worst = max(abs(orc.exact_coeff(*k) - prod.exact_coeff(*k))
                    for k in keys)
        assert worst == 0

    def test_oracle_coefficients_are_integers(self):
        orc = fock_oracle(e8_lattice(), 4)
        for c in orc.coeffs.values():
            assert c.imag == 0.0
            assert c.real == round(c.real)

    def test_vacuum_term(self):
        # leading term y^{r/4} q^0: the vacuum contributes y^2 for E8
        orc = fock_oracle(e8_lattice(), 3)
        assert orc.exact_coeff(0, 4) == 1


class TestTraceInsertions:
    def test_weighted_traces_match_derivatives(self):
        rows = [r for r in checks.characters()
                if r.identity.startswith("trace-insertion-")]
        assert len(rows) == 2
        for row in rows:
            assert row.passed
            assert row.residual == 0.0

    def test_insertion_values_differ_from_plain(self):
        plain = fock_oracle(e8_lattice(), 3)
        with_l0 = fock_weighted_trace(plain, "L0")
        assert plain.coeffs != with_l0.coeffs


class TestTripleProduct:
    def test_exact_to_q30(self):
        [row] = checks.triple_product()
        assert row.passed
        assert row.residual == 0.0

    def test_both_sides_nontrivial(self):
        lhs, rhs = jacobi_triple_product(10)
        assert lhs.coeffs
        assert lhs.coeffs == pytest.approx(rhs.coeffs)

    @pytest.mark.parametrize("n_q", [245, 250])
    def test_exact_on_both_sides_of_a_machine_word(self, n_q):
        # from q^246 the product's majorant passes 2^63, and its block
        # holds Python ints instead of int64
        lhs, rhs = jacobi_triple_product(n_q)
        assert lhs == rhs


class TestCuspPredicates:
    def test_basic_predicate_samples(self):
        # Delta + l > k + 1 > Delta
        assert cusp_predicate(1, 1, 2)
        assert not cusp_predicate(3, 1, 1)
        assert not cusp_predicate(0, 3, 1)

    def test_super_predicate_samples(self):
        # branch (a): Delta < K + k < Delta + l
        assert super_cusp_predicate(1, 1, 2, 1, 0)
        # branch (b): K + k = Delta and K > 1 + c
        assert super_cusp_predicate(1, 0, 1, 1, -1)
        assert not super_cusp_predicate(1, 0, 1, 1, 0)
        # branch (c): K + k = Delta + l and K < 1 + c
        assert super_cusp_predicate(1, 1, 1, 1, 1)
        assert not super_cusp_predicate(1, 1, 1, 1, -1)

    def test_plain_section_is_the_super_section_at_k1_c0(self):
        # x^k a/(x-z)^l is x^k theta a/(x-z)^l at charge 0: the same
        # predicate and the class (1 + k - Delta, 0, l), well past the grid
        for d, k, l in itertools.product(range(-3, 12), range(-3, 14),
                                         range(1, 8)):
            assert cusp_predicate(d, k, l) \
                == super_cusp_predicate(d, k, l, 1, 0), (d, k, l)
            assert cusp_class(d, k, l, 1, 0) == (1 + k - d, 0, l)

    def test_certificate_matches_predicate_samples(self):
        for args in ((1, 1, 2), (2, 1, 1), (0, 4, 2)):
            assert cusp_certificate(*cusp_class(*args, 1, 0)) \
                == cusp_predicate(*args)

    def test_grid_non_super(self):
        assert cusp_grid_check()[0] == []

    def test_grid_super(self):
        assert cusp_grid_check()[1] == []

    @pytest.mark.parametrize("super_grid", [False, True])
    def test_wide_grid(self, super_grid):
        # past the grid of cusp_grid_check: Delta 0..8, k 0..10, l 1..6;
        # the plain predicate at (K, c) = (1, 0), or the super predicate at
        # K 0..2 and c -4..4, so 594 plain or 16,038 super points, one
        # certificate per class
        certs, mismatches = {}, []
        for d, k, l in itertools.product(range(9), range(11), range(1, 7)):
            for cap_k, c in (itertools.product(range(3), range(-4, 5))
                             if super_grid else [(1, 0)]):
                key = cusp_class(d, k, l, cap_k, c)
                if key not in certs:
                    certs[key] = cusp_certificate(*key)
                pred = (super_cusp_predicate(d, k, l, cap_k, c) if super_grid
                        else cusp_predicate(d, k, l))
                if pred != certs[key]:
                    mismatches.append((d, k, l, cap_k, c))
        assert mismatches == []

    def test_certificate_depends_on_the_sign_of_f_only(self):
        # every (e, f, l) with e in -8..11, f in -6..6 and l in 1..5,
        # certified at f and at sign f
        points = list(itertools.product(range(-8, 12), range(-6, 7),
                                        range(1, 6)))
        at_sign = [cusp_certificate(e, (f > 0) - (f < 0), l)
                   for e, f, l in points]
        assert [cusp_certificate(*p) for p in points] == at_sign
        assert 0 < sum(at_sign) < len(points) == 1300

    def test_translates_expand_to_integer_binomials(self):
        # class (e, f, l) = (1, 0, 2): the translate n = 1 gives
        # (-z)^-2 sum_j (j+1) (x/z)^j q^(1+j), and n = -1 gives
        # q^(-1+2) x^-2 sum_j (j+1) (z/x)^j q^j; z is divided out
        acc = characters._add_translates({}, 1, 0, 2, [1, -1], 8)
        assert acc == {**{(1 + j, j, 0): j + 1 for j in range(8)},
                       **{(1 + j, -2 - j, 0): j + 1 for j in range(8)}}
        assert all(type(v) is int for v in acc.values())

    @pytest.mark.parametrize("e, l", [(-1, 2), (3, 2)])
    def test_translates_stop_at_a_negative_q_power(self, e, l):
        # e < 0: the first term of n = 1 is q^e; e > l: that of n = -1 is
        # q^(l - e)
        assert characters._add_translates({}, e, 0, l, [1, -1], 8) is None
        assert characters._add_translates({}, e, 1, l, [-1, 1], 8) is None

    def test_certificate_is_the_full_expansion(self):
        # Delta -3..8, k -2..10, l 1..6, the plain section at (K, c) =
        # (1, 0) and the super one at K 0..2 and c -4..4: the classes of 936
        # plain and 25,272 super points, each certified by the package and
        # by the full expansion
        certs = {}
        points = 0
        for d, k, l in itertools.product(range(-3, 9), range(-2, 11),
                                         range(1, 7)):
            for cap_k, c in [(1, 0)] + list(
                    itertools.product(range(3), range(-4, 5))):
                key = cusp_class(d, k, l, cap_k, c)
                if key not in certs:
                    certs[key] = full_expansion_certificate(*key)
                    assert cusp_certificate(*key) == certs[key], key
                points += 1
        assert points == 26208
        assert 0 < sum(certs.values()) < len(certs)

    @pytest.mark.parametrize("mutant", ["truncating", "skipping"])
    @pytest.mark.parametrize("row", [0, 1])
    def test_not_failing_at_a_negative_q_power_fails_the_rows(
            self, monkeypatch, mutant, row):
        # the expansion cut at the first translate with a negative q-power,
        # or that translate left out, without failing the certificate:
        # classes with e < 0 or e > l look extended.  Adding its terms
        # instead is no mutant: the outer translates then open a q-shell
        # below every shell of the inner ones, so the certificate fails
        # all the same
        real = characters._add_translates

        def truncating(acc, e, f, l, translates, q_max):
            for n in translates:
                if real({}, e, f, l, [n], q_max) is None:
                    return acc
                real(acc, e, f, l, [n], q_max)
            return acc

        def skipping(acc, e, f, l, translates, q_max):
            for n in translates:
                if real({}, e, f, l, [n], q_max) is not None:
                    real(acc, e, f, l, [n], q_max)
            return acc

        assert checks.cusp()[row].passed
        monkeypatch.setattr(characters, "_add_translates",
                            {"truncating": truncating,
                             "skipping": skipping}[mutant])
        assert not checks.cusp()[row].passed


def full_expansion_translates(acc, e, f, l, translates, q_max):
    """``_add_translates`` as it was before it stopped at a negative
    q-power: every translate expanded to q^q_max."""
    sign = -1 if l % 2 else 1
    for n in translates:
        m = abs(n)
        start = n * e if n > 0 else n * e + m * l
        j = 0
        while start + m * j <= q_max:
            key = (start + m * j, j if n > 0 else -l - j, n * f)
            acc[key] = acc.get(key, 0) + (sign if n > 0 else 1) \
                * math.comb(l - 1 + j, j)
            j += 1
    return acc


def full_expansion_certificate(e, f, l):
    """The certificate of class (e, f, l) from both full expansions: no
    negative q-power, equal coefficients at common keys, and no q-shell
    whose least y-power is new or drops."""
    inner = [n for n in range(-12, 13) if n]
    outer = [s * n for n in range(13, 18) for s in (-1, 1)]
    small = full_expansion_translates({}, e, f, l, inner, 8)
    large = full_expansion_translates(dict(small), e, f, l, outer, 8)
    if any(key[0] < 0 and v != 0 for key, v in large.items()):
        return False
    if any(v != large[key] for key, v in small.items()):
        return False
    min_small = characters._shell_min_y(small)
    return all(qp in min_small and ymin >= min_small[qp]
               for qp, ymin in characters._shell_min_y(large).items())


GRID = [(d, k, l) for d in range(6) for k in range(8) for l in range(1, 5)]


class TestCuspCertificatePerClass:
    """``cusp_grid_check`` computes one certificate per (e, f, l) class;
    ``cusp_certificate`` of each point's class is the oracle."""

    @pytest.mark.parametrize("super_grid", [False, True])
    def test_class_certificate_is_the_point_certificate(self, monkeypatch,
                                                        super_grid):
        # predicates that match nothing make every point a mismatch, so the
        # grid check reports the certificate it used at each point
        monkeypatch.setattr(characters, "cusp_predicate", lambda *a: None)
        monkeypatch.setattr(characters, "super_cusp_predicate",
                            lambda *a: None)
        plain, super_ = cusp_grid_check()
        if super_grid:
            points = [(d, k, l, cap_k, c) for d, k, l in GRID
                      for c in range(-3, 4) for cap_k in (0, 1)]
            assert [m[:5] for m in super_] == points
            for m in super_:
                assert m[6] == cusp_certificate(*cusp_class(*m[:5])), m
        else:
            assert [m[:3] for m in plain] == GRID
            for m in plain:
                assert m[4] == cusp_certificate(*cusp_class(*m[:3], 1, 0)), m

    def test_mismatches_are_counted_per_point(self, monkeypatch):
        # branch (b) of the super predicate weakened from K > 1 + c to
        # K >= 1 + c: the per-point certificates disagree at 44 points
        def weakened(delta, k, l, cap_k, charge):
            s = cap_k + k
            return (delta + l > s > delta
                    or (s == delta and cap_k >= 1 + charge)
                    or (s == delta + l and cap_k < 1 + charge))

        monkeypatch.setattr(characters, "super_cusp_predicate", weakened)
        per_point = sum(
            weakened(d, k, l, cap_k, c)
            != cusp_certificate(*cusp_class(d, k, l, cap_k, c))
            for d, k, l in GRID for c in range(-3, 4) for cap_k in (0, 1))
        assert per_point == 44
        plain, super_ = cusp_grid_check()
        assert plain == [] and len(super_) == per_point
        plain_row, super_row = checks.cusp()
        assert plain_row.passed
        assert super_row.residual == per_point and not super_row.passed

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = characters.cusp_certificate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(characters, "cusp_certificate", counted)
        return calls

    def test_every_call_computes_its_certificates(self, monkeypatch):
        # one certificate per class and no memo across calls: the 52
        # classes of the 192 plain points are among the 168 of the 2688
        # super points
        calls = self._counted(monkeypatch)
        for _ in range(2):
            calls.clear()
            assert cusp_grid_check() == ([], [])
            assert len(calls) == len(set(calls)) == 168
        assert {cusp_class(*p, 1, 0) for p in GRID} <= set(calls)

    def test_the_cusp_suite_computes_168_certificates(self, monkeypatch):
        # both rows from one pass: 168 certificates, not 52 + 168
        calls = self._counted(monkeypatch)
        assert all(row.passed for row in checks.cusp())
        assert len(calls) == 168


class TestJacobiCharacter:
    def test_e8_transformations(self):
        rows = checks.character_jacobi()
        assert len(rows) == 15  # 5 group elements x 3 points
        for row in rows:
            assert row.passed, (row.element, row.residual)
            assert abs(row.residual) < 1e-5
