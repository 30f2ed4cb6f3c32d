import json
from fractions import Fraction

import pytest

from superchar import characters, checks
from superchar.characters import (
    EvenLattice, chi_character, count_vectors_by_norm, cusp_certificate,
    cusp_grid_check, cusp_predicate, e8_lattice, fock_oracle,
    fock_weighted_trace, integer_determinant, jacobi_character_check,
    jacobi_triple_product, lattice_theta, super_cusp_predicate,
    trace_identity_check, triple_product_check,
)
from superchar.jacobi_forms import eisenstein_e4

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
        obj = json.loads(lat.to_json())
        assert obj["rank"] == 2
        back = EvenLattice.from_json(lat.to_json())
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
        assert counts == [e4.coeff(n) for n in range(11)]

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

    def test_theta_of_d24_plus_has_a_delta_term(self):
        # Theta = E4^3 + (1104 - 720) Delta.  Independent counts: norm 2,
        # 48 vectors (+-2, 0^23) and 16 C(24, 4) of shape (+-1^4, 0^20);
        # norm 3, 24 * 8 C(23, 2) of shape (+-2, +-1^2), 64 C(24, 6) of
        # shape (+-1^6) and 2^23 glue vectors (+-1/2)^24
        lat = d_plus(24)
        assert count_vectors_by_norm(lat, 1) == [1, 1104]
        th = lattice_theta(lat, 3)
        assert [th.coeff(n) for n in range(4)] == [
            1, 1104, 48 + 16 * 10626, 24 * 8 * 253 + 64 * 134596 + 2 ** 23]


class TestCharacter:
    def test_product_vs_closed(self):
        lat = e8_lattice()
        prod = chi_character(lat, 10, "product")
        closed = chi_character(lat, 10, "closed")
        assert prod.chi.normalized_distance(closed.chi) < 1e-12

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

    def test_product_matches_fock_oracle(self):
        lat = e8_lattice()
        orc = fock_oracle(lat, 5)
        prod = chi_character(lat, 5, "product").chi
        keys = set(orc.coeffs) | set(prod.coeffs)
        worst = max(abs(orc.coeff(*k) - prod.coeff(*k)) for k in keys)
        assert worst == 0.0

    def test_oracle_coefficients_are_integers(self):
        orc = fock_oracle(e8_lattice(), 4)
        for c in orc.coeffs.values():
            assert c.imag == 0.0
            assert c.real == round(c.real)

    def test_vacuum_term(self):
        # leading term y^{r/4} q^0: the vacuum contributes y^2 for E8
        orc = fock_oracle(e8_lattice(), 3)
        assert orc.coeff(0, 4) == pytest.approx(1.0)


class TestTraceInsertions:
    def test_weighted_traces_match_derivatives(self):
        lat = e8_lattice()
        rows = trace_identity_check(lat, 4)
        assert len(rows) == 2
        for row in rows:
            assert row.passed
            assert row.residual == 0.0

    def test_insertion_values_differ_from_plain(self):
        lat = e8_lattice()
        plain = fock_oracle(lat, 3)
        with_l0 = fock_weighted_trace(lat, 3, "L0")
        assert plain.coeffs != with_l0.coeffs


class TestTripleProduct:
    def test_exact_to_q30(self):
        row = triple_product_check(30)
        assert row.passed
        assert row.residual == 0.0

    def test_both_sides_nontrivial(self):
        lhs, rhs = jacobi_triple_product(10)
        assert lhs.coeffs
        assert lhs.coeffs == pytest.approx(rhs.coeffs)


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

    def test_certificate_matches_predicate_samples(self):
        for args in ((1, 1, 2), (2, 1, 1), (0, 4, 2)):
            assert cusp_certificate(*args, super_case=False) \
                == cusp_predicate(*args)

    def test_grid_non_super(self):
        assert cusp_grid_check() == []

    def test_grid_super(self):
        assert cusp_grid_check(super_grid=True) == []


GRID = [(d, k, l) for d in range(6) for k in range(8) for l in range(1, 5)]


class TestCuspCertificatePerClass:
    """``cusp_grid_check`` computes one certificate per (e, f, l) class; the
    per-point ``cusp_certificate`` is the oracle."""

    @pytest.mark.parametrize("super_grid", [False, True])
    def test_class_certificate_is_the_point_certificate(self, monkeypatch,
                                                        super_grid):
        # a predicate that matches nothing makes every point a mismatch,
        # so the grid check reports the certificate it used at each point
        monkeypatch.setattr(characters, "cusp_predicate", lambda *a: None)
        monkeypatch.setattr(characters, "super_cusp_predicate",
                            lambda *a: None)
        got = cusp_grid_check(super_grid=super_grid)
        if super_grid:
            points = [(d, k, l, cap_k, c) for d, k, l in GRID
                      for c in range(-3, 4) for cap_k in (0, 1)]
            assert [m[:5] for m in got] == points
            for m in got:
                assert m[6] == cusp_certificate(*m[:5], super_case=True), m
        else:
            assert [m[:3] for m in got] == GRID
            for m in got:
                assert m[4] == cusp_certificate(*m[:3], super_case=False), m

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
            != cusp_certificate(d, k, l, cap_k, c, super_case=True)
            for d, k, l in GRID for c in range(-3, 4) for cap_k in (0, 1))
        assert per_point == 44
        assert len(cusp_grid_check(super_grid=True)) == per_point
        row = checks.cusp()[1]
        assert row.residual == per_point and not row.passed

    def test_every_call_computes_its_certificates(self, monkeypatch):
        # one certificate per class and no memo across calls: 52 classes
        # cover the 192 plain points and 440 the 2688 super points
        calls = []
        real = characters.cusp_certificate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(characters, "cusp_certificate", counted)
        for super_grid, classes in ((False, 52), (True, 440)) * 2:
            calls.clear()
            assert cusp_grid_check(super_grid=super_grid) == []
            assert len(calls) == classes


class TestJacobiCharacter:
    def test_e8_transformations(self):
        rows = jacobi_character_check(e8_lattice())
        assert len(rows) == 15  # 5 group elements x 3 points
        for row in rows:
            assert row.passed, (row.element, row.residual)
            assert abs(row.residual) < 1e-5
