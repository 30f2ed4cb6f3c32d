"""End-to-end acceptance checks.

Each test runs one suite of ``superchar.checks`` (the registry behind
``superchar verify``) at its own parameters, asserts on the rows at its
stated tolerance and runtime budget, and prints a single summary line.
"""

import cmath
import time

from superchar import checks
from superchar.grassmann import GrassmannNumber, odd
from superchar.jacobi_forms import phi_10_1_eisenstein_numeric, phi_weak
from superchar.series_core import EvalPoint


def report(name, passed, detail, budget, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: exceeded {budget}s budget"


def run(check, **params):
    """Rows of ``check`` at ``params``, the worst residual of each identity
    and the elapsed time."""
    t0 = time.time()
    rows = check(**params)
    elapsed = time.time() - t0
    worst = {}
    for r in rows:
        worst[r.identity] = max(worst.get(r.identity, 0.0), r.residual)
    return rows, worst, elapsed


def test_01_character_three_way_agreement():
    rows, worst, elapsed = run(checks.characters, q_order=15, fock_q_order=6)
    oracle = worst["character-vs-fock-oracle"]
    diff = worst["character-product-vs-closed"]
    theta = worst["lattice-theta-vs-enumeration"]
    ok = all(r.passed for r in rows) and oracle == 0.0 and diff == 0.0 \
        and theta == 0.0
    report("criterion-01 character-three-way", ok,
           f"oracle diff {oracle}, product-vs-closed {diff:.2e}, "
           f"theta-vs-enumeration {theta}", 60, elapsed)


def test_02_triple_product():
    rows, worst, elapsed = run(checks.triple_product)
    ok = all(r.passed for r in rows) and worst["triple-product"] == 0.0
    report("criterion-02 triple-product", ok,
           f"residual {worst['triple-product']}", 5, elapsed)


def test_03_character_is_jacobi_form():
    rows, _, elapsed = run(checks.character_jacobi)
    worst = max(abs(r.residual) for r in rows)
    ok = all(r.passed for r in rows) and len(rows) == 15
    report("criterion-03 character-jacobi-form", ok,
           f"worst residual {worst:.2e} over {len(rows)} checks",
           30, elapsed)


def test_04_elliptic_series_identities():
    rows, _, elapsed = run(checks.elliptic, q_order=12)
    worst = max(r.residual for r in rows if r.tolerance == 0.0)
    ok = all(r.passed for r in rows) and worst == 0.0
    report("criterion-04 elliptic-series-identities", ok,
           f"worst coefficient deviation {worst}", 5, elapsed)


def test_05_super_zeta_lemma():
    points = [(cmath.exp(2j * cmath.pi * t), th) for t, th in (
        (0.13, GrassmannNumber(0.0)),
        (0.21 + 0.04j, odd(1.0, 0.0)),
        (0.35 - 0.02j, odd(0.0, 1.0)),
        (0.08 + 0.09j, odd(0.3, 0.7)),
        (0.44, odd(-0.5, 0.25)),
    )]
    rows, worst, elapsed = run(checks.super_zeta, tau=0.2 + 1.3j,
                               alpha=0.37 + 0.11j, points=points)
    lemma = worst["extended-zeta-quasi-periodicity"]
    ok = all(r.passed for r in rows) and len(rows) == 5 and lemma < 1e-8
    report("criterion-05 super-zeta-lemma", ok,
           f"worst residual {lemma:.2e} on 5-point grid", 5, elapsed)


def test_06_topological_algebra():
    rows, worst, elapsed = run(checks.algebra, windows=(range(-4, 5),) * 3)
    jacobi_ok = worst["graded-jacobi-identity"] == 0
    hom_worst = worst["vector-field-homomorphism"]
    ok = all(r.passed for r in rows) and jacobi_ok and hom_worst == 0
    report("criterion-06 topological-algebra", ok,
           f"jacobi exact {jacobi_ok}, homomorphism worst {hom_worst}",
           10, elapsed)


def test_07_flatness_identity():
    rows, worst, elapsed = run(checks.flatness)
    grid_ok = worst["connection-current-commutator"] == 0.0
    example_ok = worst["connection-current-example"] == 0.0
    ok = all(r.passed for r in rows) and grid_ok and example_ok
    report("criterion-07 flatness-identity", ok,
           f"grid exact {grid_ok}, worked example {example_ok}", 5, elapsed)


def test_08_gl11_grassmann():
    rows, worst, elapsed = run(checks.gl11)
    assembly = worst["group-element-assembly"]
    ber = worst["group-element-berezinian"]
    jets = worst["jet-coordinate-roundtrip"]
    ok = all(r.passed for r in rows) and assembly == 0.0 and ber < 1e-13 \
        and jets < 1e-10
    report("criterion-08 gl11-grassmann", ok,
           f"assembly {assembly}, Ber {ber:.1e}, jets {jets:.1e}",
           5, elapsed)


def test_09_jacobi_forms_layer():
    t0 = time.time()
    pt = EvalPoint(0.13 + 1.21j, 0.07 + 0.03j)
    rows, worst, _ = run(checks.jacobi_forms, point=pt, t=0.31,
                         forms=("phi_m1_half", "phi_m2_1"), shifts=(1, 2),
                         radius=0.01)
    lead = worst["phi-m1-half-leading-coefficient"]
    shift_worst = worst["ratio-shift-law"]
    f1_worst = worst["ratio-taylor-coefficient"]
    # oracle: phi_10_1 = Delta phi_{-2,1} against the Jacobi-Eisenstein
    # combination (E_6 E_{4,1} - E_4 E_{6,1}) / 144
    f10 = phi_weak("phi_10_1", 40)
    e_worst = 0.0
    for p in (pt, EvalPoint(-0.3 + 1.35j, 0.21 - 0.06j)):
        a = f10.evaluate(p)
        b = phi_10_1_eisenstein_numeric(p, cutoff=80)
        e_worst = max(e_worst, abs(a - b) / max(abs(a), abs(b)))
    elapsed = time.time() - t0
    ok = all(r.passed for r in rows) and lead < 1e-8 \
        and shift_worst < 1e-6 and f1_worst < 1e-6 and e_worst < 1e-3
    report("criterion-09 jacobi-forms-layer", ok,
           f"leading {lead:.1e}, shifts {shift_worst:.1e}, F1 "
           f"{f1_worst:.1e}, E-series {e_worst:.1e}", 120, elapsed)


def test_10_cusp_predicates():
    rows, worst, elapsed = run(checks.cusp)
    mism = worst["predicate-vs-certificate"]
    mism_super = worst["super-predicate-vs-certificate"]
    ok = all(r.passed for r in rows) and mism == 0 and mism_super == 0
    report("criterion-10 cusp-predicates", ok,
           f"{mism:.0f} + {mism_super:.0f} mismatches", 10, elapsed)


def test_11_trace_identities():
    rows, worst, elapsed = run(checks.characters)
    trace = max(worst["trace-insertion-L0"], worst["trace-insertion-J0"])
    ok = all(r.passed for r in rows) and trace == 0.0
    report("criterion-11 trace-identities", ok,
           f"worst residual {trace}", 30, elapsed)
