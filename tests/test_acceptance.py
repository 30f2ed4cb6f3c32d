"""End-to-end acceptance checks.

Each test runs one suite of ``superchar.checks.SUITES``, the registry
behind ``superchar verify``, so it certifies exactly the rows that
``verify`` prints; it asserts on the rows at its stated tolerance and
runtime budget, and prints a single summary line.
"""

import inspect
import time

from superchar import checks


def report(name, passed, detail, budget, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: exceeded {budget}s budget"


def run(name):
    """Rows of the suite ``name``, the worst residual of each identity and
    the elapsed time."""
    t0 = time.time()
    rows = checks.SUITES[name]()
    elapsed = time.time() - t0
    worst = {}
    for r in rows:
        worst[r.identity] = max(worst.get(r.identity, 0.0), r.residual)
    return rows, worst, elapsed


def test_suites_take_no_arguments():
    # so no caller can run a suite at other settings than verify does
    assert [name for name, suite in checks.SUITES.items()
            if inspect.signature(suite).parameters] == []


def test_01_character_three_way_agreement():
    rows, worst, elapsed = run("characters")
    oracle = worst["character-vs-fock-oracle"]
    diff = worst["character-product-vs-closed"]
    theta = worst["lattice-theta-vs-enumeration"]
    ok = all(r.passed for r in rows) and oracle == 0.0 and diff == 0.0 \
        and theta == 0.0
    report("criterion-01 character-three-way", ok,
           f"oracle diff {oracle}, product-vs-closed {diff:.2e}, "
           f"theta-vs-enumeration {theta}", 60, elapsed)


def test_02_triple_product():
    rows, worst, elapsed = run("triple_product")
    ok = all(r.passed for r in rows) and worst["triple-product"] == 0.0
    report("criterion-02 triple-product", ok,
           f"residual {worst['triple-product']}", 5, elapsed)


def test_03_character_is_jacobi_form():
    rows, _, elapsed = run("character_jacobi")
    worst = max(abs(r.residual) for r in rows)
    ok = all(r.passed for r in rows) and len(rows) == 15
    report("criterion-03 character-jacobi-form", ok,
           f"worst residual {worst:.2e} over {len(rows)} checks",
           30, elapsed)


def test_04_elliptic_series_identities():
    rows, _, elapsed = run("elliptic")
    worst = max(r.residual for r in rows if r.tolerance == 0.0)
    ok = all(r.passed for r in rows) and worst == 0.0
    report("criterion-04 elliptic-series-identities", ok,
           f"worst coefficient deviation {worst}", 5, elapsed)


def test_05_super_zeta_lemma():
    rows, worst, elapsed = run("super_zeta")
    lemma = worst["extended-zeta-quasi-periodicity"]
    ok = all(r.passed for r in rows) and len(rows) == 5 and lemma < 1e-8
    report("criterion-05 super-zeta-lemma", ok,
           f"worst residual {lemma:.2e} on 5-point grid", 5, elapsed)


def test_06_topological_algebra():
    rows, worst, elapsed = run("algebra")
    jacobi_ok = worst["graded-jacobi-identity"] == 0
    hom_worst = worst["vector-field-homomorphism"]
    ok = all(r.passed for r in rows) and jacobi_ok and hom_worst == 0
    report("criterion-06 topological-algebra", ok,
           f"jacobi exact {jacobi_ok}, homomorphism worst {hom_worst}",
           10, elapsed)


def test_07_flatness_identity():
    rows, worst, elapsed = run("flatness")
    grid_ok = worst["connection-current-commutator"] == 0.0
    example_ok = worst["connection-current-example"] == 0.0
    ok = all(r.passed for r in rows) and grid_ok and example_ok
    report("criterion-07 flatness-identity", ok,
           f"grid exact {grid_ok}, worked example {example_ok}", 5, elapsed)


def test_08_gl11_grassmann():
    rows, worst, elapsed = run("gl11")
    assembly = worst["group-element-assembly"]
    ber = worst["group-element-berezinian"]
    jets = worst["jet-coordinate-roundtrip"]
    ok = all(r.passed for r in rows) and assembly == 0.0 and ber < 1e-13 \
        and jets < 1e-10
    report("criterion-08 gl11-grassmann", ok,
           f"assembly {assembly}, Ber {ber:.1e}, jets {jets:.1e}",
           5, elapsed)


def test_09_jacobi_forms_layer():
    rows, worst, elapsed = run("jacobi_forms")
    lead = worst["phi-m1-half-leading-coefficient"]
    shift_worst = worst["ratio-shift-law"]
    f1_worst = worst["ratio-taylor-coefficient"]
    ok = all(r.passed for r in rows) and lead < 1e-8 \
        and shift_worst < 1e-6 and f1_worst < 1e-6
    report("criterion-09 jacobi-forms-layer", ok,
           f"leading {lead:.1e}, shifts {shift_worst:.1e}, F1 "
           f"{f1_worst:.1e}", 120, elapsed)


def test_10_cusp_predicates():
    rows, worst, elapsed = run("cusp")
    mism = worst["predicate-vs-certificate"]
    mism_super = worst["super-predicate-vs-certificate"]
    ok = all(r.passed for r in rows) and mism == 0 and mism_super == 0
    report("criterion-10 cusp-predicates", ok,
           f"{mism:.0f} + {mism_super:.0f} mismatches", 10, elapsed)


def test_11_trace_identities():
    rows, worst, elapsed = run("characters")
    trace = max(worst["trace-insertion-L0"], worst["trace-insertion-J0"])
    ok = all(r.passed for r in rows) and trace == 0.0
    report("criterion-11 trace-identities", ok,
           f"worst residual {trace}", 30, elapsed)
