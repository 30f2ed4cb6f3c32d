"""Tests of the benchmark itself: its references against the package where
the package is exact, its checker against corrupted outputs, and one tiny
seeded pass of every workload printing every metric of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from superchar import characters as ch  # noqa: E402
from superchar import jacobi_forms as jf  # noqa: E402
from superchar import report  # noqa: E402
from superchar.series_core import EvalPoint  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _as_dict(series):
    return {k: c for k, c in series.coeffs.items()}


def _rounds_to(values, ref, scale=1):
    keys = set(values) | set(ref)
    return all(abs(values.get(k, 0) / scale - ref.get(k, 0)) < 0.5
               for k in keys)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_triple_product_reference_matches_its_sum_side():
    # sum_k (-y)^k q^{k(k+1)/2}, y-exponents doubled
    sum_side = {(k * (k + 1) // 2, 2 * k): (-1) ** (k % 2)
                for k in range(-32, 32) if k * (k + 1) // 2 <= 30}
    assert refs.triple_product(30) == sum_side


@pytest.mark.parametrize("lattice, gram, n_q", [
    ("E8", workloads.GRAMS["E8"], 10), ("E8^2", workloads.GRAMS["E8^2"], 2),
    ("D4", workloads.GRAMS["D4"], 30), ("A2", workloads.GRAMS["A2"], 30)])
def test_theta_references_match_enumeration(lattice, gram, n_q):
    counts = ch.count_vectors_by_norm(ch.EvenLattice(gram), n_q)
    assert refs.LATTICE_THETAS[lattice][1](n_q) == counts


def test_e8_gram_is_the_package_lattice():
    assert workloads.GRAMS["E8"] == ch.e8_lattice().gram


def test_e8_character_reference_where_the_package_is_exact():
    # product mode is exact through q^23 at the seed
    chi = ch.chi_character(ch.e8_lattice(), 23, "product").chi
    assert _rounds_to(_as_dict(chi), refs.character("E8", 23)[1])


def test_phi_10_1_reference_where_the_package_is_exact():
    phi = jf.phi_weak("phi_10_1", 32).offset_series.series
    assert _rounds_to(_as_dict(phi), refs.series_reference("phi_10_1", 32)[2])


@pytest.mark.parametrize("name", ["phi_m1_half", "phi_m2_1", "theta", "eta",
                                  "discriminant", "e4", "e6"])
def test_series_references_at_low_order(name):
    obj = {"phi_m1_half": lambda: jf.phi_weak(name, 20).offset_series,
           "phi_m2_1": lambda: jf.phi_weak(name, 20).offset_series,
           "theta": lambda: jf.theta_offset_series(20),
           "eta": lambda: jf.eta_series(20),
           "discriminant": lambda: jf.discriminant_series(20),
           "e4": lambda: jf.eisenstein_e4(20),
           "e6": lambda: jf.eisenstein_e6(20)}[name]()
    series = getattr(obj, "series", obj)
    offset, scale, ref, _ = refs.series_reference(name, 20)
    assert str(getattr(obj, "q_offset", 0)) == offset
    assert _rounds_to(_as_dict(series), ref, scale)


@pytest.mark.parametrize("name", ["phi_10_1", "phi_m2_1", "e4", "wp1", "wp2",
                                  "wp3", "wp4", "zeta_bar"])
def test_eval_references_agree_with_the_package(name):
    from superchar import cli
    point = EvalPoint(0.17 + 1.13j, 0.23 + 0.04j)
    value, _ = cli._eval_registry(20)[name](point)
    ref = refs.eval_reference(name, point.tau, point.alpha)
    assert abs(value - ref) <= workloads.EVAL_RTOL * abs(ref)


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

def _series_op(name, n_q):
    op = workloads.Op("series", name, name=name, q_order=n_q)
    workloads.References().prepare(op)
    return op


def _series_output(name, n_q):
    from superchar import cli
    doc = cli._series_json(cli._series_registry(n_q)[name]())
    return {"exit": 0, "stdout": json.dumps(doc), "error": None}


def _bump(out, q_exponent, by=1.0):
    doc = json.loads(out["stdout"])
    for term in doc["series"]["terms"]:
        if term[0] == q_exponent:
            term[2] += by
            break
    return {**out, "stdout": json.dumps(doc)}


def test_exact_output_is_ok_and_a_coefficient_off_by_one_is_not():
    op = _series_op("discriminant", 40)
    out = _series_output("discriminant", 40)
    assert workloads.check(op, out)[0] == workloads.OK
    assert workloads.check(op, _bump(out, 3))[0] == workloads.FAILED


def test_known_float_defect_is_inexact_not_failed():
    op = _series_op("phi_10_1", 40)
    status, _, note = workloads.check(op, _series_output("phi_10_1", 40))
    assert status == workloads.INEXACT and "q^33" in note


def test_crash_is_a_failure():
    op = _series_op("eta", 40)
    out = {"exit": 1, "stdout": "", "error": "RuntimeError()"}
    assert workloads.check(op, out)[0] == workloads.FAILED


def _verify_output(tmp, rows):
    path = tmp / "rows.json"
    path.write_text(json.dumps(rows))
    csv_text = report.emit_report(report.rows_from_json(json.dumps(rows)),
                                  "csv")
    ok = {"exit": 0, "stdout": "", "error": None}
    op = workloads.Op("verify", "verify", suites=[], path=str(path))
    workloads.References().prepare(op)
    return op, {"verify": ok, "report": {**ok, "stdout": csv_text}}


def _seed_rows():
    return [{"identity": i, "paper_ref": "", "element": e, "point": None,
             "residual": 0.0, "tolerance": 0.0, "pass": True}
            for _, i, e in workloads.References().seed_rows]


@pytest.fixture()
def scratch():
    path = HERE / "out" / "test-scratch"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_verify_report_loses_suite_on_every_row(scratch):
    rows = _seed_rows()
    op, out = _verify_output(scratch, rows)
    status, losses, _ = workloads.check(op, out)
    assert status == workloads.OK and losses == len(rows)


def test_verify_failing_or_missing_row_is_a_failure(scratch):
    rows = _seed_rows()
    rows[5]["pass"] = False
    assert workloads.check(*_verify_output(scratch, rows))[0] == \
        workloads.FAILED
    assert workloads.check(*_verify_output(scratch, _seed_rows()[1:]))[0] \
        == workloads.FAILED


class CorruptingRunner(workloads.Runner):
    """Adds 1 to one coefficient of the first ``series eta`` output."""

    corrupted = False

    def run(self, op):
        out = super().run(op)
        if op.kind == "series" and op.args["name"] == "eta" \
                and not self.corrupted:
            self.corrupted = True
            return _bump(out, 1)
        return out


def test_corrupted_output_is_counted_as_an_error(scratch):
    from superchar import cli

    def not_ok(runner):
        gen = workloads.SeriesKernels(7, scratch)
        records, _, _ = worker.measure(gen, runner, workloads.References(),
                                       0, gen.next_pass())
        return sum(1 for r in records if r[3] != workloads.OK)

    assert not_ok(CorruptingRunner(cli)) == not_ok(workloads.Runner(cli)) + 1


def test_each_op_is_normalised_by_the_units_around_it():
    cal = speed.Calibration()
    # sixteen units ending at t = 0..15: eight of 1 ms, then eight of 3 ms
    cal.samples = [1e-3] * 8 + [3e-3] * 8
    cal.ends = [float(t) for t in range(16)]
    cal.ops = [(7.5, 0.2), (15.5, 0.2)]
    between, last = cal.normalised()
    # eight units before the first op and eight after it: median 2 ms
    assert between == pytest.approx(0.2 * speed.REFERENCE_S / 2e-3)
    # only units before the last op: 3 ms, so a third of its wall time
    assert last == pytest.approx(0.2 * speed.REFERENCE_S / 3e-3)
    assert cal.slowness() == pytest.approx(2e-3 / speed.REFERENCE_S)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def _last_json(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_every_metric(out, section):
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    for w in BENCHMARK["workloads"]:
        for metric in BENCHMARK[section]:
            got = out["metrics"][f"{w['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_one_pass_of_every_workload_prints_every_end_to_end_metric():
    out = _last_json(["--workload", "all", "--seed", "3", "--seconds", "0"])
    _assert_every_metric(out, "end_to_end")
    rate = {w["name"]: out["metrics"][f"{w['name']}.exact_rate"]["value"]
            for w in BENCHMARK["workloads"]}
    # the known float-exactness defects show where they are expected
    assert rate["verify_all"] == 1.0 and rate["algebra_scan"] == 1.0
    assert rate["lattice_characters"] < 1.0 and rate["series_kernels"] < 1.0


# each per-layer metric must fire on the workload meant to exercise it
EXERCISED_BY = {
    "verify_all": [
        "characters.enum_s", "characters.chi_s", "characters.fock_s",
        "characters.cusp_s", "series_core.mul_s", "series_core.pow_s",
        "series_core.invert_s", "series_core.infinite_product_s",
        "series_core.evaluate_calls", "jacobi_forms.phi_weak_s",
        "jacobi_forms.form_evaluate_calls",
        "jacobi_forms.transformation_check_s", "elliptic.shell_sum_s",
        "elliptic.series_s", "elliptic.super_zeta_s",
        "superconformal.bracket_calls", "superconformal.jacobi_residual_s",
        "superconformal.nabla_s", "superconformal.jet_s",
        "grassmann.supermatrix_mul_calls", "grassmann.berezinian_s",
        "report.emit_s", "report.parse_s", "report.bytes_out",
        "report.roundtrip_field_losses", "cli.self_s",
        "characters.max_coeff_over_2p53"] + [
        f"cli.suite_s.{suite}" for suite in workloads.SUITES],
    "lattice_characters": [
        "characters.enum_s", "characters.enum_calls",
        "characters.vectors_counted", "characters.vectors_per_s",
        "characters.chi_s", "characters.max_coeff_over_2p53",
        "series_core.mul_s", "series_core.mul_term_pairs",
        "series_core.pow_s", "series_core.invert_s",
        "series_core.infinite_product_s"],
    "series_kernels": [
        "series_core.mul_s", "series_core.mul_calls", "series_core.invert_s",
        "series_core.infinite_product_s", "series_core.evaluate_s",
        "series_core.max_coeff_over_2p53", "jacobi_forms.phi_weak_s",
        "jacobi_forms.eisenstein_sum_s", "jacobi_forms.eisenstein_sum_calls",
        "jacobi_forms.form_evaluate_calls", "elliptic.shell_sum_s"],
    "algebra_scan": [
        "superconformal.bracket_s", "superconformal.bracket_calls",
        "superconformal.jacobi_residual_s", "superconformal.nabla_s",
        "superconformal.jet_s", "grassmann.supermatrix_mul_calls",
        "grassmann.berezinian_s"],
}


def test_one_traced_pass_prints_every_layer_metric_and_fires_its_spans():
    out = _last_json(["--workload", "all", "--seed", "3", "--seconds", "0",
                      "--trace", "1"])
    _assert_every_metric(out, "per_layer")
    silent = [f"{w}.{m}" for w, names in EXERCISED_BY.items() for m in names
              if not out["metrics"][f"{w}.{m}"]["value"] > 0]
    assert not silent


def test_refuses_to_run_without_the_package(scratch):
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "algebra_scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=scratch, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
