import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import mpmath
import pytest
from click.testing import CliRunner

import superchar
from superchar.cli import main
from superchar.elliptic import zeta_bar_eval
from superchar.jacobi_forms import eta_series
from superchar.report import rows_from_json
from superchar.series_core import EvalPoint


@pytest.fixture
def runner():
    return CliRunner()


class TestSeries:
    def test_eta_json(self, runner):
        result = runner.invoke(main, ["series", "eta", "--q-order", "6"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["q_offset"] == "1/24"
        ref = eta_series(6)
        terms = {(n, r2): complex(re, im)
                 for n, r2, re, im in obj["series"]["terms"]}
        assert terms == ref.coeffs

    def test_unknown_series(self, runner):
        result = runner.invoke(main, ["series", "nope"])
        assert result.exit_code == 2
        assert "unknown series" in result.output

    def test_negative_q_order_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["series", "eta", "--q-order", "-3"])
        assert result.exit_code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_order": -3}))
        result = runner.invoke(main, ["--config", str(cfg), "series", "eta"])
        assert result.exit_code == 2

    def test_prints_one_term_per_line(self, runner):
        result = runner.invoke(main, ["series", "phi_10_1", "--q-order", "8"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        terms = json.loads(result.output)["series"]["terms"]
        assert len(terms) > 30
        assert len(lines) == len(terms)
        assert [json.loads(line.rstrip(","))
                for line in lines[1:-1]] == terms[1:-1]

    @pytest.mark.parametrize("name, half", [
        ("phi_m2_1", False), ("phi_0_1", False), ("phi_10_1", False),
        ("phi_12_1", False), ("phi_m1_half", True), ("theta", True)])
    def test_half_integral_flag_is_the_parity_of_the_terms(self, runner,
                                                           name, half):
        result = runner.invoke(main, ["series", name, "--q-order", "2"])
        assert result.exit_code == 0
        series = json.loads(result.output)["series"]
        assert series["half_integral"] is half
        assert {r2 % 2 for _, r2, _, _ in series["terms"]} == {int(half)}

    def test_zeta_bar_rows(self, runner):
        # x^k is y^k: x^0 is -1/2, x^k is -sum_{m>=0} q^{mk} and x^-k is
        # sum_{m>=1} q^{mk}, to |k| <= 3 and q^3
        result = runner.invoke(main, ["series", "zeta_bar", "--q-order", "3"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["q_offset"] == "0"
        assert obj["series"]["q_order"] == 3
        expected = {(0, 0): -0.5}
        for k in (1, 2, 3):
            for m in range(0, 3 // k + 1):
                expected[(m * k, 2 * k)] = -1.0
                if m:
                    expected[(m * k, -2 * k)] = 1.0
        assert {(n, r2): complex(re, im)
                for n, r2, re, im in obj["series"]["terms"]} == expected

    @pytest.mark.parametrize("name,top", [("zeta_bar", -1.0), ("p_bar", 20.0)])
    def test_annulus_expansions_follow_the_q_order(self, runner, name, top):
        result = runner.invoke(main, ["series", name, "--q-order", "20"])
        assert result.exit_code == 0
        series = json.loads(result.output)["series"]
        assert series["q_order"] == 20
        terms = {(n, r2): complex(re, im)
                 for n, r2, re, im in series["terms"]}
        assert max(n for n, _ in terms) == 20
        assert terms[(0, 40)] == top  # x^20

    def test_annulus_past_the_y_guard_is_usage_error(self, runner):
        result = runner.invoke(main, ["series", "p_bar", "--q-order", "201"])
        assert result.exit_code == 2
        assert "exceeds the guard" in result.output

    @pytest.mark.parametrize("q_order", ["60000", "100000000"])
    def test_theta_past_the_y_guard_is_refused_before_its_block(
            self, runner, q_order):
        # the dense blocks would take about 300 MB and 20 TiB
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["series", "theta",
                                          "--q-order", q_order])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert "exceeds the guard" in result.output
        assert peak < 64 << 20

    def test_zeta_tilde_prints_u_terms(self, runner):
        # 2 pi i (1/u + u/12 - 2 q u - 6 q^2 u - u^3/720 + ...), u = 2 pi i t
        result = runner.invoke(main, ["series", "zeta_tilde",
                                      "--q-order", "2"])
        assert result.exit_code == 0
        terms = {(n, r2): complex(re, im) for n, r2, re, im
                 in json.loads(result.output)["series"]["terms"]}
        two_pi_i = 2j * math.pi
        for key, c in {(0, -2): 1, (0, 2): 1 / 12, (0, 6): -1 / 720,
                       (1, 2): -2, (2, 2): -6}.items():
            assert terms[key] == pytest.approx(two_pi_i * c, rel=1e-15)

    def test_deterministic(self, runner):
        a = runner.invoke(main, ["series", "discriminant", "--q-order", "8"])
        b = runner.invoke(main, ["series", "discriminant", "--q-order", "8"])
        assert a.output == b.output


class TestEval:
    def test_zeta_bar(self, runner):
        result = runner.invoke(
            main, ["eval", "zeta_bar", "--tau", "0.2+1.1i",
                   "--alpha", "0.31"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        pt = EvalPoint(0.2 + 1.1j, 0.31)
        expected = zeta_bar_eval(pt.y, pt.q)[0]
        assert obj["value"][0] == pytest.approx(expected.real, abs=1e-12)
        assert obj["value"][1] == pytest.approx(expected.imag, abs=1e-12)

    @pytest.mark.parametrize("name", ["phi_0_1", "phi_12_1"])
    @pytest.mark.parametrize("tau, alpha", [
        (0.2 + 1.1j, 0.31 + 0.07j), (-0.45 + 0.8j, 0.12 - 0.1j)])
    def test_weak_forms_match_theta_quotients(self, runner, name, tau,
                                              alpha):
        # phi_{0,1} = 4 sum_{i=2,3,4} (theta_i(z) / theta_i(0))^2 with
        # z = pi alpha, and phi_{12,1} = eta^24 phi_{0,1}
        result = runner.invoke(main, ["eval", name, "--tau", f"{tau}",
                                      "--alpha", f"{alpha}"])
        assert result.exit_code == 0
        value = complex(*json.loads(result.output)["value"])
        with mpmath.workdps(30):
            nome = mpmath.exp(1j * mpmath.pi * tau)
            z = mpmath.pi * alpha
            ref = 4 * sum((mpmath.jtheta(i, z, nome)
                           / mpmath.jtheta(i, 0, nome)) ** 2
                          for i in (2, 3, 4))
            if name == "phi_12_1":
                ref *= (mpmath.exp(2j * mpmath.pi * tau / 24)
                        * mpmath.qp(nome ** 2)) ** 24
            ref = complex(ref)
        assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_theta_past_the_y_guard_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "theta", "--tau", "1i",
                                      "--alpha", "0.1",
                                      "--q-order", "20200"])
        assert result.exit_code == 2
        assert "exceeds the guard" in result.output

    def test_accepts_j_suffix(self, runner):
        result = runner.invoke(
            main, ["eval", "eta", "--tau", "0.2+1.1j"])
        assert result.exit_code == 0

    def test_rejects_lower_half_plane(self, runner):
        result = runner.invoke(
            main, ["eval", "eta", "--tau", "0.2-1.1i"])
        assert result.exit_code == 2

    def test_unknown_function(self, runner):
        result = runner.invoke(main, ["eval", "nope", "--tau", "1i"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name", ["zeta_bar", "p_bar", "zeta_tilde",
                                      "wp1", "wp2", "wp3", "wp4"])
    def test_pole_is_usage_error(self, runner, name):
        # alpha = 0 lies in Z + Z tau, a pole of each of these
        result = runner.invoke(
            main, ["eval", name, "--tau", "0.1+1.2i", "--alpha", "0"])
        assert result.exit_code == 2
        assert f"{name} has a pole at alpha = 0" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("name, tau, alpha", [
        ("wp2", "0.1+1.2i", "1"), ("wp2", "0.1+1.2i", "-1"),
        ("wp2", "0.1+1.2i", "1.1+1.2i"), ("wp2", "0.1+1.2i", "0.2+2.4i"),
        ("zeta_bar", "1.2i", "1")])
    def test_lattice_point_off_zero_is_usage_error(self, runner, name, tau,
                                                   alpha):
        # rounding keeps each of these off an exact pole: 1.1 - 0.1 is not
        # 1 in floats, so only the typed decimals show alpha in Z + Z tau
        result = runner.invoke(
            main, ["eval", name, "--tau", tau, "--alpha", alpha])
        assert result.exit_code == 2
        assert f"{name} has a pole at alpha = {alpha}" in result.output

    @pytest.mark.parametrize("alpha", ["nan", "1e999"])
    def test_non_finite_alpha_is_usage_error(self, runner, alpha):
        result = runner.invoke(
            main, ["eval", "wp2", "--tau", "0.1+1.2i", "--alpha", alpha])
        assert result.exit_code == 2
        assert "is not a finite complex number" in result.output

    @pytest.mark.parametrize("name", ["zeta_bar", "wp3"])
    def test_small_im_tau_is_usage_error(self, runner, name):
        # |q| = e^(-2 pi 0.0005) = 0.99686: the row sum would need some 10^4
        # shells to reach its tolerance
        result = runner.invoke(
            main, ["eval", name, "--tau", "0.0005i", "--alpha", "0.3"])
        assert result.exit_code == 2
        assert "did not converge" in result.output
        assert "|q| = 0.99686" in result.output
        assert "Traceback" not in result.output

    def test_small_im_tau_within_reach_evaluates(self, runner):
        result = runner.invoke(
            main, ["eval", "wp3", "--tau", "0.005i", "--alpha", "0.3"])
        assert result.exit_code == 0
        assert all(map(math.isfinite, json.loads(result.output)["value"]))

    @pytest.mark.parametrize("name", ["zeta_bar", "p_bar", "zeta_tilde",
                                      "wp1", "wp2", "wp3", "wp4"])
    def test_row_sum_reports_its_error_bound(self, runner, name):
        # at |q| = 0.969 the row sum loses most of its digits to rounding
        # and to the tail its stopping rule leaves; the bound says how many
        result = runner.invoke(
            main, ["eval", name, "--tau", "0.005i", "--alpha", "0.3"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert 0 < obj["truncation_bound"] < 1e-6 * max(
            1.0, abs(complex(*obj["value"])))

    def test_point_off_the_lattice_evaluates(self, runner):
        result = runner.invoke(
            main, ["eval", "wp2", "--tau", "0.1+1.2i", "--alpha", "0.31"])
        assert result.exit_code == 0
        assert abs(complex(*json.loads(result.output)["value"])) < 1e3

    @pytest.mark.parametrize("name, alpha", [
        ("phi_m2_1", "0.3+30i"), ("wp2", "0.3+200i"),
        ("zeta_bar", "0.3+120i")])
    def test_y_out_of_double_range_is_usage_error(self, runner, name,
                                                  alpha):
        # off Z + Z i, but y^(r2/2) (phi_m2_1) or x (wp2, zeta_bar)
        # underflows to 0 at this Im alpha: no pole, and no value either
        result = runner.invoke(
            main, ["eval", name, "--tau", "1i", "--alpha", alpha])
        assert result.exit_code == 2
        assert "leaves the double range" in result.output
        assert "pole" not in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("name", ["discriminant", "phi_10_1",
                                      "phi_12_1"])
    def test_q_order_that_keeps_no_term_is_usage_error(self, runner, name):
        # each starts at q^1: at q-order 0 there is no shell to bound by
        result = runner.invoke(main, ["eval", name, "--tau", "0.1+0.9i",
                                      "--alpha", "0.3", "--q-order", "0"])
        assert result.exit_code == 2
        assert f"{name} keeps no term at q-order 0" in result.output

    @pytest.mark.parametrize("name", ["e4", "wp3", "phi_m2_1"])
    @pytest.mark.parametrize("far", [("1e17+1i", "0.25"),
                                     ("1i", f"{0.25 + 2 ** 40!r}")],
                             ids=["far-tau", "far-alpha"])
    def test_far_real_parts_are_reduced_exactly(self, runner, name, far):
        # Re tau and Re alpha are reduced mod 24 before q and y are formed
        def value(tau, alpha):
            result = runner.invoke(main, ["eval", name, "--tau", tau,
                                          "--alpha", alpha])
            assert result.exit_code == 0
            return complex(*json.loads(result.output)["value"])

        near = value("1i", "0.25")
        assert abs(value(*far) - near) <= 1e-12 * max(1.0, abs(near))


class TestVerify:
    def test_triple_product_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "triple_product"])
        assert result.exit_code == 0
        assert "[PASS]" in result.output
        assert "[FAIL]" not in result.output

    def test_rows_carry_the_suite_that_produced_them(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "triple_product", "--format", "json"])
        assert result.exit_code == 0
        suites = {obj["suite"] for obj in json.loads(result.output)}
        assert suites == {"triple_product"}

    def test_unknown_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nope"])
        assert result.exit_code == 2

    def test_json_format_round_trips(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "elliptic", "--format", "json"])
        assert result.exit_code == 0
        rows = rows_from_json(result.output)
        assert rows
        assert all(r.passed for r in rows)

    def test_gl11_reports_factorization_and_coordinate_berezinian(
            self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "gl11", "--format", "json"])
        assert result.exit_code == 0
        rows = {obj["identity"]: obj for obj in json.loads(result.output)}
        for identity in ("action-matrix-factorization",
                         "coordinate-matrix-berezinian"):
            assert rows[identity]["pass"], rows[identity]

    def test_gl11_point_rows_are_exact(self, runner, tmp_path):
        result = runner.invoke(
            main, ["verify", "--suite", "gl11", "--format", "json"])
        assert result.exit_code == 0
        # every row but the random-jet round trip is an exact identity
        # over the rationals, which carries no (tau, alpha)
        exact = {obj["identity"]: obj for obj in json.loads(result.output)
                 if obj["identity"] != "jet-coordinate-roundtrip"}
        assert len(exact) == 4
        for obj in exact.values():
            assert (obj["residual"], obj["tolerance"], obj["point"]) \
                == (0.0, 0.0, None), obj
        src = tmp_path / "rows.json"
        src.write_text(result.output)
        table = runner.invoke(
            main, ["report", "--input", str(src), "--format", "csv"])
        assert table.exit_code == 0
        csv_rows = {r["identity"]: r
                    for r in csv.DictReader(io.StringIO(table.output))}
        for identity in exact:
            row = csv_rows[identity]
            assert (row["residual"], row["tolerance"], row["point"],
                    row["pass"]) == ("0", "0", "", "true"), row

    def test_csv_format_header(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "flatness", "--format", "csv"])
        assert result.exit_code == 0
        head = result.output.splitlines()[0]
        assert head == "suite,identity,paper_ref,element,point,residual," \
            "tolerance,pass,elapsed_s"

    def test_zero_tolerance_fails(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "super_zeta", "--tolerance", "0"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--suite", "flatness", "--format", "json",
                   "--output", str(out)])
        assert result.exit_code == 0
        rows = rows_from_json(out.read_text())
        assert rows and all(r.passed for r in rows)


class TestReport:
    def test_json_to_csv(self, runner, tmp_path):
        verify = runner.invoke(
            main, ["verify", "--suite", "flatness", "--format", "json"])
        src = tmp_path / "rows.json"
        src.write_text(verify.output)
        result = runner.invoke(
            main, ["report", "--input", str(src), "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("suite,identity")
        assert len(lines) >= 2

    def test_json_round_trip_keeps_every_field(self, runner, tmp_path):
        verify = runner.invoke(
            main, ["verify", "--suite", "flatness", "--format", "json"])
        src = tmp_path / "rows.json"
        src.write_text(verify.output)
        result = runner.invoke(
            main, ["report", "--input", str(src), "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert rows == json.loads(verify.output)
        assert {obj["suite"] for obj in rows} == {"flatness"}

    def test_pass_that_disagrees_with_the_residual_is_rejected(
            self, runner, tmp_path):
        verify = runner.invoke(
            main, ["verify", "--suite", "flatness", "--format", "json"])
        rows = json.loads(verify.output)
        rows[1]["residual"] = 2 * rows[1]["tolerance"] + 1
        src = tmp_path / "rows.json"
        src.write_text(json.dumps(rows))
        result = runner.invoke(
            main, ["report", "--input", str(src), "--format", "csv"])
        assert result.exit_code == 2
        assert f"flatness/{rows[1]['identity']}" in result.output

    def test_rows_carry_their_suite_runtime(self, runner, tmp_path):
        verify = runner.invoke(
            main, ["verify", "--suite", "flatness", "--suite", "cusp",
                   "--format", "json"])
        assert verify.exit_code == 0
        rows = json.loads(verify.output)
        took = {obj["suite"]: obj["elapsed_s"] for obj in rows}
        assert set(took) == {"flatness", "cusp"}
        for obj in rows:
            assert type(obj["elapsed_s"]) is float and obj["elapsed_s"] > 0
            assert obj["elapsed_s"] == took[obj["suite"]]
        src = tmp_path / "rows.json"
        src.write_text(verify.output)
        back = runner.invoke(
            main, ["report", "--input", str(src), "--format", "json"])
        assert json.loads(back.output) == rows
        table = runner.invoke(
            main, ["report", "--input", str(src), "--format", "csv"])
        lines = table.output.strip().splitlines()
        assert lines[0].endswith(",elapsed_s")
        from_csv = sorted({float(line.rsplit(",", 1)[1])
                           for line in lines[1:]})
        assert from_csv == pytest.approx(sorted(took.values()), rel=1e-14)
        pretty = runner.invoke(main, ["report", "--input", str(src)])
        assert pretty.output.count(" elapsed=") == len(rows)

    def test_malformed_report_is_usage_error(self, runner, tmp_path):
        src = tmp_path / "rows.json"
        src.write_text(json.dumps({"a": 1}))
        result = runner.invoke(main, ["report", "--input", str(src)])
        assert result.exit_code == 2
        assert "bad report file" in result.output

    @staticmethod
    def _row_at(tmp_path, point):
        src = tmp_path / "rows.json"
        src.write_text(json.dumps([{
            "suite": "elliptic", "identity": "id", "paper_ref": "ref",
            "element": "el", "point": point, "residual": 0.0,
            "tolerance": 1e-6, "pass": True, "elapsed_s": 0.5}]))
        return str(src)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("point", [[1, "x"], "ab", [1, "x", 0, 0],
                                       [0.1, 1.2, 0.3], [True, 1, 0, 0]])
    def test_malformed_point_is_usage_error(self, runner, tmp_path, fmt,
                                            point):
        result = runner.invoke(main, ["report", "--input",
                                      self._row_at(tmp_path, point),
                                      "--format", fmt])
        assert result.exit_code == 2, result.output
        assert "bad report file" in result.output
        assert "four numbers" in result.output

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("field", ["suite", "identity", "paper_ref",
                                       "element"])
    def test_non_string_field_is_usage_error(self, runner, tmp_path, fmt,
                                             field):
        # one row holds a number where the other holds a string: sorting
        # the two rows would compare an int with a str
        rows = [{"suite": "elliptic", "identity": "id", "paper_ref": "ref",
                 "element": "el", "point": None, "residual": 0.0,
                 "tolerance": 0.0, "pass": True, field: value}
                for value in (1, "a")]
        src = tmp_path / "rows.json"
        src.write_text(json.dumps(rows))
        result = runner.invoke(main, ["report", "--input", str(src),
                                      "--format", fmt])
        assert result.exit_code == 2, result.output
        assert "bad report file" in result.output
        assert f"a row's {field} is a string, got 1" in result.output

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("field", ["residual", "tolerance", "elapsed_s"])
    def test_non_number_field_is_usage_error(self, runner, tmp_path, fmt,
                                             field):
        # "0" would read as the number 0.0 and change the file on the
        # round trip; a bool is not a JSON number either
        for value in ("0", True):
            row = {"suite": "elliptic", "identity": "id", "paper_ref": "ref",
                   "element": "el", "point": None, "residual": 0.0,
                   "tolerance": 0.0, "pass": True, "elapsed_s": 0.5,
                   field: value}
            src = tmp_path / "rows.json"
            src.write_text(json.dumps([row]))
            result = runner.invoke(main, ["report", "--input", str(src),
                                          "--format", fmt])
            assert result.exit_code == 2, result.output
            assert "bad report file" in result.output
            assert f"a row's {field} is a number, got {value!r}" \
                in result.output

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_point_is_read_as_four_floats(self, runner, tmp_path, fmt):
        result = runner.invoke(main, ["report", "--input",
                                      self._row_at(tmp_path, [0.25, 1, 0, 3]),
                                      "--format", fmt])
        assert result.exit_code == 0
        assert {"json": "0.25,\n      1.0,\n      0.0,\n      3.0",
                "csv": ",0.25;1;0;3,",
                "pretty": "@ (0.25;1;0;3)"}[fmt] in result.output

    def test_missing_input_exits_3(self, runner):
        result = runner.invoke(
            main, ["report", "--input", "/definitely/not/here.json"])
        assert result.exit_code == 3


class TestCharacter:
    def test_packaged_lattice(self, runner):
        import superchar
        from pathlib import Path
        lattice = Path(superchar.__file__).parent / "data" / "e8.json"
        result = runner.invoke(
            main, ["character", "--lattice", str(lattice),
                   "--q-order", "3"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["rank"] == 8
        assert obj["index"] == "2"

    def test_negative_q_order_is_usage_error(self, runner):
        import superchar
        from pathlib import Path
        lattice = Path(superchar.__file__).parent / "data" / "e8.json"
        result = runner.invoke(
            main, ["character", "--lattice", str(lattice), "--q-order", "-1"])
        assert result.exit_code == 2
        assert "q-order" in result.output

    def test_missing_lattice_exits_3(self, runner):
        result = runner.invoke(
            main, ["character", "--lattice", "/nope.json"])
        assert result.exit_code == 3

    def test_rank_past_the_y_guard_is_usage_error(self, runner, tmp_path):
        # E8^51 is the smallest sum of E8s whose y-exponents pass the guard
        e8 = json.loads((pathlib.Path(superchar.__file__).parent / "data"
                         / "e8.json").read_text())["gram"]
        rank = 8 * 51
        gram = [[0] * rank for _ in range(rank)]
        for b in range(0, rank, 8):
            for i in range(8):
                gram[b + i][b:b + 8] = e8[i]
        src = tmp_path / "e8x51.json"
        src.write_text(json.dumps({"rank": rank, "gram": gram}))
        result = runner.invoke(main, ["character", "--lattice", str(src),
                                      "--q-order", "0"])
        assert result.exit_code == 2
        assert "exceeds the guard" in result.output

    @pytest.mark.parametrize("entry", [0.5, float("inf")])
    def test_non_integral_gram_is_usage_error(self, runner, tmp_path, entry):
        src = tmp_path / "lattice.json"
        src.write_text(json.dumps({"rank": 2,
                                   "gram": [[2, entry], [entry, 2]]}))
        result = runner.invoke(main, ["character", "--lattice", str(src)])
        assert result.exit_code == 2
        assert "bad lattice file" in result.output


def test_import_leaves_mpmath_out():
    # mpmath is a test-only dependency: the package computes B_w and 2 pi
    # itself
    code = "import sys, superchar.cli; print('mpmath' in sys.modules)"
    src = str(pathlib.Path(superchar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestConfig:
    def test_config_sets_q_order(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_order": 5}))
        result = runner.invoke(
            main, ["--config", str(cfg), "series", "eta"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["series"]["q_order"] == 5

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_order": 5}))
        result = runner.invoke(
            main, ["--config", str(cfg), "series", "eta",
                   "--q-order", "7"])
        obj = json.loads(result.output)
        assert obj["series"]["q_order"] == 7

    def test_config_tolerance_tightens_rows(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 0}))
        result = runner.invoke(
            main, ["--config", str(cfg), "verify", "--suite", "super_zeta"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output

    @pytest.mark.parametrize("value", ["nan", "-1e-9"])
    def test_nan_or_negative_tolerance_is_usage_error(self, runner, value):
        result = runner.invoke(
            main, ["verify", "--suite", "cusp", "--tolerance", value])
        assert result.exit_code == 2
        assert "tolerance must be >= 0" in result.output

    # json writes and reads a float NaN as the bare literal NaN
    @pytest.mark.parametrize("value", [math.nan, -1])
    def test_nan_or_negative_config_tolerance_is_usage_error(
            self, runner, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": value}))
        result = runner.invoke(
            main, ["--config", str(cfg), "verify", "--suite", "cusp"])
        assert result.exit_code == 2
        assert "tolerance must be >= 0" in result.output

    def test_bad_config_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["--config", str(cfg), "series", "eta"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("config, args", [
        ({"format": "xml"}, ["verify", "--suite", "flatness"]),
        ({"q_order": "abc"}, ["series", "eta"]),
        ({"q_order": 2.7}, ["series", "eta"]),
        ({"q_order": True}, ["series", "eta"]),
        ({"q_order": None}, ["series", "eta"]),
        ({"tolerance": "1e-3"}, ["verify", "--suite", "flatness"]),
        ({"tolerance": True}, ["verify", "--suite", "flatness"]),
    ], ids=["format", "q_order", "q_order-float", "q_order-bool",
            "q_order-null", "tolerance-string", "tolerance-bool"])
    def test_bad_config_value_is_usage_error(self, runner, tmp_path, config,
                                             args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(cfg)] + args)
        assert result.exit_code == 2
        assert f"bad {next(iter(config))} in config" in result.output
