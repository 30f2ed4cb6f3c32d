import json

import pytest
from click.testing import CliRunner

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
        assert terms == ref.series.coeffs

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
        expected = zeta_bar_eval(pt.y, pt.q)
        assert obj["value"][0] == pytest.approx(expected.real, abs=1e-12)
        assert obj["value"][1] == pytest.approx(expected.imag, abs=1e-12)

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

    def test_bad_config_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["--config", str(cfg), "series", "eta"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("config, args", [
        ({"format": "xml"}, ["verify", "--suite", "flatness"]),
        ({"q_order": "abc"}, ["series", "eta"]),
    ], ids=["format", "q_order"])
    def test_bad_config_value_is_usage_error(self, runner, tmp_path, config,
                                             args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(cfg)] + args)
        assert result.exit_code == 2
        assert f"bad {next(iter(config))} in config" in result.output
