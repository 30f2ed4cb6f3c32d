import json

from superchar.report import (
    VerificationRow, emit_report, format_sig, rows_from_json, rows_to_csv,
    rows_to_json, sort_rows,
)


def row(suite="s", identity="i", element="e", residual=0.0, tol=1e-9,
        point=None):
    return VerificationRow(suite, identity, "ref", element, point,
                           residual, tol, residual <= tol)


class TestFormatSig:
    def test_fifteen_digits(self):
        assert format_sig(1.0 / 3.0).startswith("0.333333333333333")
        assert format_sig(0.0) == "0"

    def test_small_numbers_keep_magnitude(self):
        assert "e-12" in format_sig(2.5e-12)


class TestSorting:
    def test_sorted_by_suite_identity_element(self):
        rows = [row("b", "x", "1"), row("a", "z", "2"), row("a", "y", "3"),
                row("a", "y", "1")]
        ordered = sort_rows(rows)
        keys = [(r.suite, r.identity, r.element) for r in ordered]
        assert keys == sorted(keys)

    def test_stable_for_equal_keys(self):
        r1 = row("a", "i", "e", residual=1.0, tol=2.0)
        r2 = row("a", "i", "e", residual=3.0, tol=4.0)
        ordered = sort_rows([r1, r2])
        assert ordered[0].residual == 1.0


class TestSerialization:
    def test_json_round_trip(self):
        rows = [row(residual=1e-10, point=(0.1, 1.2, 0.0, 0.0)),
                row("t", "u", "v", residual=2.0, tol=1.0)]
        back = rows_from_json(rows_to_json(rows))
        assert len(back) == 2
        assert back[0].passed and not back[1].passed
        assert back[0].point == (0.1, 1.2, 0.0, 0.0)

    def test_json_row_schema(self):
        obj = json.loads(rows_to_json([row()]))
        assert set(obj[0]) >= {"identity", "paper_ref", "element",
                               "residual", "tolerance", "pass"}

    def test_csv_header_and_rows(self):
        text = rows_to_csv([row(), row(residual=5.0, tol=1.0)])
        lines = text.strip().splitlines()
        assert lines[0] == ("suite,identity,paper_ref,element,point,"
                            "residual,tolerance,pass,elapsed_s")
        assert len(lines) == 3
        # a row built outside a suite has no runtime: the column is empty
        assert lines[1].endswith(",true,")

    def test_elapsed_round_trips(self):
        timed = row()
        timed.elapsed_s = 0.1 + 0.2
        back = rows_from_json(rows_to_json([timed, row("t")]))
        assert back[0].elapsed_s == 0.1 + 0.2
        assert back[1].elapsed_s is None
        assert json.loads(rows_to_json([row()]))[0]["elapsed_s"] is None

    def test_pretty_has_pass_fail_markers(self):
        text = emit_report([row(), row(residual=5.0, tol=1.0)], "pretty")
        assert "[PASS]" in text
        assert "[FAIL]" in text
