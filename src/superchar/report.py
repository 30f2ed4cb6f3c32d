"""Verification report rows and serialization (JSON / CSV / pretty)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass


CSV_HEADER = ["suite", "identity", "paper_ref", "element", "point",
              "residual", "tolerance", "pass", "elapsed_s"]


def format_sig(x, digits=15):
    """Format a float with a fixed number of significant digits."""
    return f"{x:.{digits}g}"


@dataclass
class VerificationRow:
    """One verified identity at one point (or one exact check); it passes
    when ``residual <= tolerance``.  ``suite`` names the suite of
    ``superchar.checks`` that produced the row and ``elapsed_s`` the wall
    time in seconds of that suite's call."""

    identity: str
    paper_ref: str
    element: str
    residual: float
    tolerance: float
    point: tuple | None = None  # (re tau, im tau, re alpha, im alpha)
    suite: str = ""
    elapsed_s: float | None = None

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self):
        return self.residual <= self.tolerance

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "identity": self.identity,
            "paper_ref": self.paper_ref,
            "element": self.element,
            "point": list(self.point) if self.point is not None else None,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "elapsed_s": self.elapsed_s,
        }

    def point_str(self):
        if self.point is None:
            return ""
        return ";".join(format_sig(float(v)) for v in self.point)


def sort_rows(rows):
    """Stable deterministic ordering: (suite, identity, element), points kept
    in their original order within each group."""
    return sorted(rows, key=lambda r: (r.suite, r.identity, r.element))


def rows_to_json(rows):
    return json.dumps([r.to_json_obj() for r in sort_rows(rows)], indent=2)


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sort_rows(rows):
        writer.writerow([
            r.suite, r.identity, r.paper_ref, r.element, r.point_str(),
            format_sig(r.residual), format_sig(r.tolerance),
            "true" if r.passed else "false",
            "" if r.elapsed_s is None else format_sig(r.elapsed_s),
        ])
    return buf.getvalue()


def rows_to_pretty(rows):
    lines = []
    for r in sort_rows(rows):
        status = "PASS" if r.passed else "FAIL"
        pt = f" @ ({r.point_str()})" if r.point is not None else ""
        took = "" if r.elapsed_s is None else \
            f" elapsed={format_sig(r.elapsed_s, 3)}s"
        lines.append(
            f"[{status}] {r.suite}/{r.identity} [{r.paper_ref}] {r.element}{pt}"
            f"  residual={format_sig(r.residual, 6)} tol={format_sig(r.tolerance, 6)}"
            f"{took}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def emit_report(rows, fmt):
    if fmt == "json":
        return rows_to_json(rows)
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "pretty":
        return rows_to_pretty(rows)
    raise ValueError(f"unknown report format: {fmt!r}")


def is_number(value):
    """Whether ``value`` is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _point(value):
    """A row's point as four floats; ValueError if it is not four numbers."""
    if not (isinstance(value, list) and len(value) == 4
            and all(map(is_number, value))):
        raise ValueError(f"a point is a list of four numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _field(value, key, kind):
    """A row's field ``key``; ValueError if it is not a ``kind``, which is
    "string" or "number"."""
    if not (is_number(value) if kind == "number" else isinstance(value, str)):
        raise ValueError(f"a row's {key} is a {kind}, got {value!r}")
    return value


def rows_from_json(text):
    """Rows from a JSON list of row objects; ValueError if it is not one, if
    a row's suite, identity, paper_ref or element is not a string, if its
    residual, tolerance or elapsed_s (unless null) is not a number, if its
    point is not four numbers, or if its ``pass`` disagrees with its
    residual and tolerance."""
    data = json.loads(text)
    if not isinstance(data, list) or \
            not all(isinstance(obj, dict) for obj in data):
        raise ValueError("a report is a JSON list of row objects")
    rows = []
    for obj in data:
        row = VerificationRow(
            suite=_field(obj.get("suite", ""), "suite", "string"),
            identity=_field(obj["identity"], "identity", "string"),
            paper_ref=_field(obj.get("paper_ref", ""), "paper_ref", "string"),
            element=_field(obj.get("element", ""), "element", "string"),
            point=None if obj.get("point") is None else _point(obj["point"]),
            residual=_field(obj["residual"], "residual", "number"),
            tolerance=_field(obj["tolerance"], "tolerance", "number"),
            elapsed_s=None if obj.get("elapsed_s") is None
            else float(_field(obj["elapsed_s"], "elapsed_s", "number")),
        )
        if obj["pass"] is not row.passed:
            raise ValueError(
                f"row {row.suite}/{row.identity} {row.element}: pass "
                f"{obj['pass']!r} disagrees with residual {row.residual!r} "
                f"<= tolerance {row.tolerance!r}")
        rows.append(row)
    return rows
