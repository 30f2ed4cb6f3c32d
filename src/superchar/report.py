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
    """One verified identity at one point (or one exact check).  ``suite``
    names the suite of ``superchar.checks`` that produced the row and
    ``elapsed_s`` the wall time in seconds of that suite's call; a check
    called outside a suite leaves them empty and None."""

    suite: str
    identity: str
    paper_ref: str
    element: str
    point: tuple | None  # (re tau, im tau, re alpha, im alpha) or None
    residual: float
    tolerance: float
    passed: bool
    elapsed_s: float | None = None

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


def rows_from_json(text):
    """Rows from a JSON list of row objects; ValueError if it is not one."""
    data = json.loads(text)
    if not isinstance(data, list) or \
            not all(isinstance(obj, dict) for obj in data):
        raise ValueError("a report is a JSON list of row objects")
    rows = []
    for obj in data:
        rows.append(VerificationRow(
            suite=obj.get("suite", ""),
            identity=obj["identity"],
            paper_ref=obj.get("paper_ref", ""),
            element=obj.get("element", ""),
            point=tuple(obj["point"]) if obj.get("point") is not None else None,
            residual=float(obj["residual"]),
            tolerance=float(obj["tolerance"]),
            passed=bool(obj["pass"]),
            elapsed_s=None if obj.get("elapsed_s") is None
            else float(obj["elapsed_s"]),
        ))
    return rows
