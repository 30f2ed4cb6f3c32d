"""The benchmark's output checker (``perfbench/workloads.py``) on misses of
the size float rounding leaves.

Every integer series is now exact, so no workload output reaches the
checker's ``inexact`` class on its own; here such a miss is put into an
exact output by hand.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import workloads  # noqa: E402

from superchar import cli  # noqa: E402


def _check(op, doc):
    return workloads.check(op, {"exit": 0, "stdout": json.dumps(doc),
                                "error": None})


def _bumped(doc, n, by):
    doc = json.loads(json.dumps(doc))
    next(t for t in doc["series"]["terms"] if t[0] == n)[2] += by
    return doc


def test_rounding_sized_miss_is_inexact_and_a_larger_one_failed():
    op = workloads.Op("series", "phi_10_1", name="phi_10_1", q_order=40)
    workloads.References().prepare(op)
    majorant = op.ref[3]
    doc = cli._series_json(cli._series_registry(40)["phi_10_1"]())
    assert _check(op, doc)[0] == workloads.OK
    # one unit off at q^33, where the float kernel first missed
    status, _, note = _check(op, _bumped(doc, 33, 1.0))
    assert status == workloads.INEXACT and "q^33" in note
    # a unit off where the majorant is too small for rounding to explain it
    assert workloads.ROUNDING_RTOL * majorant[3] < 0.5
    assert _check(op, _bumped(doc, 3, 1.0))[0] == workloads.FAILED
    # far more than rounding at q^33
    big = 10 * workloads.ROUNDING_RTOL * majorant[33]
    assert _check(op, _bumped(doc, 33, big))[0] == workloads.FAILED
