"""What the benchmark in ``perfbench/`` needs of the package.

perfbench wraps package functions by name to time its layers, and calls
the mode-algebra and GL(1|1) functions directly.  A change to the package
that drops or renames one of them fails here, and not only in the
benchmark's own tests.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from superchar import (  # noqa: E402
    characters, cli, elliptic, grassmann, jacobi_forms, report, series_core,
    superconformal,
)

MODULES = (characters, cli, elliptic, grassmann, jacobi_forms, report,
           series_core, superconformal)


def test_every_name_the_tracer_wraps_resolves_and_is_restored():
    before = [dict(vars(m)) for m in MODULES] + [dict(cli.SUITES)]
    tracer = spans.Tracer()
    try:
        spans.install(tracer, cli)
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in MODULES] + [dict(cli.SUITES)] == before


@pytest.mark.parametrize("kind", ["jacobi", "homomorphism", "nabla", "jets"])
def test_one_item_of_each_algebra_op(tmp_path, kind):
    op = next(op for op in workloads.AlgebraScan(1, tmp_path).make_pass()
              if op.kind == kind)
    op.args["items"] = op.args["items"][:1]
    out = workloads.Runner(cli).run(op)
    assert out["error"] is None
    status, _, note = workloads.check(op, out)
    assert status == workloads.OK, note
