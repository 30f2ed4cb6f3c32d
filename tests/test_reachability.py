"""Every function in ``superchar`` is reached by a command, or has a stated
reason to stay.

The five commands run in-process under a ``sys.setprofile`` hook on freshly
imported ``superchar`` modules, so that functions run at import and caches
filled by other tests count as they would in a new process.  A function is
identified by its file, first line and name; comprehensions, generator
expressions and lambdas belong to the function that holds them, and a
function nested in an unreached one is reported as its parent.
"""

import json
import pathlib
import sys
import types

from click.testing import CliRunner

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superchar"
Q_ORDER = "10"

#: the functions no command reaches, each with the reason it stays
ALLOWED = {
    # perfbench reads or patches these by name
    "series_core.QYSeries.coeffs": "perfbench",
    "series_core.QYSeries.invert": "perfbench",
    "superconformal.AlgebraVector.is_zero": "perfbench",
    "jacobi_forms.jacobi_eisenstein_numeric": "perfbench",
    "jacobi_forms._completions": "perfbench",
    "superconformal.jet_matrix_identity_residual": "perfbench",
    "superconformal.jacobi_residual": "perfbench",
    "superconformal.homomorphism_residual": "perfbench",
    # references that tests compare the package against
    "jacobi_forms.phi_10_1_eisenstein_numeric": "oracle",
    "elliptic.p_bar_prime_eval": "oracle",
    "series_core.QYSeries.__eq__": "oracle",
    "series_core.QYSeries.y_substitute_one": "oracle",
    "grassmann.GrassmannNumber.components": "oracle",
    # pytest prints these when a test fails
    "series_core.EvalPoint.__repr__": "repr",
    "grassmann.GrassmannNumber.__repr__": "repr",
    "grassmann.SuperMatrix.__repr__": "repr",
    "series_core.QYSeries.__repr__": "repr",
    "superconformal.AlgebraVector.__repr__": "repr",
}

D4_GRAM = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _defined_functions():
    """{(file, first line, name): "module.qualname"} for every function in
    the package source."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name.startswith("<"):
                walk(const, module, prefix)
                continue
            qualname = prefix + const.co_name
            found[(const.co_filename, const.co_firstlineno,
                   const.co_name)] = f"{module}.{qualname}"
            walk(const, module, qualname + ".")

    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        walk(code, path.stem, "")
    return found


def _profiled_commands(tmp_path):
    """The keys of every package function that the commands enter."""
    from superchar.cli import _eval_registry, _series_registry

    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps({"rank": 4, "gram": D4_GRAM}))
    e8 = str(SRC / "data" / "e8.json")
    rows = tmp_path / "rows.json"
    commands = [["verify", "--format", "json", "--output", str(rows)]]
    commands += [["report", "--input", str(rows), "--format", fmt]
                 for fmt in ("json", "csv", "pretty")]
    commands += [["series", name, "--q-order", Q_ORDER]
                 for name in _series_registry(0)]
    commands += [["eval", name, "--tau", "0.1+1.2i", "--alpha", "0.31+0.02i",
                  "--q-order", Q_ORDER] for name in _eval_registry(0)]
    commands += [["character", "--lattice", e8, "--mode", mode,
                  "--q-order", Q_ORDER] for mode in ("product", "closed")]
    commands += [["character", "--lattice", str(d4), "--q-order", Q_ORDER]]

    src = str(SRC)
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                reached.add((code.co_filename, code.co_firstlineno,
                             code.co_name))

    saved = {name: mod for name, mod in sys.modules.items()
             if name == "superchar" or name.startswith("superchar.")}
    for name in saved:
        del sys.modules[name]
    sys.setprofile(hook)
    try:
        from superchar.cli import main
        runner = CliRunner()
        results = [(cmd, runner.invoke(main, cmd)) for cmd in commands]
    finally:
        sys.setprofile(None)
        for name in [n for n in sys.modules
                     if n == "superchar" or n.startswith("superchar.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    for cmd, result in results:
        assert result.exit_code == 0, (cmd, result.output, result.exception)
    return reached


def test_every_unreached_function_is_allowed(tmp_path):
    defined = _defined_functions()
    unreached = {defined[key]
                 for key in defined.keys() - _profiled_commands(tmp_path)}
    outermost = {name for name in unreached
                 if not any(name.startswith(parent + ".")
                            for parent in unreached)}
    assert sorted(outermost - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - set(defined.values())) == []
