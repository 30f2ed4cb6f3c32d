"""Command line interface: inspect series, evaluate at points, run
verification suites, compute lattice characters, and reformat reports.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import cmath
import json
import sys
from fractions import Fraction

import click

from . import characters as ch
from . import elliptic as el
from . import jacobi_forms as jf
from .checks import SUITES
from .grassmann import berezinian  # noqa: F401 (perfbench/spans.py wraps it)
from .report import emit_report, format_sig, is_number, rows_from_json
from .series_core import DEFAULT_Q_ORDER, EvalPoint

DEFAULTS = {"q_order": DEFAULT_Q_ORDER, "format": "pretty"}
FORMATS = ("json", "csv", "pretty")


def _parse_complex(text):
    try:
        z = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise click.UsageError(f"cannot parse complex number {text!r}")
    if not cmath.isfinite(z):
        raise click.UsageError(f"{text!r} is not a finite complex number")
    return z


def _setting(ctx, flag_value, key, convert):
    """``convert`` of the flag if given, else of the config value of
    ``key``, else of its default (None for a key without one); a value it
    rejects, which can only come from the config file, is a usage error."""
    value = ctx.obj.get(key, DEFAULTS.get(key)) if flag_value is None \
        else flag_value
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise click.UsageError(f"bad {key} in config: {value!r}")


def _int(value):
    """``value`` if it is an int and not a bool, else TypeError."""
    if not (is_number(value) and isinstance(value, int)):
        raise TypeError(value)
    return value


def _float(value):
    """None stays None, a number (not a bool) becomes a float."""
    if value is not None and not is_number(value):
        raise TypeError(value)
    return value if value is None else float(value)


def _q_order(ctx, flag_value):
    n_q = _setting(ctx, flag_value, "q_order", _int)
    if n_q < 0:
        raise click.UsageError(f"q-order must be >= 0, got {n_q}")
    return n_q


def _format(value):
    if value not in FORMATS:
        raise ValueError(value)
    return value


def _choose(kind, name, registry):
    if name not in registry:
        raise click.UsageError(f"unknown {kind} {name!r}; "
                               f"choices: {', '.join(sorted(registry))}")
    return registry[name]


def _read(path, what, parse):
    """``parse`` of the text of file ``path``: exit 3 if it cannot be
    read, a usage error if it cannot be parsed."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        click.echo(f"error reading {what}: {exc}", err=True)
        sys.exit(3)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"bad {what} file: {exc}")


def _write(text, output):
    """Write a report to the file ``output``, or to stdout if it is None."""
    if not output:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error writing report: {exc}", err=True)
        sys.exit(3)


def _series_text(head, key, s):
    """The JSON document ``head`` with the series ``s`` as its last field
    ``key``: its q-order, y-parity and terms, one term per line as
    ``QYSeries.terms_json`` writes them from the exact block."""
    doc = json.dumps({**head, key: {"q_order": s.q_order,
                                    "half_integral": s.half_integral}})
    return f'{doc[:-2]}, "terms": {s.terms_json()}}}}}'


def _series_json(s):
    """The document that ``series`` prints for ``s``, parsed."""
    return json.loads(_series_text({"q_offset": str(s.q_offset)}, "series", s))


def _series_registry(n_q):
    reg = {
        "eta": lambda: jf.eta_series(n_q),
        "theta": lambda: jf.theta_offset_series(n_q),
        "discriminant": lambda: jf.discriminant_series(n_q),
        "e4": lambda: jf.eisenstein_e4(n_q),
        "e6": lambda: jf.eisenstein_e6(n_q),
        "zeta_bar": lambda: el.zeta_bar_series(n_q, n_q),
        "p_bar": lambda: el.p_bar_series(n_q, n_q),
        "zeta_tilde": lambda: el.zeta_tilde_taylor(7, n_q),
        "triple_product": lambda: ch.triple_product_sum(n_q),
    }
    for k in range(4):
        reg[f"b{k}"] = lambda k=k: el.eisenstein_b(k, n_q)
    for name in ("phi_m1_half", "phi_m2_1", "phi_0_1", "phi_10_1", "phi_12_1"):
        reg[name] = lambda name=name: jf.phi_weak(name, n_q).offset_series
    return reg


#: the ``eval`` functions with a pole at every alpha in Z + Z tau
_LATTICE_POLES = {"zeta_bar", "p_bar", "zeta_tilde",
                  "wp1", "wp2", "wp3", "wp4"}


def _on_lattice(alpha, tau):
    """Whether alpha lies in Z + Z tau, decided exactly on the decimals as
    typed (1.1 - 0.1 is not 1 in floats): n = Im alpha / Im tau and
    Re alpha - n Re tau must both be integers."""
    a_re, a_im, t_re, t_im = (Fraction(repr(x)) for x in (
        alpha.real, alpha.imag, tau.real, tau.imag))
    n = a_im / t_im
    return n.denominator == 1 and (a_re - n * t_re).denominator == 1


def _series_evaluator(name, make):
    """point -> (value, last-shell bound) of ``make()``; a series past the y
    guard, or with no term (no shell to bound by), is a usage error."""
    def run(point):
        try:
            s = make()
        except OverflowError as exc:
            raise click.UsageError(str(exc))
        if not s.rows.size:
            raise click.UsageError(f"{name} keeps no term at q-order "
                                   f"{s.q_order}")
        return s.evaluate(point)
    return run


def _eval_registry(n_q):
    """{name: point -> (value, error bound)}: the last q-shell of a series,
    the rounding and stopping-rule tail of a row sum."""
    reg = {name: _series_evaluator(name, make)
           for name, make in _series_registry(n_q).items()
           if name not in _LATTICE_POLES and name != "triple_product"}
    reg["zeta_bar"] = lambda p: el.zeta_bar_eval(p.y, p.q)
    reg["p_bar"] = lambda p: el.p_bar_eval(p.y, p.q)
    reg["zeta_tilde"] = lambda p: el.zeta_tilde_eval(p.alpha, p.tau)
    for k in (1, 2, 3, 4):
        reg[f"wp{k}"] = lambda p, k=k: el.wp_numeric(k, p.tau, p.alpha)
    return reg


@click.group()
@click.option("--config", "config_path", type=str, default=None,
              help="JSON config file with defaults (q_order, tolerance, "
                   "format); flags take precedence.")
@click.pass_context
def main(ctx, config_path):
    """Series, special functions and verification checks for supertrace
    characters of SUSY lattice vertex algebras."""
    ctx.ensure_object(dict)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            click.echo(f"error reading config: {exc}", err=True)
            sys.exit(3)
        if not isinstance(config, dict):
            raise click.UsageError("config must be a JSON object")
        ctx.obj.update(config)


@main.command()
@click.argument("name")
@click.option("--q-order", type=int, default=None)
@click.pass_context
def series(ctx, name, q_order):
    """Print the truncated series NAME as JSON."""
    make = _choose("series", name, _series_registry(_q_order(ctx, q_order)))
    try:
        obj = make()
    except OverflowError as exc:  # zeta_bar, p_bar: x^(+-q_order)
        raise click.UsageError(str(exc))
    click.echo(_series_text({"q_offset": str(obj.q_offset)}, "series", obj))


@main.command("eval")
@click.argument("name")
@click.option("--tau", required=True, help="complex tau, e.g. '0.1+1.2i'")
@click.option("--alpha", default="0", help="complex alpha")
@click.option("--q-order", type=int, default=None)
@click.pass_context
def eval_cmd(ctx, name, tau, alpha, q_order):
    """Evaluate the function NAME at (tau, alpha); prints value and a
    truncation bound with 15 significant digits."""
    run = _choose("function", name, _eval_registry(_q_order(ctx, q_order)))
    tau_c = _parse_complex(tau)
    alpha_c = _parse_complex(alpha)
    try:
        point = EvalPoint(tau_c, alpha_c)
        if name in _LATTICE_POLES and _on_lattice(alpha_c, tau_c):
            raise click.UsageError(f"{name} has a pole at alpha = {alpha} "
                                   f"(alpha in Z + Z tau, tau = {tau})")
        value, bound = run(point)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except (ZeroDivisionError, OverflowError):
        raise click.UsageError(f"{name}: y or x leaves the double range at "
                               f"Im alpha = {alpha_c.imag:g}")
    click.echo(json.dumps({
        "name": name,
        "tau": [tau_c.real, tau_c.imag],
        "alpha": [alpha_c.real, alpha_c.imag],
        "value": [float(format_sig(value.real)), float(format_sig(value.imag))],
        "truncation_bound": float(format_sig(bound)),
    }, indent=2))


@main.command()
@click.option("--suite", "suites", multiple=True,
              help="suite name (repeatable); default: all")
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default=None)
@click.option("--tolerance", type=float, default=None,
              help="cap the tolerance of every row at this value")
@click.option("--output", type=str, default=None)
@click.pass_context
def verify(ctx, suites, fmt, tolerance, output):
    """Run verification suites and emit a report; exits 1 on any failure."""
    fmt = _setting(ctx, fmt, "format", _format)
    tolerance = _setting(ctx, tolerance, "tolerance", _float)
    if tolerance is not None and not tolerance >= 0:  # NaN compares False
        raise click.UsageError(f"tolerance must be >= 0, got {tolerance}")
    runs = [_choose("suite", nm, SUITES) for nm in suites or sorted(SUITES)]
    rows = [row for run in runs for row in run()]
    if tolerance is not None:
        for r in rows:
            r.tolerance = min(r.tolerance, tolerance)
    _write(emit_report(rows, fmt), output)
    failing = sum(not r.passed for r in rows)
    if failing:
        click.echo(f"{failing} check(s) failed", err=True)
        sys.exit(1)


@main.command()
@click.option("--lattice", "lattice_path", required=True,
              help="JSON file with {'rank': r, 'gram': [[...]]}")
@click.option("--mode", type=click.Choice(["product", "closed"]),
              default="product")
@click.option("--q-order", type=int, default=None)
@click.pass_context
def character(ctx, lattice_path, mode, q_order):
    """Compute the supertrace character of an even lattice."""
    n_q = _q_order(ctx, q_order)
    lat = _read(lattice_path, "lattice", ch.EvenLattice.from_json)
    try:
        cs = ch.chi_character(lat, n_q, mode)
    except (ValueError, OverflowError) as exc:
        raise click.UsageError(str(exc))
    click.echo(_series_text({
        "rank": lat.rank,
        "central_charge": str(cs.central_charge),
        "index": str(cs.index),
        "mode": mode,
    }, "chi", cs.chi))


@main.command()
@click.option("--input", "input_path", required=True,
              help="JSON report rows (as produced by verify --format json)")
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default=None)
@click.option("--output", type=str, default=None)
@click.pass_context
def report(ctx, input_path, fmt, output):
    """Reformat a JSON report as CSV / pretty text."""
    rows = _read(input_path, "report", rows_from_json)
    _write(emit_report(rows, _setting(ctx, fmt, "format", _format)), output)


if __name__ == "__main__":
    main()
