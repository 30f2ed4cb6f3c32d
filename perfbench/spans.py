"""In-memory span tracing around the package's public functions.

The tracer replaces module attributes (and a few class methods) with
wrappers that record one span per call: name, start, end, parent span and
op id.  Spans stay in memory until the run ends.  A function that another
module imported by name is rebound at each of those binding sites too.
Nothing in the package is edited; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

TWO_POW_53 = float(2 ** 53)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.op = -1
        self.counts = {}
        self.maxima = {}
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name):
        i = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def close(self, i):
        self.span_end[i] = time.perf_counter()
        self.stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` records counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    # -- installing wrappers -----------------------------------------------

    def patch(self, owners, attr, name, after=None, wrap=None):
        """Wrap ``attr`` on every object in ``owners`` (modules, classes or
        dicts that hold the same function) with one span wrapper."""
        original = _get(owners[0], attr)
        wrapper = (wrap or self.span)(name, original, after)
        for owner in owners:
            self._patched.append((owner, attr, _get(owner, attr)))
            _set(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            _set(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """{span name: (total self time, total duration, calls)}.  A span's
        self time is its duration minus the durations of its direct
        children, which never overlap on one thread."""
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (float(own[sel].sum()), float(dur[sel].sum()),
                          int(sel.sum()))
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=float),
                 end=np.frombuffer(self.span_end, dtype=float))


def install(tracer, cli):
    """Wrap the layers' public functions as the per-layer metrics need.
    ``cli`` is the imported ``superchar.cli`` module."""
    from superchar import (characters, elliptic, grassmann, jacobi_forms,
                           report, series_core, superconformal)
    t = tracer
    qy, tx = series_core.QYSeries, series_core.TXSeries

    def series_max(result, args):
        if isinstance(result, qy) and result.coeffs:
            t.high("series_core.max_coeff_over_2p53",
                   result.max_abs_coeff() / TWO_POW_53)

    def series_mul(name, fn, after):
        # only series-by-series products are spans; scalar scaling is not
        # a convolution and would swamp the call count
        traced = t.span(name, fn, after)

        @functools.wraps(fn)
        def wrapper(self, other):
            if isinstance(other, type(self)):
                return traced(self, other)
            return fn(self, other)
        return wrapper

    def term_pairs(result, args):
        t.add("series_core.mul_term_pairs",
              len(args[0].coeffs) * len(args[1].coeffs))
        series_max(result, args)

    # a series-by-series product always reaches __mul__; __rmul__ only
    # ever sees scalars on the left
    t.patch([qy], "__mul__", "series_core.mul", term_pairs, series_mul)
    t.patch([tx], "__mul__", "series_core.tx_mul", wrap=series_mul)
    t.patch([qy], "__pow__", "series_core.pow", series_max)
    t.patch([qy], "invert", "series_core.invert", series_max)
    t.patch([series_core, characters], "infinite_product",
            "series_core.infinite_product", series_max)
    t.patch([qy], "evaluate", "series_core.evaluate")
    t.patch([tx], "evaluate", "series_core.evaluate")

    def vectors(result, args):
        t.add("characters.vectors_counted", sum(result))

    def chi_coeff(result, args):
        if result.chi.coeffs:
            t.high("characters.max_coeff_over_2p53",
                   result.chi.max_abs_coeff() / TWO_POW_53)

    t.patch([characters], "count_vectors_by_norm", "characters.enum", vectors)
    t.patch([characters], "chi_character", "characters.chi", chi_coeff)
    t.patch([characters], "fock_oracle", "characters.fock")
    t.patch([characters], "fock_weighted_trace", "characters.fock")
    t.patch([characters], "cusp_grid_check", "characters.cusp")
    t.patch([characters], "cusp_certificate", "characters.cusp")

    t.patch([jacobi_forms], "phi_weak", "jacobi_forms.phi_weak")
    t.patch([jacobi_forms], "jacobi_eisenstein_numeric",
            "jacobi_forms.eisenstein_sum")
    t.patch([jacobi_forms.JacobiForm], "evaluate",
            "jacobi_forms.form_evaluate")
    t.patch([jacobi_forms, characters], "transformation_check",
            "jacobi_forms.transformation_check")
    t.patch([jacobi_forms, characters], "_theta_mantissa",
            "jacobi_forms.theta")

    t.patch([elliptic], "_shell_sum", "elliptic.shell_sum")
    for fn in ("eisenstein_b", "zeta_bar_series", "p_bar_series",
               "zeta_tilde_taylor"):
        t.patch([elliptic], fn, "elliptic.series")
    t.patch([elliptic], "super_zeta", "elliptic.super_zeta")

    t.patch([superconformal], "mode_bracket", "superconformal.bracket")
    t.patch([superconformal], "jacobi_residual",
            "superconformal.jacobi_residual")
    t.patch([superconformal], "homomorphism_residual",
            "superconformal.homomorphism")
    t.patch([superconformal], "nabla_commutator", "superconformal.nabla")
    for fn in ("solve_jet", "jet_from_params", "jet_matrix_identity_residual"):
        t.patch([superconformal], fn, "superconformal.jet")
    t.patch([grassmann.SuperMatrix], "__mul__", "grassmann.supermatrix_mul")
    t.patch([grassmann, superconformal, cli], "berezinian",
            "grassmann.berezinian")

    def emitted(result, args):
        t.add("report.bytes_out", len(result.encode()))

    t.patch([report, cli], "emit_report", "report.emit", emitted)
    t.patch([report, cli], "rows_from_json", "report.parse")

    def failed_rows(result, args):
        t.add("cli.rows_failed", sum(1 for r in result if not r.passed))

    for suite in list(cli.SUITES):
        t.patch([cli.SUITES], suite, f"cli.suite.{suite}", failed_rows)


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
