"""The four workloads: seeded input generation, running each op through the
``superchar`` click entry point (or the layers' public functions), and the
check of every op's output against a reference the benchmark owns.

A run repeats *passes*.  Each pass is a list of ops of the same shape: the
same op kinds at the same grid of q-orders, each moved up by a small seeded
jitter, with fresh seeded inputs (lattice bases, points, op order, modes).
Op costs grow fast with the q-order, so a fixed grid keeps throughput and
latency quantiles steady across seeds and independent of where the run's
deadline falls, while no two ops in a run share their full input.

Every op ends in one of three states:

* ``ok``: the output matches the reference exactly (integer coefficients
  recover the exact integer; evaluations agree to 1e-10 relative);
* ``inexact``: the output is wrong, but only by what floating-point
  rounding of the float kernel can explain (at most 1e-9 of the
  coefficientwise majorant of the product; for the numeric Jacobi-Eisenstein
  forms, their documented truncation tolerance).  These are the known
  float-exactness defects;
* ``failed``: a crash, an unexpected exit code, malformed output, a failing
  verification row, or an error no rounding explains.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import refs

OK, INEXACT, FAILED = "ok", "inexact", "failed"
HERE = Path(__file__).resolve().parent

# an error above this share of the coefficient majorant is not rounding
ROUNDING_RTOL = 1e-9
EVAL_RTOL = 1e-10
EVAL_HARD_RTOL = 1e-6
# phi_12_1 and phi_0_1 are numeric Jacobi-Eisenstein sums over a (c, d) box
# of half-width 40; the weight-4 tail outside that box is O(40^-2)
EISENSTEIN_FORMS = {"phi_12_1", "phi_0_1"}
EISENSTEIN_HARD_RTOL = 1e-2
JET_TOL = 1e-10  # the tolerance of the gl11 jet-roundtrip check in the CLI

# the modules the per-layer self times are attributed to; "bench" is the
# root span of an op that calls the library directly
LAYERS = ("characters", "series_core", "jacobi_forms", "elliptic",
          "superconformal", "grassmann", "report", "cli", "bench")
SUITES = ("triple_product", "elliptic", "super_zeta", "algebra", "flatness",
          "gl11", "jacobi_forms", "cusp", "characters", "character_jacobi")


class Op:
    __slots__ = ("kind", "args", "ref", "label")

    def __init__(self, kind, label, **args):
        self.kind = kind
        self.label = label
        self.args = args
        self.ref = None


def jittered(rng, grid, spread):
    """Each grid point moved up by a seeded amount in [0, spread]."""
    return [g + rng.randint(0, spread) for g in grid]


def sign_flipped(gram, rng):
    """D G D for a random diagonal D of signs: another basis of the same
    lattice, with the same enumeration cost and theta series."""
    s = [rng.choice((1, -1)) for _ in gram]
    return [[s[i] * s[j] * x for j, x in enumerate(row)]
            for i, row in enumerate(gram)]


def block_diagonal(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for g in grams:
        for i, row in enumerate(g):
            out[offset + i][offset:offset + len(g)] = row
        offset += len(g)
    return out


E8_GRAM = [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0],
           [-1, 0, 2, -1, 0, 0, 0, 0], [0, -1, -1, 2, -1, 0, 0, 0],
           [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
           [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]
GRAMS = {
    "E8": E8_GRAM,
    "E8^2": block_diagonal(E8_GRAM, E8_GRAM),
    "E8^3": block_diagonal(E8_GRAM, E8_GRAM, E8_GRAM),
    "A2": [[2, -1], [-1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


# ---------------------------------------------------------------------------
# input generation, one pass at a time
# ---------------------------------------------------------------------------

class Workload:
    """Seeded pass generator.  ``workdir`` receives the generated files.

    ``calibrated`` workloads report their times at the reference speed of
    ``speed.py``.  Their ops are mostly pure-Python work, whose wall time
    follows the calibration unit's as a shared host speeds up and slows
    down; the numpy lattice enumeration that dominates ``verify_all`` does
    not (normalising its times widened their spread), so it reports wall
    times."""

    calibrated = True

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = Path(workdir)
        self.files = 0

    def next_pass(self):
        ops = self.make_pass()
        self.rng.shuffle(ops)
        return ops

    def write(self, stem, obj):
        self.files += 1
        path = self.workdir / f"{stem}-{self.files}.json"
        path.write_text(json.dumps(obj))
        return str(path)


class VerifyAll(Workload):
    """``verify`` over every suite, suites passed in a seeded order, then
    ``report --format csv`` on the JSON it wrote."""

    name = "verify_all"
    calibrated = False

    def make_pass(self):
        order = list(SUITES)
        self.rng.shuffle(order)
        self.files += 1
        path = self.workdir / f"rows-{self.files}.json"
        return [Op("verify", "verify+report", suites=order, path=str(path))]


class LatticeCharacters(Workload):
    """``character`` for E8 at q^10..q^25 in seeded modes, E8+E8 at q^1 and
    q^2, E8+E8+E8 at q^1, and A2/D4 in product mode at q^20..q^60.  Gram
    matrices get seeded sign flips, so no two ops share an input file.

    Op costs span three decades, so each pass is laid out for steady
    quantiles.  From the top: E8 at q^25 and q^20, then four E8+E8 ops at
    q^2 of about 1 s each (the tail percentile falls in this block), E8 at
    q^15 and q^10, three ops of 0.07-0.2 s; then seven fixed-cost E8+E8+E8
    ops, with as many lighter ops below them as there are ops above, so
    the median falls in the middle of that block.  When this
    benchmark was written, E8 came out exact through q^23 (product) / q^24
    (closed) and D4 through q^49; no grid point or its jitter straddles
    those orders, so the share of inexact ops per pass does not depend on
    the seed.  A pass takes 11-17 s on one core of a 2-core Xeon, so a 20 s
    run holds two."""

    name = "lattice_characters"
    E8_GRID = (10, 15, 20, 25)
    D4_GRID = (20, 20, 25, 30, 52, 58)
    A2_GRID = (20, 25, 30, 40, 59)

    def op(self, lattice, mode, q_order):
        gram = sign_flipped(GRAMS[lattice], self.rng)
        path = self.write(lattice.replace("^", "x"),
                          {"rank": len(gram), "gram": gram})
        return Op("character", f"{lattice}:{mode}:q{q_order}",
                  lattice=lattice, path=path, mode=mode, q_order=q_order)

    def mode(self):
        return self.rng.choice(("product", "closed"))

    def e8_modes(self):
        """Seeded modes on even passes and the other mode at each q-order on
        odd passes, so every two passes run each E8 op in both modes (the
        modes differ in cost by up to 1.4x) and the E8 costs of a run do not
        depend on the seed."""
        self.passes = getattr(self, "passes", 0) + 1
        if self.passes % 2:
            self.modes = [self.mode() for _ in self.E8_GRID]
        else:
            self.modes = ["closed" if m == "product" else "product"
                          for m in self.modes]
        return self.modes

    def make_pass(self):
        rng = self.rng
        # no jitter for E8: its cost jumps by up to 1.5x between adjacent
        # q-orders, which would make the tail depend on the seed
        ops = [self.op("E8", mode, q)
               for mode, q in zip(self.e8_modes(), self.E8_GRID)]
        ops += [self.op("E8^2", self.mode(), q) for q in (1, 1, 1, 2, 2, 2, 2)]
        ops += [self.op("E8^3", self.mode(), 1) for _ in range(7)]
        ops += [self.op("D4", "product", q)
                for q in jittered(rng, self.D4_GRID, 1)]
        ops += [self.op("A2", "product", q)
                for q in jittered(rng, self.A2_GRID, 1)]
        return ops


SERIES_NAMES = ("eta", "discriminant", "e4", "e6", "theta", "triple_product",
                "phi_m1_half", "phi_m2_1", "phi_10_1")
EVAL_NAMES = ("phi_10_1", "phi_m2_1", "e4", "wp1", "wp2", "wp3", "wp4",
              "zeta_bar", "phi_12_1", "phi_0_1")
# The series-backed and Eisenstein evaluations cost the same at every point,
# whatever the seed.  Eight points for phi_10_1 put a block of equal-cost
# ops at the middle of each pass (29 ops below it, 29 above), which holds
# the median latency steady; four points each for phi_12_1 and phi_0_1 put
# the tail percentile in the middle of a band of ten ops of 0.1 s, with the
# five heaviest series builds above it.
EVAL_POINTS = {"phi_10_1": 8, "phi_m2_1": 4, "wp3": 3, "wp4": 3,
               "phi_12_1": 4, "phi_0_1": 4}


class SeriesKernels(Workload):
    """``series NAME --q-order N`` for every series name at N near 40, 60,
    80 and 100, and ``eval NAME`` at a seeded point with Im tau in
    [0.8, 1.5] for every evaluator name.  When this benchmark was written,
    phi_m1_half came out exact below q^68 and phi_m2_1 below q^43; the
    jitter keeps each grid point on one side of those orders."""

    name = "series_kernels"
    GRID = (40, 58, 78, 98)

    def point(self):
        u = self.rng.uniform
        # Re alpha stays off the lattice points, where wp_k has poles and
        # the weak Jacobi forms vanish
        return complex(u(-0.5, 0.5), u(0.8, 1.5)), complex(u(0.1, 0.4),
                                                          u(-0.1, 0.1))

    def make_pass(self):
        ops = []
        for name in SERIES_NAMES:
            for n_q in jittered(self.rng, self.GRID, 2):
                ops.append(Op("series", f"{name}:q{n_q}", name=name,
                              q_order=n_q))
        for name in EVAL_NAMES:
            for _ in range(EVAL_POINTS.get(name, 1)):
                tau, alpha = self.point()
                ops.append(Op("eval", f"{name}@{tau:.3f},{alpha:.3f}",
                              name=name, tau=tau, alpha=alpha))
        return ops


GENERATORS = "LJQH"
BLOCK_SIZES = {"jacobi": 300, "homomorphism": 50, "nabla": 150, "jets": 100}


class AlgebraScan(Workload):
    """Blocks of exact mode-algebra checks (graded Jacobi triples with
    |m| <= 6, vector-field homomorphism pairs, flatness commutators of
    random Laurent polynomials) and GL(1|1) jet round trips, called through
    ``superconformal``'s public functions."""

    name = "algebra_scan"

    def mode(self):
        return self.rng.choice(GENERATORS), self.rng.randint(-6, 6)

    def laurent(self):
        return {self.rng.randint(-4, 4): self.rng.choice((-3, -2, -1, 1, 2, 3))
                for _ in range(2)}

    def jet_params(self):
        u = self.rng.uniform
        # (body, eps, delta, eps*delta) components of Grassmann numbers
        return {
            "q": (u(0.5, 2.0) + 0.3j, 0, 0, u(-1, 1)),
            "y": (u(0.5, 2.0) - 0.2j, 0, 0, u(-1, 1)),
            "eps0": (0, u(-1, 1), u(-1, 1), 0),
            "delta0": (0, u(-1, 1), u(-1, 1), 0),
            "tau1": (u(-1, 1), 0, 0, u(-1, 1)),
            "alpha1": (u(-1, 1), 0, 0, u(-1, 1)),
            "eps1": (0, u(-1, 1), u(-1, 1), 0),
            "delta1": (0, u(-1, 1), u(-1, 1), 0),
        }

    def make_pass(self):
        n = BLOCK_SIZES
        return [
            Op("jacobi", "jacobi-block",
               items=[(self.mode(), self.mode(), self.mode())
                      for _ in range(n["jacobi"])]),
            Op("homomorphism", "homomorphism-block",
               items=[(self.mode(), self.mode())
                      for _ in range(n["homomorphism"])]),
            Op("nabla", "nabla-block",
               items=[(self.laurent(), self.laurent())
                      for _ in range(n["nabla"])]),
            Op("jets", "jet-block",
               items=[self.jet_params() for _ in range(n["jets"])]),
        ]


WORKLOADS = {w.name: w for w in (VerifyAll, LatticeCharacters, SeriesKernels,
                                 AlgebraScan)}


# ---------------------------------------------------------------------------
# references (computed after each op, untimed)
# ---------------------------------------------------------------------------

class References:
    def __init__(self):
        seed_rows = json.loads((HERE / "verify_rows.json").read_text())
        self.seed_rows = [tuple(r) for r in seed_rows]

    def prepare(self, op):
        a = op.args
        if op.kind == "character":
            rank, ref, maj = refs.character(a["lattice"], a["q_order"])
            op.ref = rank, ref, refs.prefix_max(maj, a["q_order"])
        elif op.kind == "series":
            off, scale, ref, maj = refs.series_reference(a["name"],
                                                         a["q_order"])
            op.ref = off, scale, ref, refs.prefix_max(maj, a["q_order"])
        elif op.kind == "eval":
            op.ref = refs.eval_reference(a["name"], a["tau"], a["alpha"])
        elif op.kind == "verify":
            op.ref = self.seed_rows


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops in-process: CLI ops through click's test runner against the
    ``superchar`` group, algebra blocks through ``superconformal``."""

    def __init__(self, cli):
        from click.testing import CliRunner
        from superchar import grassmann, superconformal
        self.cli = cli
        self.click = CliRunner()
        self.sc = superconformal
        self.grassmann = grassmann

    def invoke(self, args):
        res = self.click.invoke(self.cli.main, args)
        return {"exit": res.exit_code, "stdout": res.stdout,
                "error": None if res.exception is None
                or isinstance(res.exception, SystemExit)
                else repr(res.exception)}

    def run(self, op):
        a = op.args
        if op.kind == "verify":
            args = ["verify", "--format", "json", "--output", a["path"]]
            for suite in a["suites"]:
                args += ["--suite", suite]
            verify = self.invoke(args)
            report = self.invoke(["report", "--input", a["path"],
                                  "--format", "csv"])
            return {"verify": verify, "report": report}
        if op.kind == "character":
            return self.invoke(["character", "--lattice", a["path"],
                                "--mode", a["mode"],
                                "--q-order", str(a["q_order"])])
        if op.kind == "series":
            return self.invoke(["series", a["name"],
                                "--q-order", str(a["q_order"])])
        if op.kind == "eval":
            return self.invoke(["eval", a["name"], "--tau", _cplx(a["tau"]),
                                "--alpha", _cplx(a["alpha"])])
        try:
            return {"exit": 0, "value": getattr(self, op.kind)(a["items"]),
                    "error": None}
        except Exception as exc:  # a crash is a failed op, not a dead run
            return {"exit": 1, "value": None, "error": repr(exc)}

    def _basis(self, mode):
        return self.sc.AlgebraVector.basis(mode[0], mode[1])

    def jacobi(self, items):
        return [self.sc.jacobi_residual(*(self._basis(m) for m in triple))
                for triple in items]

    def homomorphism(self, items):
        return [self.sc.homomorphism_residual(self._basis(x), self._basis(y))
                for x, y in items]

    def nabla(self, items):
        out = []
        for f, g in items:
            direct, residue = self.sc.nabla_commutator(f, g)
            out.append(direct - residue)
        return out

    def jets(self, items):
        num = self.grassmann.GrassmannNumber
        worst = []
        for raw in items:
            params = {k: num(*v) for k, v in raw.items()}
            jets = self.sc.jet_from_params(params)
            back = self.sc.solve_jet(jets)
            worst.append(max([self.sc.jet_matrix_identity_residual(jets)]
                             + [(back[k] - v).max_abs()
                                for k, v in params.items()]))
        return worst


def _cplx(z):
    return f"{z.real!r}{z.imag:+.17g}i"


# ---------------------------------------------------------------------------
# checks: (status, field losses, note)
# ---------------------------------------------------------------------------

def check(op, out):
    """Classify one op's output as ok, inexact or failed."""
    if op.kind == "verify":
        return check_verify(op, out)
    if out.get("error") is not None or out["exit"] != 0:
        return FAILED, 0, f"exit {out['exit']}: {out.get('error')}"
    if op.kind not in ("character", "series", "eval"):
        return check_algebra(op, out["value"])
    try:
        doc = json.loads(out["stdout"])
        return {"character": check_character, "series": check_series,
                "eval": check_eval}[op.kind](op, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return FAILED, 0, f"malformed output: {exc!r}"


def _status(status, note=""):
    return status, 0, note


def check_terms(terms, ref, scale, majorant_max, n_q):
    """Every coefficient must round to the exact integer ``ref`` after
    dividing out ``scale``; a miss within rounding of the majorant is
    inexact, anything else failed."""
    out = {}
    for n, r2, re_, im in terms:
        if (n, r2) in out or n > n_q:
            return _status(FAILED, f"bad term key q^{n} y^{r2}/2")
        out[(n, r2)] = complex(re_, im) / scale
    status, worst = OK, None
    for key in out.keys() | ref.keys():
        if key[0] < 0:
            return _status(FAILED, f"negative q-exponent {key}")
        err = abs(out.get(key, 0) - ref.get(key, 0))
        if err < 0.5:
            continue
        if err > 0.5 + ROUNDING_RTOL * majorant_max[key[0]]:
            return _status(FAILED, f"coefficient {key} off by {err:.6g}")
        if worst is None or key[0] < worst:
            worst = key[0]
        status = INEXACT
    return _status(status, "" if worst is None else f"inexact from q^{worst}")


def check_character(op, doc):
    a = op.args
    rank, ref, maj = op.ref
    expect = {"rank": rank, "central_charge": str(Fraction(3 * rank, 2)),
              "index": str(Fraction(rank, 4)), "mode": a["mode"]}
    for key, value in expect.items():
        if doc.get(key) != value:
            return _status(FAILED, f"{key} = {doc.get(key)!r}")
    if doc["chi"]["q_order"] != a["q_order"]:
        return _status(FAILED, "wrong q_order")
    return check_terms(doc["chi"]["terms"], ref, 1, maj, a["q_order"])


def check_series(op, doc):
    a = op.args
    offset, scale, ref, maj = op.ref
    if doc.get("q_offset") != offset:
        return _status(FAILED, f"q_offset = {doc.get('q_offset')!r}")
    if doc["series"]["q_order"] != a["q_order"]:
        return _status(FAILED, "wrong q_order")
    return check_terms(doc["series"]["terms"], ref, scale, maj, a["q_order"])


def check_eval(op, doc):
    name = op.args["name"]
    value = complex(*doc["value"])
    bound = float(doc["truncation_bound"])
    err = abs(value - op.ref)
    scale = abs(op.ref)
    if doc.get("name") != name:
        return _status(FAILED, f"name = {doc.get('name')!r}")
    if not math.isfinite(err):
        return _status(FAILED, "non-finite value")
    if err <= EVAL_RTOL * scale + bound:
        return _status(OK)
    hard = EISENSTEIN_HARD_RTOL if name in EISENSTEIN_FORMS \
        else EVAL_HARD_RTOL
    note = f"relative error {err / scale:.3g}"
    if err <= hard * scale + bound:
        return _status(INEXACT, note)
    return _status(FAILED, note)


def check_algebra(op, values):
    if op.kind == "jets":
        bad = [w for w in values if not w <= JET_TOL]
        note = f"{len(bad)} jets above {JET_TOL}" if bad else ""
    elif op.kind == "homomorphism":
        bad = [w for w in values if w != 0]
        note = f"{len(bad)} nonzero residuals" if bad else ""
    else:
        bad = [v for v in values if not v.is_zero()]
        note = f"{len(bad)} nonzero residuals" if bad else ""
    if len(values) != len(op.args["items"]):
        return _status(FAILED, "missing results")
    return _status(FAILED if bad else OK, note)


def _fsig(x):
    return f"{x:.15g}"


def check_verify(op, out):
    """Exit 0 and every row passed; every row of ``verify_rows.json`` (the
    rows ``verify`` printed when this benchmark was written) present, new
    rows allowed; the CSV report carries every field of the JSON rows.  A
    lost ``suite`` field is counted as a round-trip loss, not a failure."""
    verify, report = out["verify"], out["report"]
    for step, res in (("verify", verify), ("report", report)):
        if res["error"] is not None or res["exit"] != 0:
            return FAILED, 0, f"{step} exit {res['exit']}: {res['error']}"
    try:
        rows = json.loads(Path(op.args["path"]).read_text())
        table = list(csv.DictReader(io.StringIO(report["stdout"])))
    except (OSError, json.JSONDecodeError, csv.Error) as exc:
        return FAILED, 0, f"unreadable report: {exc}"
    failing = [r["identity"] for r in rows if not r.get("pass")]
    if failing:
        return FAILED, 0, f"rows failed: {failing}"
    missing = Counter((i, e) for _, i, e in op.ref) - \
        Counter((r["identity"], r["element"]) for r in rows)
    if missing:
        return FAILED, 0, f"rows missing: {sorted(missing)}"
    from_json = Counter((
        r["identity"], r.get("paper_ref", ""), r.get("element", ""),
        "" if r.get("point") is None
        else ";".join(_fsig(float(v)) for v in r["point"]),
        _fsig(r["residual"]), _fsig(r["tolerance"]),
        "true" if r["pass"] else "false") for r in rows)
    from_csv = Counter((
        t["identity"], t["paper_ref"], t["element"], t["point"],
        t["residual"], t["tolerance"], t["pass"]) for t in table)
    if from_json != from_csv:
        return FAILED, 0, "report fields differ from the JSON rows"
    suite_of = {(i, e): s for s, i, e in op.ref}
    expected = Counter(r.get("suite") or suite_of.get(
        (r["identity"], r["element"]), "") for r in rows)
    losses = sum((expected - Counter(t["suite"] for t in table)).values())
    return OK, losses, ""
