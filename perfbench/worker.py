"""One benchmark run of one workload, in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Imports ``superchar.cli`` from ``src/`` and builds the first pass of seeded
inputs; with ``--setup-only`` it stops there (``run.py`` times that as the
set-up cost).  Otherwise it runs a closed loop, one op in flight, whole
passes until ``--seconds`` have elapsed, checks every output and prints one
JSON line of raw results.  With ``--trace 1`` every second pass is traced,
which gives the per-layer breakdown and, against the untraced passes, the
tracing overhead from one process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from superchar import cli  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CLI_OPS = ("verify", "character", "series", "eval")


def measure(gen, runner, references, seconds, first, tracer=None,
            calibration=None):
    """Whole passes until ``seconds`` have elapsed, starting with ``first``.
    With a tracer, every second pass is traced, so traced and untraced
    passes see the same mix and the same drift of the machine.  With a
    calibration, its unit is timed after each op for a fifth of the op's
    time, so its samples follow the drift of the machine through the run.

    Returns per-op records (kind, label, latency, status, note, traced),
    {traced: (passes, report round-trip losses)} and the peak resident
    memory in MB at the end of the first pass.  The first pass runs every op
    kind once; later passes repeat them and add only allocator
    fragmentation, which grows with the number of passes that fit in the
    time and so with the speed of the machine."""
    records, totals, peak_mb = [], {False: [0, 0], True: [0, 0]}, None
    start = time.perf_counter()
    ops = first
    while True:
        traced = tracer is not None and totals[False][0] > totals[True][0]
        if traced:
            spans.install(tracer, cli)
        try:
            for op in ops:
                if traced:
                    tracer.op = len(records)
                    root = tracer.open("cli.command" if op.kind in CLI_OPS
                                       else "bench.op")
                t0 = time.perf_counter()
                out = runner.run(op)
                latency = time.perf_counter() - t0
                if traced:
                    tracer.close(root)
                # a reference exists only while its op is checked, so the
                # benchmark adds little to the memory the program's ops see
                references.prepare(op)
                status, lost, note = workloads.check(op, out)
                op.ref = None
                totals[traced][1] += lost
                records.append((op.kind, op.label, latency, status, note,
                                traced))
                if calibration is not None:
                    calibration.after(t0, latency)
        finally:
            if traced:
                tracer.uninstall()
        totals[traced][0] += 1
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= seconds and \
                (tracer is None or totals[True][0] > 0):
            return records, totals, peak_mb
        ops = gen.next_pass()


def layer_metrics(tracer, passes, losses, untraced_rate, traced_rate,
                  slowness):
    """Per-layer numbers per pass from the traced spans; times and rates are
    divided and multiplied by the run's ``slowness`` (see ``speed.py``)."""
    selfs = tracer.self_times()

    def own(name):
        return selfs.get(name, (0.0, 0.0, 0))[0] / passes / slowness

    def calls(name):
        return selfs.get(name, (0.0, 0.0, 0))[2] / passes

    counts = {k: v / passes for k, v in tracer.counts.items()}
    m = {
        "characters.enum_s": own("characters.enum"),
        "characters.enum_calls": calls("characters.enum"),
        "characters.vectors_counted": counts.get(
            "characters.vectors_counted", 0),
        "characters.chi_s": own("characters.chi"),
        "characters.fock_s": own("characters.fock"),
        "characters.cusp_s": own("characters.cusp"),
        "characters.max_coeff_over_2p53": tracer.maxima.get(
            "characters.max_coeff_over_2p53", 0.0),
        "series_core.mul_s": own("series_core.mul"),
        "series_core.mul_calls": calls("series_core.mul"),
        "series_core.mul_term_pairs": counts.get(
            "series_core.mul_term_pairs", 0),
        "series_core.pow_s": own("series_core.pow"),
        "series_core.invert_s": own("series_core.invert"),
        "series_core.infinite_product_s": own("series_core.infinite_product"),
        "series_core.tx_mul_s": own("series_core.tx_mul"),
        "series_core.evaluate_s": own("series_core.evaluate"),
        "series_core.evaluate_calls": calls("series_core.evaluate"),
        "series_core.max_coeff_over_2p53": tracer.maxima.get(
            "series_core.max_coeff_over_2p53", 0.0),
        "jacobi_forms.phi_weak_s": own("jacobi_forms.phi_weak"),
        "jacobi_forms.eisenstein_sum_s": own("jacobi_forms.eisenstein_sum"),
        "jacobi_forms.eisenstein_sum_calls": calls(
            "jacobi_forms.eisenstein_sum"),
        "jacobi_forms.form_evaluate_calls": calls(
            "jacobi_forms.form_evaluate"),
        "jacobi_forms.transformation_check_s": own(
            "jacobi_forms.transformation_check"),
        "elliptic.shell_sum_s": own("elliptic.shell_sum"),
        "elliptic.series_s": own("elliptic.series"),
        "elliptic.super_zeta_s": own("elliptic.super_zeta"),
        "superconformal.bracket_s": own("superconformal.bracket"),
        "superconformal.bracket_calls": calls("superconformal.bracket"),
        "superconformal.jacobi_residual_s": own(
            "superconformal.jacobi_residual"),
        "superconformal.nabla_s": own("superconformal.nabla"),
        "superconformal.jet_s": own("superconformal.jet"),
        "grassmann.supermatrix_mul_calls": calls("grassmann.supermatrix_mul"),
        "grassmann.berezinian_s": own("grassmann.berezinian"),
        "report.emit_s": own("report.emit"),
        "report.parse_s": own("report.parse"),
        "report.bytes_out": counts.get("report.bytes_out", 0),
        "report.roundtrip_field_losses": losses / passes,
        "cli.rows_failed": counts.get("cli.rows_failed", 0),
        "cli.self_s": sum(own(n) for n in selfs if n.startswith("cli.")),
        "trace.untraced_ops_per_s": untraced_rate * slowness,
        "trace.traced_ops_per_s": traced_rate * slowness,
        "trace.overhead_ops_per_s": (untraced_rate - traced_rate) * slowness,
    }
    enum_s = m["characters.enum_s"]
    m["characters.vectors_per_s"] = (m["characters.vectors_counted"] / enum_s
                                     if enum_s > 0 else 0.0)
    for suite in workloads.SUITES:
        m[f"cli.suite_s.{suite}"] = selfs.get(
            f"cli.suite.{suite}", (0.0, 0.0, 0))[1] / passes / slowness
    return m


def layer_shares(tracer):
    """Each module's share of the traced self time."""
    selfs = tracer.self_times()
    total = sum(s[0] for s in selfs.values())
    return {layer: sum(s[0] for n, s in selfs.items()
                       if n.split(".")[0] == layer) / total
            for layer in workloads.LAYERS}


def rate(records):
    return len(records) / sum(r[2] for r in records)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gen = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    first = gen.next_pass()
    if args.setup_only:
        return 0
    references = workloads.References()
    runner = workloads.Runner(cli)
    tracer = spans.Tracer() if args.trace else None
    calibration = speed.Calibration() if gen.calibrated else None
    records, totals, peak_mb = measure(gen, runner, references, args.seconds,
                                       first, tracer, calibration)
    # the seventh field of each record is the time reported: its latency at
    # the reference speed, or its wall time where there is no calibration
    if calibration is None:
        slowness, reported = None, [r[2] for r in records]
    else:
        slowness, reported = calibration.slowness(), calibration.normalised()
    records = [r + (t,) for r, t in zip(records, reported)]
    untraced = [r for r in records if not r[5]]
    result = {"workload": args.workload, "seed": args.seed,
              "records": records, "passes": totals[False][0],
              "losses": totals[False][1], "peak_rss_mb": peak_mb,
              "slowness": slowness}
    if tracer is not None:
        passes, losses = totals[True]
        result["layers"] = layer_metrics(
            tracer, passes, losses, rate(untraced),
            rate([r for r in records if r[5]]), slowness or 1.0)
        result["layer_shares"] = layer_shares(tracer)
        tracer.save(Path(args.workdir).parent
                    / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
