"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout that holds ``src/superchar``.  For each
workload it times the set-up (a fresh interpreter that imports
``superchar.cli`` and builds the first pass of inputs, several times,
median), then runs the workload in its own child process (see
``worker.py``; its peak resident memory is read after the first pass) and
prints the result.  Set-up times, and op times of the calibrated
workloads, are reported at the reference speed of ``speed.py``, which takes
out most of the drift of a shared host; wall times are in the details.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it is a JSON object with the details: the environment,
sample counts, the tail percentile used, per-kind latencies and the failing
or inexact ops.  Both are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify_all", "lattice_characters", "series_kernels",
             "algebra_scan")
SETUP_REPEATS = 7
# calibration before the first set-up, so that it has units on both sides
SETUP_CALIBRATION_S = 0.05
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The latency percentile reported as op_tail_s, fixed per workload so that a
# faster commit (more samples in the same time) is compared at the same
# percentile.  Each falls inside a block of ops of similar cost in every
# pass, not between two blocks, whether a run holds one pass or more:
# lattice_characters' in its four E8+E8 ops at q^2, with eight samples
# beyond it in a 20 s run, series_kernels' in its ten phi_12_1/phi_0_1
# evaluations and the builds of like cost (the five builds above them
# differ in cost by 4x), algebra_scan's in its heaviest block, with about
# ten samples beyond it.  verify_all has too few ops per run for any such
# percentile and reports its slowest op.
TAIL_PERCENTILE = {"verify_all": 100, "lattice_characters": 85,
                   "series_kernels": 84, "algebra_scan": 97}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "exact_rate": "ratio",
                    "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "click": version("click"), "commit": commit, "seed": seed,
            "threads": {k: "1" for k in THREAD_VARS}}


def worker_cmd(workload, seed, seconds, trace, workdir, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    return cmd + (["--setup-only"] if setup_only else [])


def setup_seconds(workload, seed, workdir):
    """Median time of a fresh interpreter importing ``superchar.cli`` and
    building the workload's first pass of inputs, at the reference speed
    of ``speed.py`` (start-up and imports are interpreter work, which
    follows the calibration unit), and the median wall time."""
    calibration = speed.Calibration()
    calibration.run(SETUP_CALIBRATION_S)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            worker_cmd(workload, seed, 0, 0, workdir, setup_only=True),
            env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        calibration.after(t0, time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return (statistics.median(calibration.normalised()),
            statistics.median(latency for _, latency in calibration.ops))


def percentile(values, pct):
    """Nearest-rank percentile; 100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def run_workload(workload, seed, seconds, trace):
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, raw_setup = setup_seconds(workload, seed, workdir)
        proc = subprocess.run(worker_cmd(workload, seed, seconds, trace,
                                         workdir),
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed:\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    # every op counts for correctness; only untraced ops are timed
    records = raw["records"]
    statuses = [r[3] for r in records]
    attempted = len(records)
    failed = statuses.count("failed")
    inexact = statuses.count("inexact")
    timed = [r for r in records if not r[5]]
    # op times at the reference speed where the workload is calibrated
    # (see speed.py), wall times otherwise
    latencies = [r[6] for r in timed]
    pct = TAIL_PERCENTILE[workload]
    beyond = sum(1 for x in latencies if x > percentile(latencies, pct))
    e2e = {
        "setup_s": setup,
        "ops_per_s": len(timed) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, pct),
        "exact_rate": (attempted - failed - inexact) / attempted,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    raw_latencies = [r[2] for r in timed]
    raw_times = {
        "setup_s": raw_setup,
        "ops_per_s": len(timed) / sum(raw_latencies),
        "op_p50_s": statistics.median(raw_latencies),
        "op_tail_s": percentile(raw_latencies, pct),
    }
    kinds = {}
    for kind, _, latency, status, *_ in timed:
        k = kinds.setdefault(kind, {"n": 0, "seconds": 0.0, "inexact": 0,
                                    "failed": 0})
        k["n"] += 1
        k["seconds"] += latency
        k[status] = k.get(status, 0) + 1
    detail = {
        "workload": workload, "environment": environment(seed),
        "seconds": seconds, "passes": raw["passes"], "samples": len(timed),
        "op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
        "error_rate": (failed + inexact) / attempted,
        "inexact": inexact, "failed": failed,
        "report_roundtrip_field_losses_per_pass":
            raw["losses"] / raw["passes"],
        "slowness": raw["slowness"],
        "raw_wall_times": raw_times,
        "kinds": kinds,
        "not_ok": [r for r in records if r[3] != "ok"][:50],
        "end_to_end": e2e,
    }
    if trace:
        detail["per_layer"] = raw["layers"]
        detail["layer_shares"] = raw["layer_shares"]
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in raw["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or ".suite_s." in name:
        return "s"
    if name.endswith("_over_2p53"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "superchar" / "cli.py").is_file():
        print(f"no superchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        try:
            detail, result = run_workload(name, args.seed, args.seconds,
                                          args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json") \
            .write_text(json.dumps({"detail": detail, "result": result},
                                   indent=2))
        results[name] = result
        print(json.dumps(detail))
        if args.workload == "all":
            print(json.dumps({"workload": name, **result}))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
