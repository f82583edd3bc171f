"""kwrob benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  Each run starts fresh interpreters
with pinned thread settings (THREAD_ENV): STARTS of them each set up and
run the first job of the workload, and the last one goes on running jobs
for S seconds.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  --smoke runs one small traced job per workload
with all of its checks.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-exact", "mc-crosscheck", "lp-kwise")
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "KWR_THREADS": "1",
}
STARTS = 4  # fresh interpreters per run; each sets up and runs job 1, the last runs warm jobs too
START_MARGIN_S = 30  # a start is killed this long after its --seconds have run out

END_TO_END = {
    "setup_s": "s",
    "first_job_s": "s",
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: each is the median over the traced run's warm jobs of
# the accumulator of the same name (layertrace.py), except DERIVED ones.
PER_LAYER = {
    "setup.import_kwrob.s": "s",
    "setup.import_scipy.s": "s",
    "cli.counterexample.s": "s",
    "cli.reproduce.s": "s",
    "cli.revenue.s": "s",
    "cli.lp.s": "s",
    "io.write.s": "s",
    "priors.construct.s": "s",
    "priors.verify_kwise.s": "s",
    "priors.verify_kwise.cells": "count",
    "priors.threshold_probs.calls": "count",
    "priors.threshold_probs.s": "s",
    "priors.q1q2_from_qvec.calls": "count",
    "priors.sample.s": "s",
    "priors.sample.rows": "count",
    "marginals.phi_inv.calls": "count",
    "mechanisms.threshold_payment.calls": "count",
    "mechanisms.threshold_payment.s": "s",
    "mechanisms.run_mechanism.calls": "count",
    "mechanisms.run_mechanism.s": "s",
    "revenue.revenue_exact.self_s": "s",
    "revenue.mechanism_payments.s": "s",
    "revenue.mechanism_payments.rows": "count",
    "revenue.revenue_mc.self_s": "s",
    "revenue.mc.rel_halfwidth": "1",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrand.calls": "count",
    "bounds.certify_iid_constant.s": "s",
    "bounds.certify_ar_constant.s": "s",
    "bounds.case2a_integral.s": "s",
    "bounds.iid_ratio_curve.s": "s",
    "lp.build_polytope.self_s": "s",
    "lp.qr.s": "s",
    "lp.cells": "count",
    "lp.rows_full": "count",
    "lp.rows_solver": "count",
    "lp.constraint_mb": "MB",
    "lp.objective.s": "s",
    "lp.linprog.s": "s",
    "lp.iterations": "count",
    "trace.job_p50_s": "s",
}
DERIVED = ("setup.import_kwrob.s", "setup.import_scipy.s", "lp.objective.s", "trace.job_p50_s")


class RunError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(workload, seed, seconds, workdir, *flags):
    """Run one worker to its end; return (its result, launch time on the
    system-wide monotonic clock).  The worker is killed START_MARGIN_S
    after its `seconds` have run out."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--workdir", str(workdir),
        *flags,
    ]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=seconds + START_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{workload} worker timed out")
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"{workload} worker exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    kwrob_file = Path(res["kwrob_file"]).resolve()
    if ROOT / "src" not in kwrob_file.parents:
        raise RunError(f"kwrob imported from {kwrob_file}, not from this checkout")
    return res, launched


def _workdir(workload, seed, trace):
    return HERE / "_work" / f"{workload}-seed{seed}-trace{trace}"


def measure(workload, seed, seconds):
    """End-to-end metrics of one run, and the results of its workers."""
    base = _workdir(workload, seed, 0)
    runs, setup = [], []
    for k in range(STARTS):
        last = k == STARTS - 1
        # each start draws other inputs, so first_job_s is a median over inputs
        res, launched = _start(workload, seed, seconds if last else 0, base / f"start{k}", "--first-input", str(k * 1000))
        runs.append(res)
        setup.append(res["ready_monotonic"] - launched)
    warm = runs[-1]["jobs"][1:]
    metrics = {
        "setup_s": statistics.median(setup),
        "first_job_s": statistics.median(r["jobs"][0]["wall_s"] for r in runs),
        "job_p50_s": statistics.median(j["wall_s"] for j in warm),
        "jobs_per_s": len(warm) / sum(j["wall_s"] for j in warm),
        "cpu_s_per_job": statistics.median(j["cpu_s"] for j in warm),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "threads": THREAD_ENV, "setup_s": setup, "starts": runs}
    (base / "run.json").write_text(json.dumps(record, indent=1))
    totals = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "notes": [n for r in runs for n in r["notes"]],
    }
    return totals, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def layer_metrics(res):
    """Per-layer metrics of a traced worker: medians over its warm jobs."""
    jobs = res["layers"]
    values = {name: statistics.median(j.get(name, 0.0) for j in jobs) for name in PER_LAYER if name not in DERIVED}
    values["setup.import_kwrob.s"] = res["import_kwrob_s"]
    values["setup.import_scipy.s"] = res["import_scipy_s"]
    values["lp.objective.s"] = statistics.median(j.get("lp.minimize.s", 0.0) - j.get("lp.solve.s", 0.0) for j in jobs)
    warm = res["jobs"][1:] or res["jobs"]
    values["trace.job_p50_s"] = statistics.median(j["wall_s"] for j in warm)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def traced(workload, seed, seconds, *flags):
    base = _workdir(workload, seed, 1)
    res, _ = _start(workload, seed, seconds, base, "--trace", "1", *flags)
    metrics = layer_metrics(res)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "threads": THREAD_ENV, "metrics": metrics, **res}
    (base / "run.json").write_text(json.dumps(record, indent=1))
    return res, metrics


def smoke():
    """One small traced job per workload; fails on a failed check or when the
    trace missed the workload's CLI command."""
    ok = True
    for name, command in zip(WORKLOAD_NAMES, ("cli.reproduce.s", "cli.revenue.s", "cli.lp.s")):
        t = time.perf_counter()
        res, metrics = traced(name, 1, 0, "--smoke")
        good = not res["problems"] and metrics[command]["value"] > 0
        ok &= good
        print(
            f"{name}: {'ok' if good else 'FAILED'} attempted={res['attempted']} failed={res['failed']} "
            f"problems={res['problems']} in {time.perf_counter() - t:.1f} s"
        )
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="one small traced job per workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kwrob" / "__init__.py").is_file():
        print(f"error: no kwrob sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    seed = args.seed % 2**32
    print(f"threads: {' '.join(f'{k}={v}' for k, v in THREAD_ENV.items())}", file=sys.stderr)
    try:
        if args.trace:
            res, metrics = traced(args.workload, seed, args.seconds)
        else:
            res, metrics = measure(args.workload, seed, args.seconds)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in res["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not res["problems"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
