"""Alternating parent/change runs of bench/run.py, summarised in the shape
of the repo's BENCH_<topic>.json files.

    python3 tools/bench_pairs.py --topic TEXT --out BENCH_x.json \\
        [--parent REV] [--change DIR] [--workload NAME ...] [--pairs 10] [--seed 23] [--seconds 8]

The parent is git revision REV (default HEAD), exported with `git archive`
into a temporary directory; the change is the checkout at DIR (default this
repo's working tree).  Pair k runs the parent first when k is even and the
change first when k is odd.  Standard library only.

Each end-to-end metric's direction and bound come from BENCHMARK.json.  Per
metric the summary gives both sides' median and quartiles, the pairs the
change won (ties count for neither), the parent's quartile spread,
`claim_met` (the change won at least nine tenths of the pairs and its
median is better than the parent's by more than that spread) and
`within_bound` (the change's median is no worse than the parent's by more
than the bound, a fraction of the parent's median).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from trees import ROOT, THREADS, export

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run(root, workload, seed, seconds):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = json.loads(subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()[-1])
    metrics = {k: round(v["value"], 6) for k, v in res["metrics"].items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], **metrics}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(runs):
    parent, change = runs["parent"], runs["change"]
    out = {}
    for metric in END_TO_END:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c[name] - p[name]) < 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles([r[name] for r in parent]), quartiles([r[name] for r in change])
        spread = p_q["q3"] - p_q["q1"]
        gain = sign * (p_q["median"] - c_q["median"])  # > 0 when the change's median is better
        out[name] = {
            "parent": p_q,
            "change": c_q,
            "change_better_pairs": wins,
            "pairs": len(parent),
            "parent_quartile_spread": round(spread, 6),
            "claim_met": 10 * wins >= 9 * len(parent) and gain > spread,
            "bound": metric["bound"],
            "within_bound": -gain <= metric["bound"] * p_q["median"],
        }
    out["failed/attempted"] = {
        side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}" for side, rs in runs.items()
    }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--topic", required=True, help="what the change does, for the file's topic field")
    ap.add_argument("--out", required=True, help="the BENCH_<topic>.json file to write")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    ap.add_argument("--change", default=str(ROOT), help="root of the change checkout (default this tree)")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default paper-exact)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--seconds", type=int, default=8)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True)
    record = {
        "topic": args.topic,
        "parent_sha": None,  # set on export
        "change": "the commit that adds this file, a child of parent_sha",
        "command": f"python3 bench/run.py --workload WORKLOAD --seed {args.seed} --seconds {args.seconds} --trace 0, run from the root of each checkout",
        "order": "parent and change runs alternate, the side that runs first alternating by pair (parent first in even pairs); run lists are in run order",
        "host": f"{platform.system()} host, {os.cpu_count()} CPUs; its speed drifts, so compare values only within one file",
        "versions": {"python": platform.python_version(), "numpy": numpy.stdout.strip()},
        "threads": THREADS,
        "units": {"*_s": "seconds", "peak_rss_mb": "MB", "jobs_per_s": "1/s"},
        "summary": {},
        "seeds": {"summary": args.seed},
        "runs": {},
    }
    with tempfile.TemporaryDirectory() as parent:
        record["parent_sha"] = export(args.parent, parent)
        roots = {"parent": parent, "change": args.change}
        for workload in args.workload or ["paper-exact"]:
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append({"pair": k, **run(roots[side], workload, args.seed, args.seconds)})
                    print(workload, k, side, runs[side][-1]["job_p50_s"], file=sys.stderr)
            record["runs"][workload] = runs
            record["summary"][workload] = summarise(runs)
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
