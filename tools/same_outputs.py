"""Check that a change writes the same bytes as its parent on the
benchmark's workloads.

    python3 tools/same_outputs.py [--parent REV] [--change DIR] [--seed S] [--jobs 0,1,5 | 0-11] [--workload NAME ...]

The parent is git revision REV (default HEAD), exported with `git archive`;
the change is the checkout at DIR (default this repo's working tree).  Per
tree, each workload's jobs are written by this checkout's
bench/workloads.py, so both trees get the same inputs, into a run directory
at the same path.  One fresh Python process with the tree's src first on
sys.path then runs every op's argv through kwrob.cli.main, with BLAS
threads pinned to 1.  Exit codes are compared first, then
every file under each workload's directory, byte for byte; a .json file
that differs is named with the top-level keys whose values differ.  Prints
one line per workload and exits 1 on any difference.  Standard library
only, apart from the numpy that bench/workloads.py imports.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from trees import ROOT, THREADS, export

sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

# Runs in the fresh process: argv lists on stdin, exit codes on stdout.
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import kwrob.cli
codes = []
for argv in json.load(sys.stdin):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(kwrob.cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
    except Exception as exc:
        codes.append(f"raised {type(exc).__name__}: {exc}")
print(json.dumps({"kwrob": kwrob.cli.__file__, "codes": codes}))
"""


def run_tree(tree, run_dir, workloads, seed, jobs):
    """Write every job's inputs under run_dir/<workload>, then run every op
    with tree's kwrob; {workload: [(op name, exit code)]}."""
    ops = {}
    for name in workloads:
        wl = WORKLOADS[name](seed, run_dir / name)
        wl.setup()
        ops[name] = [op for j in jobs for op in wl.write_job(j, run_dir / name / f"job{j}")[0]]
    argvs = [[str(a) for a in op.argv] for name in workloads for op in ops[name]]
    env = {**os.environ, **THREADS}
    res = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(tree, "src").resolve())],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, cwd=run_dir.parent, check=True,
    )
    out = json.loads(res.stdout.splitlines()[-1])
    if not Path(out["kwrob"]).resolve().is_relative_to(Path(tree).resolve()):
        raise RuntimeError(f"{tree}: ran kwrob from {out['kwrob']}")
    codes = iter(out["codes"])
    return {name: [(str(op.out.relative_to(run_dir / name)), next(codes)) for op in ops[name]] for name in workloads}


def files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def differs(path, a, b):
    """'differs: path' for files of bytes a and b, followed by the sorted
    top-level keys whose values differ when both are JSON objects."""
    if path.suffix == ".json":
        try:
            a, b = json.loads(a), json.loads(b)
        except ValueError:
            a = b = None
        if isinstance(a, dict) and isinstance(b, dict):
            same = {k for k in a.keys() & b.keys() if json.dumps(a[k]) == json.dumps(b[k])}
            return f"differs: {path} [{', '.join(sorted((a.keys() | b.keys()) - same))}]"
    return f"differs: {path}"


def compare(name, base, codes):
    """One line on workload `name`: parent and change outputs under base."""
    parent, change = files(base / "parent" / name), files(base / "change" / name)
    problems = [f"{op} exits {a} vs {b}" for (op, a), (_, b) in zip(codes["parent"][name], codes["change"][name]) if a != b]
    problems += [f"only in parent: {p}" for p in sorted(parent.keys() - change.keys())]
    problems += [f"only in change: {p}" for p in sorted(change.keys() - parent.keys())]
    problems += [differs(p, parent[p], change[p]) for p in sorted(parent.keys() & change.keys()) if parent[p] != change[p]]
    size = f"{len(codes['parent'][name])} ops, {len(parent)} files"
    return (f"{name}: DIFFERENT ({size}): " + "; ".join(problems)) if problems else f"{name}: same ({size})", bool(problems)


def job_list(text):
    """Job indices from "0,1,5", "0-11" or a mix such as "0-3,7"."""
    jobs = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        jobs += range(int(lo), int(hi or lo) + 1)
    return jobs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    ap.add_argument("--change", default=str(ROOT), help="root of the change checkout (default this tree)")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--jobs", default="0", type=job_list, help="comma-separated job indices or ranges such as 0-11 (default 0)")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="repeatable; default all")
    args = ap.parse_args(argv)
    jobs = args.jobs
    workloads = args.workload or list(WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        base, run_dir = Path(tmp), Path(tmp) / "run"
        sha = export(args.parent, base / "parent_tree")
        codes = {}
        for side, tree in (("parent", base / "parent_tree"), ("change", Path(args.change))):
            run_dir.mkdir()
            codes[side] = run_tree(tree, run_dir, workloads, args.seed, jobs)
            run_dir.rename(base / side)
        print(f"parent {sha[:12]}, change {args.change}, seed {args.seed}, jobs {jobs}")
        results = [compare(name, base, codes) for name in workloads]
    for line, _ in results:
        print(line)
    return int(any(bad for _, bad in results))


if __name__ == "__main__":
    sys.exit(main())
