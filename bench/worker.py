"""One benchmark process: set up, then run jobs of a workload in-process
through kwrob.cli.main and check each job's outputs.  Job 1 always runs;
with --seconds above 0, warm jobs follow until --seconds have passed and
at least MIN_WARM ran.

Started by run.py with the thread settings and PYTHONPATH it chooses.  It
prints one JSON line on stdout when it ends; the program's own stdout is
discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402

perf = time.perf_counter
MIN_WARM = 3


def _cli_runner(cli, sink):
    def run(argv):
        with contextlib.redirect_stdout(sink):
            return cli.main([str(a) for a in argv])

    return run


def _run_op(runner, op):
    """Exit code of one CLI call, or None when it raised."""
    try:
        return runner(op.argv)
    except Exception:  # an operation that crashes is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None


def _check_job(wl, ops, params, codes, runner):
    """(failed ops, unexpected problems).  An op fails when its command
    errs or its output check fails; the failure is expected only when the
    op is marked as a known fault and the check raised KnownFault."""
    from workloads import CheckFailed, KnownFault

    failed, problems = 0, []
    for op, rc in zip(ops, codes):
        try:
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            wl.check(op, params, runner)
            continue
        except CheckFailed as exc:
            expected = op.known_fault and isinstance(exc, KnownFault)
            msg = f"{wl.name} {op.name}: {exc}"
        except Exception as exc:  # unreadable or malformed output
            traceback.print_exc(file=sys.stderr)
            expected = False
            msg = f"{wl.name} {op.name}: {type(exc).__name__}: {exc}"
        failed += 1
        if not expected:
            problems.append(msg)
            print(f"check failed: {msg}", file=sys.stderr)
    return failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--first-input", type=int, default=0, help="input index of job 1; job j uses index first-input + j")
    args = ap.parse_args(argv)

    # -- set-up: import the CLI, write the workload's generated inputs ------
    # kwrob is imported before the benchmark's own modules, so its imports
    # (numpy, scipy) are paid for and timed as the program's.
    if args.trace:
        import_s, import_scipy_s = layertrace.timed_import_kwrob()
    import kwrob.cli as cli
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    wl.setup()
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "kwrob_file": cli.__file__}

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        layertrace.instrument(tracer)
    min_warm = MIN_WARM if args.seconds > 0 else 0

    jobs = []
    attempted = failed = 0
    problems = []
    with open(os.devnull, "w") as sink:
        runner = _cli_runner(cli, sink)
        t_begin = perf()
        j = 0
        while True:
            out = workdir / "job"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            # Every job starts from a collected heap, as a fresh CLI process
            # would, so no job's timing pays for collecting the last one's
            # garbage.
            gc.collect()
            if tracer:
                tracer.begin_job()
            t0, c0 = perf(), time.process_time()
            ops, params = wl.write_job(args.first_input + j, out)
            codes = [_run_op(runner, op) for op in ops]
            wall, cpu = perf() - t0, time.process_time() - c0
            if tracer:
                tracer.end_job()
            t_check = perf()
            nf, probs = _check_job(wl, ops, params, codes, runner)
            jobs.append({"wall_s": wall, "cpu_s": cpu, "check_s": perf() - t_check})
            attempted += len(ops)
            failed += nf
            problems += probs
            j += 1
            warm = j - 1
            if warm >= min_warm and perf() - t_begin >= args.seconds:
                break

    result.update(
        jobs=jobs,
        attempted=attempted,
        failed=failed,
        problems=problems,
        notes=getattr(wl, "notes", []),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        warm_layers = tracer.jobs[1:] or tracer.jobs
        result["layers"] = warm_layers
        result["import_kwrob_s"] = import_s
        result["import_scipy_s"] = import_scipy_s
        with open(workdir / "trace.json", "w") as fh:
            json.dump(tracer.dump(), fh)
        result["trace_file"] = str(workdir / "trace.json")
    shutil.rmtree(workdir / "job", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
