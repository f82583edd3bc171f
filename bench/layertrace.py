"""Layer tracing from outside the program.

`instrument(tracer)` replaces public functions of the kwrob modules (and
`scipy.linalg.qr`) with wrappers that record nested spans and counters.
The program's source is untouched: a function is rebound in its defining
module and in every kwrob module that imported it by name, so calls made
through either binding are seen.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.  Functions called thousands of times per job ("hot"
ones) are timed and counted but not stored span by span, so the trace
stays small; their time is still subtracted from their parent's self
time.  Self time is a span's duration minus the time its child spans
cover.  Functions that are only counted run with no timing at all.
"""

from __future__ import annotations

import builtins
import functools
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []  # [name, start, end, parent index or None]
        self.jobs = []  # per-job metric dicts, in job order
        self._stack = []  # frames: [name, start, child_s, span index, parent for children]
        self._depth = defaultdict(int)
        self.acc = defaultdict(float)

    # -- spans ---------------------------------------------------------
    def enter(self, name, hot=False):
        parent = self._stack[-1][4] if self._stack else None
        start = perf()
        idx = None
        if not hot:
            idx = len(self.spans)
            self.spans.append([name, start, None, parent])
        self._stack.append([name, start, 0.0, idx, idx if idx is not None else parent])
        self._depth[name] += 1

    def exit(self):
        end = perf()
        name, start, child, idx, _ = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self._depth[name] -= 1
        if self._depth[name] == 0:  # outermost span of this name
            self.acc[name + ".s"] += dur
        self.acc[name + ".self_s"] += dur - child
        self.acc[name + ".calls"] += 1
        if idx is not None:
            self.spans[idx][2] = end

    def count(self, key, amount=1):
        self.acc[key] += amount

    def keep_max(self, key, value):
        self.acc[key] = max(self.acc.get(key, value), value)

    def set(self, key, value):
        self.acc[key] = value

    # -- jobs ----------------------------------------------------------
    def begin_job(self):
        self.acc = defaultdict(float)
        self.on = True
        self.enter("job")

    def end_job(self):
        self.exit()
        self.on = False
        metrics = dict(self.acc)
        self.jobs.append(metrics)
        return metrics

    def dump(self):
        return {
            "spans": self.spans,
            "jobs": self.jobs,
            "span_fields": ["name", "start_s", "end_s", "parent"],
        }


# ---------------------------------------------------------------------------
# Wrappers


def _timed(tracer, name, fn, hot=False, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        if before is not None:
            args, kwargs = before(args, kwargs)
        tracer.enter(name, hot)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _counted(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.on:
            tracer.acc[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _rebind(module_name, attr, make):
    """Replace module.attr, and every kwrob module's binding of the same
    object, by make(original)."""
    module = sys.modules[module_name]
    orig = getattr(module, attr)
    new = make(orig)
    holders = [module] + [
        m for name, m in list(sys.modules.items()) if (name == "kwrob" or name.startswith("kwrob.")) and m is not module
    ]
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, key, new)


def instrument(tracer):
    """Wrap the layer boundaries the per-layer metrics are read from, for
    the rest of the process.  kwrob.cli (and with it every kwrob module)
    must already be imported."""
    import kwrob.marginals as marginals

    def span(module, attr, name=None, **kw):
        _rebind(module, attr, lambda fn: _timed(tracer, name or f"{module[6:]}.{attr}", fn, **kw))

    for cmd in ("counterexample", "reproduce", "revenue", "lp"):
        span("kwrob.cli", f"cmd_{cmd}", f"cli.{cmd}")
    for attr in ("write_csv", "dump_json", "table_to_csv"):
        span("kwrob.io", attr, "io.write")
    for attr in ("myerson_counterexample", "uniform_q2_counterexample"):
        span("kwrob.priors", attr, "priors.construct")
    span(
        "kwrob.priors",
        "verify_kwise",
        after=lambda a, k, out: tracer.count("priors.verify_kwise.cells", out.n_checked),
    )
    span("kwrob.priors", "threshold_probs", hot=True)
    span("kwrob.priors", "sample", after=lambda a, k, out: tracer.count("priors.sample.rows", len(out) if out.ndim == 2 else 1))
    _rebind("kwrob.priors", "q1q2_from_qvec", lambda fn: _counted(tracer, "priors.q1q2_from_qvec.calls", fn))
    for cls in (marginals.EqualRevenue, marginals.ShiftedEqualRevenue, marginals.Uniform, marginals.DiscretePMF):
        for attr in ("phi_geq_inv", "phi_gt_inv"):
            setattr(cls, attr, _counted(tracer, "marginals.phi_inv.calls", cls.__dict__[attr]))

    span("kwrob.mechanisms", "threshold_payment", hot=True)
    span("kwrob.mechanisms", "run_mechanism", hot=True)

    span("kwrob.revenue", "revenue_exact")
    span("kwrob.revenue", "mechanism_payments", after=lambda a, k, out: tracer.count("revenue.mechanism_payments.rows", len(out)))

    def mc_done(args, kwargs, est):
        if est.mean != 0.0:
            tracer.keep_max("revenue.mc.rel_halfwidth", est.half_width_95 / abs(est.mean))

    span("kwrob.revenue", "revenue_mc", after=mc_done)

    def count_integrand(args, kwargs):
        f = _counted(tracer, "quadrature.integrand.calls", args[0])
        return (f,) + tuple(args[1:]), kwargs

    span("kwrob.quadrature", "integrate", before=count_integrand)
    for attr in ("certify_iid_constant", "certify_ar_constant", "case2a_integral", "iid_ratio_curve"):
        span("kwrob.bounds", attr)

    def polytope_built(args, kwargs, poly):
        # sizes of one build; bytes are computed from the float64 shapes
        tracer.set("lp.cells", poly.n_cells)
        tracer.set("lp.rows_full", poly.A.shape[0])
        tracer.set("lp.rows_solver", poly.A_red.shape[0])
        tracer.set("lp.constraint_mb", 8 * (poly.A.shape[0] + poly.A_red.shape[0]) * poly.A.shape[1] / 1e6)

    span("kwrob.lp", "build_polytope", after=polytope_built)
    span("kwrob.lp", "minimize_revenue", "lp.minimize")
    span("kwrob.lp", "minimize_event_prob", "lp.minimize")
    span("kwrob.lp", "_solve", "lp.solve")
    span("kwrob.lp", "linprog", "lp.linprog", after=lambda a, k, res: tracer.count("lp.iterations", int(getattr(res, "nit", 0))))
    span("scipy.linalg", "qr", "lp.qr")


# ---------------------------------------------------------------------------
# Import timing


def timed_import_kwrob():
    """Import kwrob.cli; return (total seconds, seconds inside imports of
    scipy).  scipy time is the wall time of `import scipy...` statements
    reached while no other scipy import is in progress."""
    state = {"depth": 0, "scipy_s": 0.0}
    real_import = builtins.__import__

    def hooked(name, globals=None, locals=None, fromlist=(), level=0):
        top = level == 0 and (name == "scipy" or name.startswith("scipy.")) and state["depth"] == 0
        if not top:
            return real_import(name, globals, locals, fromlist, level)
        state["depth"] += 1
        t = perf()
        try:
            return real_import(name, globals, locals, fromlist, level)
        finally:
            state["scipy_s"] += perf() - t
            state["depth"] -= 1

    builtins.__import__ = hooked
    t0 = perf()
    try:
        import kwrob.cli  # noqa: F401
    finally:
        total = perf() - t0
        builtins.__import__ = real_import
    return total, state["scipy_s"]
