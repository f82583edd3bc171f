"""Command-line front end.

Subcommands: counterexample, reproduce, revenue, lp, bounds.
Exit codes: 0 success, 1 bad input (config, instance or values), 2 when a
certified inequality check fails, 3 when the LP solver fails or its answer
fails a check (lp.SolverError).  All outputs are deterministic for a fixed
config: floats at 17 significant digits, sorted JSON keys, LF endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bl
from .io import (
    ConfigError,
    dump_json,
    marginal_from_dict,
    mechanism_from_dict,
    prior_from_dict,
    prior_marginals,
    table_to_csv,
    write_csv,
)
from .marginals import (
    DiscretePMF,
    DomainError,
    EqualRevenue,
    Uniform,
    regular_quantile_bound,
    revenue_curve,
)
from .mechanisms import AnonymousReserve, Myerson
from .priors import (
    ProductPrior,
    myerson_counterexample,
    threshold_probs,
    uniform_q2_counterexample,
    verify_kwise,
)
from .revenue import (
    myerson_ind_revenue,
    posted_price_lower_bound,
    revenue_exact,
    revenue_mc,
)
from .lp import SolverError, build_polytope, minimize_event_prob, minimize_revenue

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_SOLVER_FAILED = 3


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, name, obj):
    text = dump_json(obj, _outdir(args) / name)
    print(text)


# ---------------------------------------------------------------------------


def cmd_counterexample(args):
    if args.kind == "myerson":
        prior = myerson_counterexample(args.n, args.eps)
        mech = Myerson(list(prior.marginals))
        kw = verify_kwise(prior, 2)
        adv = revenue_exact(prior, mech).mean
        ind_lb = posted_price_lower_bound(prior.marginals)
        ind_exact = myerson_ind_revenue(prior.marginals)
        ratio = ind_lb / adv
        report = {
            "kind": "myerson",
            "n": args.n,
            "eps": args.eps,
            "pairwise_pass": kw.passed,
            "pairwise_max_deviation": kw.max_deviation,
            "adversarial_revenue": adv,
            "independent_lower_bound": ind_lb,
            "independent_exact_discretized": ind_exact,
            "ratio_lower_bound": ratio,
            "ratio_threshold": args.n / 3.0,
            "pass": bool(kw.passed and ratio >= args.n / 3.0),
        }
    else:
        prior = uniform_q2_counterexample(args.n)
        tau = (args.n - 1.0) / args.n
        kw = verify_kwise(prior, 2)
        q2i = threshold_probs(ProductPrior(prior.marginals), tau)[1]
        _, q2adv = threshold_probs(prior, tau)
        report = {
            "kind": "q2",
            "n": args.n,
            "tau": tau,
            "pairwise_pass": kw.passed,
            "pairwise_max_deviation": kw.max_deviation,
            "q2_independent": q2i,
            "q2_adversarial": q2adv,
            "ratio": q2i / q2adv if q2adv > 0 else float("inf"),
            "pass": bool(kw.passed and abs(q2adv - 1.0 / args.n**2) <= 1e-12),
        }
    _emit(args, f"counterexample_{args.kind}_n{args.n}.json", report)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _write_ratio_curve(out, rows):
    write_csv(out / "ratio_curve.csv", ["beta", "lb1_inv_beta", "lb2_inv_beta", "ratio_lower_bound"], rows)


def cmd_reproduce(args):
    out = _outdir(args)
    code = EXIT_OK
    if args.target == "2.63":
        lb2_grid = bl.lb2_cumulative_grid()
        rep = bl.certify_iid_constant(lb2_grid=lb2_grid)
        rows = bl.iid_ratio_curve(1000, lb2_grid)
        _write_ratio_curve(out, rows)
        summary = {
            "target_constant": 2.63,
            "beta_star": rep.inputs["beta_star"],
            "min_ratio": rep.value,
            "implied_constant": rep.inputs["constant"],
            "window": [1 / 2.64, 1 / 2.62],
            "pass": bool(1 / 2.64 <= rep.value <= 1 / 2.62 and abs(rep.inputs["beta_star"] - 1 / 3) < 0.01),
        }
        if not summary["pass"]:
            code = EXIT_CHECK_FAILED
        _emit(args, "reproduce_2.63.json", summary)
    elif args.target == "18.07":
        cert = bl.certify_ar_constant(args.p_bar)
        summary = cert.to_dict()
        summary["target_constant"] = bl.AR_TARGET
        summary["checks"] = {
            "case2a_integral_above_0.0984": cert.case2a_integral >= 0.0984,
            "q2_ratio_above_0.215": cert.q2_ratio_value >= 0.215,
            "case1_is_2.91": abs(cert.case1_constant - 2.91) <= 1e-3,
            "final_below_18.07": cert.certified_constant <= 18.07,
        }
        summary["pass"] = bool(all(summary["checks"].values()))
        if not summary["pass"]:
            code = EXIT_CHECK_FAILED
        _emit(args, "reproduce_18.07.json", summary)
    elif args.target in ("figure1",):
        rows = bl.iid_ratio_curve(1000)
        _write_ratio_curve(out, rows)
        _emit(args, "figure1.json", {"rows": len(rows), "csv": "ratio_curve.csv"})
    elif args.target == "figure2":
        uni = Uniform(0.0, 1.0)
        er = EqualRevenue(0.5, 1.0)
        cu, ce = revenue_curve(uni, 201), revenue_curve(er, 201)
        write_csv(out / "figure2a_uniform.csv", ["q", "revenue"], list(zip(cu.qs, cu.revs)))
        write_csv(out / "figure2a_equal_revenue.csv", ["q", "revenue"], list(zip(ce.qs, ce.revs)))
        ps = np.linspace(0.0, 1.0, 201)
        rows = [
            (p, regular_quantile_bound(float(p), 0.5), regular_quantile_bound(float(p), 2.0))
            for p in ps
        ]
        write_csv(out / "figure2b_convexity.csv", ["p", "g_tau_0.5", "g_tau_2"], rows)
        _emit(
            args,
            "figure2.json",
            {
                "csv": [
                    "figure2a_uniform.csv",
                    "figure2a_equal_revenue.csv",
                    "figure2b_convexity.csv",
                ]
            },
        )
    elif args.target == "case1-2.91":
        exact = bl.tail_core_case1()
        constant = bl.Q1_RATIO * (1.0 + bl.AR_CASE1_TAILCORE)
        summary = {
            "tail_core_exact": exact,
            "tail_core_ceiling": bl.AR_CASE1_TAILCORE,
            "constant": constant,
            "target_constant": 2.91,
            "pass": bool(exact < bl.AR_CASE1_TAILCORE and constant <= 2.91 + 1e-3),
        }
        if not summary["pass"]:
            code = EXIT_CHECK_FAILED
        _emit(args, "reproduce_case1.json", summary)
    return code


def cmd_revenue(args):
    with open(args.config) as fh:
        cfg = json.load(fh)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.samples is not None:
        cfg["samples"] = args.samples
    marginals = [marginal_from_dict(d) for d in cfg.get("marginals", [])] or None
    prior = prior_from_dict(cfg["prior"], marginals) if "prior" in cfg else None
    if prior is None:
        raise ConfigError("config: missing prior")
    if marginals is None:
        marginals = prior_marginals(prior)
    if len(marginals) != prior.n_bidders:
        raise ConfigError(
            f"config: {len(marginals)} marginals for {prior.n_bidders} bidders"
        )
    mech = mechanism_from_dict(cfg.get("mechanism", {"type": "ar", "r": 0.0}), marginals)
    mode = cfg.get("mode", "exact")
    if mode == "exact":
        est = revenue_exact(prior, mech, grids=cfg.get("grids"))
    elif mode == "mc":
        if "seed" not in cfg:
            raise ConfigError("config: seed is mandatory for mc mode")
        est = revenue_mc(
            prior,
            mech,
            int(cfg.get("samples", 100_000)),
            int(cfg["seed"]),
        )
    else:
        raise ConfigError(f"config: unknown mode {mode!r}")
    if "curve" in cfg:
        _write_threshold_curve(args, cfg["curve"], prior, marginals)
    _emit(args, "revenue.json", est.to_dict())
    return EXIT_OK


def _write_threshold_curve(args, spec, prior, marginals):
    """Columns tau, q1, q2, q1_ind, q2_ind on the requested grid."""
    if "taus" in spec:
        taus = [float(t) for t in spec["taus"]]
    else:
        taus = np.linspace(
            float(spec["lo"]), float(spec["hi"]), int(spec.get("count", 101))
        ).tolist()
    rows = zip(taus, *threshold_probs(prior, taus), *threshold_probs(ProductPrior(marginals), taus))
    write_csv(_outdir(args) / "threshold_curve.csv", ["tau", "q1", "q2", "q1_ind", "q2_ind"], rows)


def cmd_lp(args):
    with open(args.instance) as fh:
        cfg = json.load(fh)
    marginals = [marginal_from_dict(d) for d in cfg["marginals"]]
    tables = []
    for m in marginals:
        if not isinstance(m, DiscretePMF):
            raise ConfigError("lp instances need discrete marginals")
        tables.append((list(m.points), list(m.masses)))
    poly = build_polytope(tables, args.k)
    if args.action == "worst-case":
        if args.mechanism == "ar":
            if args.r is None:
                raise ConfigError("--r is required for the ar mechanism")
            mech = AnonymousReserve(args.r)
        else:
            mech = Myerson(marginals)
        sol = minimize_revenue(poly, mech)
    else:
        if args.tau is None:
            raise ConfigError("--tau is required for min-event")
        sol = minimize_event_prob(poly, args.tau, args.count)
    out = _outdir(args)
    table_to_csv(sol.table, out / "worst_case_table.csv")
    _emit(
        args,
        "worst_case.json",
        {
            "objective": sol.objective,
            "duality_gap": sol.duality_gap,
            "iterations": sol.iterations,
            "feasibility_residual": sol.feasibility_residual,
            "k": args.k,
            "table_csv": "worst_case_table.csv",
        },
    )
    return EXIT_OK


def cmd_bounds(args):
    out = _outdir(args)
    rows = bl.bounds_table_rows()
    write_csv(out / "bounds.csv", ["bound_id", "inputs", "value"], rows)
    print(f"wrote {len(rows)} rows to {out / 'bounds.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="kwrob",
        description="Auctions under k-wise independent priors: constructions, "
        "revenue evaluation, bound certification, worst-case LP search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ce = sub.add_parser("counterexample", help="build and audit an adversarial prior")
    ce.add_argument("kind", choices=["myerson", "q2"])
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--eps", type=float, default=1e-6)
    ce.add_argument("--out", default="out")
    ce.set_defaults(func=cmd_counterexample)

    rp = sub.add_parser("reproduce", help="re-derive a headline constant or figure")
    rp.add_argument(
        "target", choices=["2.63", "18.07", "figure1", "figure2", "case1-2.91"]
    )
    rp.add_argument("--p-bar", type=float, default=0.674)
    rp.add_argument("--out", default="out")
    rp.set_defaults(func=cmd_reproduce)

    rv = sub.add_parser("revenue", help="evaluate expected revenue from a config")
    rv.add_argument("--config", required=True)
    rv.add_argument("--seed", type=int, default=None, help="override the config seed")
    rv.add_argument("--samples", type=int, default=None, help="override the config sample count")
    rv.add_argument("--out", default="out")
    rv.set_defaults(func=cmd_revenue)

    lp = sub.add_parser(
        "lp", help="worst-case prior search for the optimal mechanism (virtual-value ties to the lower index) or AR(--r)"
    )
    lp.add_argument("action", choices=["worst-case", "min-event"])
    lp.add_argument("--instance", required=True)
    lp.add_argument("--k", type=int, default=2)
    lp.add_argument("--mechanism", choices=["myerson", "ar"], default="myerson")
    lp.add_argument("--r", type=float, default=None)
    lp.add_argument("--tau", type=float, default=None)
    lp.add_argument("--count", type=int, choices=[1, 2], default=1)
    lp.add_argument("--out", default="out")
    lp.set_defaults(func=cmd_lp)

    bd = sub.add_parser("bounds", help="emit the bound tables")
    bd.add_argument("action", choices=["table"])
    bd.add_argument("--out", default="out")
    bd.set_defaults(func=cmd_bounds)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED


if __name__ == "__main__":
    sys.exit(main())
