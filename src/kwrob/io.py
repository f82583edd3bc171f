"""JSON instance schema and CSV emitters.

Schema (wire format consumed by the CLI):

marginal   {"type": "equal_revenue", "lo": .., "hi": ..}
           {"type": "shifted_er", "lo": .., "hi": .., "eps": ..}
           {"type": "uniform", "lo": .., "hi": ..}
           {"type": "discrete", "points": [..], "masses": [..]}
prior      {"type": "product", "marginals": [..]}
           {"type": "myerson_counterexample", "n": .., "eps": ..}
           {"type": "uniform_q2", "n": ..}
           {"type": "table", "supports": [[..], ..], "pmf": [..]}
mechanism  {"type": "ar", "r": ..}
           {"type": "myerson"}  the optimal mechanism, ties to the lower
                                index; an optional "tie_break" must be "lex"

Floats are emitted with 17 significant digits and LF line endings so that
re-running a command is byte-identical.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .marginals import DiscretePMF, DomainError, EqualRevenue, ShiftedEqualRevenue, Uniform
from .mechanisms import AnonymousReserve, Myerson
from .priors import (
    MixturePrior,
    ProductPrior,
    TablePrior,
    myerson_counterexample,
    uniform_q2_counterexample,
)


class ConfigError(ValueError):
    pass


def _need(obj, key, where):
    if key not in obj:
        raise ConfigError(f"{where}: missing field {key!r}")
    return obj[key]


def marginal_from_dict(d, where="marginal"):
    kind = _need(d, "type", where)
    try:
        if kind == "equal_revenue":
            return EqualRevenue(float(_need(d, "lo", where)), float(_need(d, "hi", where)))
        if kind == "shifted_er":
            return ShiftedEqualRevenue(
                float(_need(d, "lo", where)),
                float(_need(d, "hi", where)),
                float(_need(d, "eps", where)),
            )
        if kind == "uniform":
            return Uniform(float(_need(d, "lo", where)), float(_need(d, "hi", where)))
        if kind == "discrete":
            return DiscretePMF(_need(d, "points", where), _need(d, "masses", where))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown marginal type {kind!r}")


def prior_from_dict(d, marginals=None, where="prior"):
    kind = _need(d, "type", where)
    if kind == "product":
        ms = marginals or [marginal_from_dict(x, where) for x in _need(d, "marginals", where)]
        return ProductPrior(ms)
    if kind == "myerson_counterexample":
        return myerson_counterexample(int(_need(d, "n", where)), float(d.get("eps", 1e-6)))
    if kind == "uniform_q2":
        return uniform_q2_counterexample(int(_need(d, "n", where)))
    if kind == "table":
        return TablePrior(_need(d, "supports", where), np.asarray(_need(d, "pmf", where)))
    raise ConfigError(f"{where}: unknown prior type {kind!r}")


def mechanism_from_dict(d, marginals, where="mechanism"):
    kind = _need(d, "type", where)
    if kind == "ar":
        return AnonymousReserve(float(_need(d, "r", where)))
    if kind == "myerson":
        if marginals is None:
            raise ConfigError(f"{where}: myerson mechanism needs instance marginals")
        if d.get("tie_break", "lex") != "lex":
            raise ConfigError(f"{where}.tie_break: only \"lex\" is supported, got {d['tie_break']!r}")
        return Myerson(marginals)
    raise ConfigError(f"{where}: unknown mechanism type {kind!r}")


def prior_marginals(prior):
    if isinstance(prior, MixturePrior):
        return list(prior.marginals)
    return prior.to_marginals()


# ---------------------------------------------------------------------------
# Deterministic emitters


FLOAT_FORMAT = ".17g"


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FORMAT)


def write_csv(path, header, rows):
    """One line per row, each cell through fmt (a string as it is).  A row
    of floats only is formatted by one % operation: "%.17g" % x makes the
    same float-to-string call as format(x, ".17g")."""

    def line(row):
        row = tuple(row)
        if all(isinstance(x, float) for x in row):
            return ",".join(["%" + FLOAT_FORMAT] * len(row)) % row
        return ",".join(x if isinstance(x, str) else fmt(x) for x in row)

    _write_lines(path, header, map(line, rows))


def _write_lines(path, header, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def dump_json(obj, path=None) -> str:
    def default(o):
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")

    text = json.dumps(obj, sort_keys=True, indent=2, default=default)
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text + "\n")
    return text


def table_to_csv(table: TablePrior, path):
    """One row per cell in C order (the last bidder varies fastest), as
    write_csv would write it.  Each support point is formatted once, and
    the rows are one template filled by one % operation: "%.17g" per mass,
    except the literal 0 for a +0.0 mass (-0.0 still prints -0)."""
    header = [f"v{i+1}" for i in range(table.n_bidders)] + ["mass"]
    points = [[fmt(v) + "," for v in s] for s in table.supports]
    pmf = table.pmf.ravel()
    zero = (pmf == 0.0) & ~np.signbit(pmf)
    prefixes = map("".join, itertools.product(*points))
    template = "\n".join(v + ("0" if z else "%" + FLOAT_FORMAT) for v, z in zip(prefixes, zero.tolist()))
    _write_lines(path, header, [template % tuple(pmf[~zero].tolist())])


def table_from_csv(path) -> TablePrior:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    n = len(header) - 1
    cells = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n + 1:
            raise ConfigError(f"bad table row: {ln!r}")
        cells.append(([float(x) for x in parts[:n]], float(parts[n])))
    supports = [sorted({vals[i] for vals, _ in cells}) for i in range(n)]
    index = [{v: j for j, v in enumerate(s)} for s in supports]
    pmf = np.zeros([len(s) for s in supports])
    for vals, mass in cells:
        pmf[tuple(index[i][vals[i]] for i in range(n))] += mass
    return TablePrior(supports, pmf)
