"""``cyclezeta divcount``: the bounded arithmetic-degree divisor census."""

from __future__ import annotations

from . import CommandResult, _QUAD, _add_options, _finite_float, _result


def add_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=_finite_float, required=True)
    p.add_argument("--h", type=_finite_float, required=True)
    # of the shared quadrature options, just the nodes: the census's guard
    # band is built from the errors of the exact and grid routes, and
    # three Monte Carlo standard errors would make it a statistical one
    _add_options(p, _QUAD, "--nodes")
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import fs_norms
    from ..quadrature import QuadratureConfig

    cfg = QuadratureConfig(nodes_per_dim=args.nodes)
    census = fs_norms.count_arith_divisors_bounded(args.n, args.lam, args.h, cfg)
    res = _result(args, "exhaustive certified-region search with guard band")
    res.add_int("count", census.count)
    res.add_float("log_certified_bound", census.log_certified_bound)
    res.add_int("coeff_box", census.max_inf_norm)
    res.add_raw("borderline", [str(f) for f in census.borderline])
    return res
