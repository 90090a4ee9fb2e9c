"""``cyclezeta bound``: counting bounds and pinned constants."""

from __future__ import annotations

import math

from . import CommandResult, _finite_float, _multidegree, _params


def add_arguments(p):
    p.add_argument("kind", choices=["constant", "counting-system",
                                    "product-cycle", "pushforward"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--q", default="2")
    p.add_argument("--h", type=_finite_float, default=1.0)
    p.add_argument("--deg-d", type=_finite_float, default=1.0)
    p.add_argument("--deg-e", type=_finite_float, default=1.0)
    p.add_argument("--deg-c", type=_finite_float, default=1.0)
    p.add_argument("--theta-d", type=int, default=1)
    p.add_argument("--theta-e", type=int, default=1)
    p.add_argument("--deg-pi", type=int, default=1)
    p.add_argument("--mults", type=_multidegree, default=(1,))


def run(args) -> CommandResult:
    from .. import bound_engine

    res = CommandResult("bound", _params(args))
    if args.kind == "constant":
        const = bound_engine.explicit_constant_pn(args.n, args.l)
        res.add_int("constant", const.value)
        res.add_raw("derivation", list(const.derivation))
        res.provenance = "pinned recursion over boundary strata"
    elif args.kind == "counting-system":
        spec = bound_engine.divisor_tower_spec(args.q, args.n, args.l)
        res.add_float(
            "log2_bound",
            bound_engine.counting_system_log_bound(spec, args.h) / math.log(2),
        )
        res.provenance = "inductive tower combinator, divisor instantiation"
    elif args.kind == "product-cycle":
        value = bound_engine.product_cycle_bound(
            args.deg_d, args.deg_e, args.deg_c, args.theta_d, args.theta_e
        )
        res.add_float("logq_bound", value)
        res.provenance = "fiber bound for paired pushforwards"
    else:  # pushforward
        exponent = bound_engine.pushforward_bound(args.deg_pi, args.mults)
        res.add_int("log2_bound", exponent)
        res.provenance = "finite-map preimage bound"
    return res
