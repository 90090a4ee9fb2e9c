"""``cyclezeta bound``: counting bounds and pinned constants."""

from __future__ import annotations

import math

from . import CommandResult, _add_kinds, _finite_float, _multidegree, _result

_OPTIONS = {
    "--n": dict(type=int, default=1),
    "--l": dict(type=int, default=0),
    "--q": dict(default="2"),
    "--h": dict(type=_finite_float, default=1.0),
    "--deg-d": dict(type=_finite_float, default=1.0),
    "--deg-e": dict(type=_finite_float, default=1.0),
    "--deg-c": dict(type=_finite_float, default=1.0),
    "--theta-d": dict(type=int, default=1),
    "--theta-e": dict(type=int, default=1),
    "--deg-pi": dict(type=int, default=1),
    "--mults": dict(type=_multidegree, default=(1,)),
}


def add_arguments(p):
    _add_kinds(p, _OPTIONS, {
        "constant": (constant, "--n --l"),
        "counting-system": (counting_system, "--q --n --l --h"),
        "product-cycle": (product_cycle, "--deg-d --deg-e --deg-c --theta-d --theta-e"),
        "pushforward": (pushforward, "--deg-pi --mults"),
    })


def constant(args) -> CommandResult:
    from .. import bound_engine

    const = bound_engine.explicit_constant_pn(args.n, args.l)
    res = _result(args, "pinned recursion over boundary strata")
    res.add_int("constant", const.value)
    res.add_raw("derivation", list(const.derivation))
    return res


def counting_system(args) -> CommandResult:
    from .. import bound_engine

    spec = bound_engine.divisor_tower_spec(args.q, args.n, args.l)
    res = _result(args, "inductive tower combinator, divisor instantiation")
    res.add_float(
        "log2_bound",
        bound_engine.counting_system_log_bound(spec, args.h) / math.log(2),
    )
    return res


def product_cycle(args) -> CommandResult:
    from .. import bound_engine

    value = bound_engine.product_cycle_bound(
        args.deg_d, args.deg_e, args.deg_c, args.theta_d, args.theta_e
    )
    res = _result(args, "fiber bound for paired pushforwards")
    res.add_float("logq_bound", value)
    return res


def pushforward(args) -> CommandResult:
    from .. import bound_engine

    exponent = bound_engine.pushforward_bound(args.deg_pi, args.mults)
    res = _result(args, "finite-map preimage bound")
    res.add_int("log2_bound", exponent)
    return res
