"""``cyclezeta zeta``: the truncated cycle zeta series."""

from __future__ import annotations

from . import CommandResult, _add_space_args, _audit, _int_text, _params, _space


def add_arguments(p):
    _add_space_args(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--audit", action="store_true")


def run(args) -> CommandResult:
    from .. import zeta_series

    space = _space(args)
    series = zeta_series.local_zeta_series(space, args.q, args.l, args.kmax)
    res = CommandResult("zeta", _params(args))
    res.add_raw("coefficients", [_int_text(c) for c in series.coefficients])
    res.add_raw("exponents", [series.exponent(k) for k in range(args.kmax + 1)])
    res.provenance = "exact cycle counts at sparse exponents"
    if args.audit:
        from ..exact_counts import cycle_family

        family = cycle_family(space, args.l)
        _audit(res, family, space, args.q, enumerate(series.coefficients))
    return res
