"""``cyclezeta zeta``: the truncated cycle zeta series."""

from __future__ import annotations

from . import CommandResult, _SPACE, _add_options, _audit, _int_text, _result, _space


def add_arguments(p):
    _add_options(p, _SPACE, "--space --n --q")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import zeta_series

    space = _space(args)
    series = zeta_series.local_zeta_series(space, args.q, args.l, args.kmax)
    res = _result(args, "exact cycle counts at sparse exponents")
    res.add_raw("coefficients", [_int_text(c) for c in series.coefficients])
    res.add_raw("exponents", [series.exponent(k) for k in range(args.kmax + 1)])
    if args.audit:
        from ..exact_counts import cycle_family

        family = cycle_family(space, args.l)
        _audit(res, family, space, args.q, enumerate(series.coefficients))
    return res
