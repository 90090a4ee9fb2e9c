"""``cyclezeta speczeta``: the integer-spectrum zeta partial sum."""

from __future__ import annotations

from . import CommandResult, _finite_float, _result


def add_arguments(p):
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import zeta_series

    value, err = zeta_series.spec_z_zeta_partial_with_error(
        args.s, args.cutoff, audit=args.audit
    )
    res = _result(args, (
        "cycle enumeration through the norm bijection" if args.audit
        else "direct partial sum through the norm bijection"
    ))
    res.add_float("partial_sum", value, err)
    res.add_float("tail_bound", args.cutoff ** (1 - args.s) / (args.s - 1))
    return res
