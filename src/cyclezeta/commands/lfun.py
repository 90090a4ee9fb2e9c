"""``cyclezeta lfun``: the partial Euler product over primes."""

from __future__ import annotations

from . import CommandResult, _finite_float, _result


def add_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import zeta_series

    value, err = zeta_series.l_function_partial_with_error(
        args.n, args.l, complex(args.s), args.pmax
    )
    res = _result(args, (
        "partial Euler product of exact cellular local factors" if args.l == 0
        else "ascending partial Euler product, tail-bounded factors"
    ))
    res.add_float("real", value.real, err)
    res.add_float("imag", value.imag, err)
    return res
