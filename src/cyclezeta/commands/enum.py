"""``cyclezeta enum``: exhaustive enumeration by the oracle."""

from __future__ import annotations

from . import CommandResult, _SPACE, _add_kinds, _multidegree, _result, _space

_OPTIONS = {
    **_SPACE,
    "--multidegree": dict(type=_multidegree, required=True),
    "--k": dict(type=int, default=0),
}


def add_arguments(p):
    _add_kinds(p, _OPTIONS, {
        "divisors": (divisors, "--space --n --q --multidegree"),
        "zero-cycles": (zero_cycles, "--space --n --q --k"),
    })


def divisors(args) -> CommandResult:
    from .. import cycle_oracle

    forms = cycle_oracle.enum_divisors(_space(args), args.q, args.multidegree)
    res = _result(args, "exhaustive canonical-form enumeration")
    res.add_int("count", len(forms))
    res.add_raw("forms", [str(f) for f in forms])
    return res


def zero_cycles(args) -> CommandResult:
    from .. import cycle_oracle

    cycles = cycle_oracle.enum_zero_cycles(_space(args), args.q, args.k)
    res = _result(args, "exhaustive Frobenius-orbit enumeration")
    res.add_int("count", len(cycles))
    res.add_raw(
        "cycles",
        [
            [[list(map(list, pt.orbit_key)), pt.degree, m] for pt, m in z.terms]
            for z in cycles
        ],
    )
    return res
