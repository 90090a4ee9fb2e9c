"""``cyclezeta enum``: exhaustive enumeration by the oracle."""

from __future__ import annotations

from . import CommandResult, _add_space_args, _multidegree, _params, _space


def add_arguments(p):
    p.add_argument("kind", choices=["divisors", "zero-cycles"])
    _add_space_args(p)
    p.add_argument("--multidegree", type=_multidegree)
    p.add_argument("--k", type=int, default=0)


def run(args) -> CommandResult:
    from .. import cycle_oracle

    space = _space(args)
    res = CommandResult("enum", _params(args))
    if args.kind == "divisors":
        forms = cycle_oracle.enum_divisors(space, args.q, args.multidegree)
        res.add_int("count", len(forms))
        res.add_raw("forms", [str(f) for f in forms])
        res.provenance = "exhaustive canonical-form enumeration"
    else:
        cycles = cycle_oracle.enum_zero_cycles(space, args.q, args.k)
        res.add_int("count", len(cycles))
        res.add_raw(
            "cycles",
            [
                [[list(map(list, pt.orbit_key)), pt.degree, m] for pt, m in z.terms]
                for z in cycles
            ],
        )
        res.provenance = "exhaustive Frobenius-orbit enumeration"
    return res
