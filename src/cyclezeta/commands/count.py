"""``cyclezeta count``: exact cycle counts by their closed forms."""

from __future__ import annotations

from . import CommandResult, _add_space_args, _audit, _multidegree, _params, _space


def add_arguments(p):
    p.add_argument("kind", choices=["divisors", "zero-cycles", "top-cycles", "cycles"])
    _add_space_args(p)
    p.add_argument("--multidegree", type=_multidegree)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--audit", action="store_true")


def run(args) -> CommandResult:
    from .. import exact_counts

    space = _space(args)
    res = CommandResult("count", _params(args))
    family, degree = args.kind, args.k
    if args.kind == "divisors" and args.multidegree is not None:
        family, degree = "multidegree divisors", args.multidegree
        count = exact_counts.divisor_count(space, args.q, degree)
        res.provenance = "closed-form multidegree divisor count"
    elif args.kind == "divisors":
        count = exact_counts.divisor_count_by_degree(space, args.q, degree)
        res.provenance = "closed-form divisor count by polarization degree"
    elif args.kind == "zero-cycles":
        count = exact_counts.zero_cycle_count(space, args.q, degree)
        res.provenance = "product of the cell factors (1 - q^j T)^(-b_j)"
    elif args.kind == "top-cycles":
        count = exact_counts.top_cycle_count(space, degree)
        res.provenance = "divisibility by the top polarization degree"
    else:  # cycles: dispatch on l
        count = exact_counts.cycle_count(space, args.q, args.l, degree)
        family = exact_counts.cycle_family(space, args.l)
        res.provenance = "closed-form dispatch on cycle dimension"
    if args.audit:
        _audit(res, family, space, args.q, [(degree, count)])
    res.add_int("count", count)
    return res
