"""``cyclezeta count``: exact cycle counts by their closed forms."""

from __future__ import annotations

from . import CommandResult, _SPACE, _add_kinds, _audit, _multidegree, _result, _space

_OPTIONS = {
    **_SPACE,
    "--k": dict(type=int, default=0),
    "--l": dict(type=int, default=0),
    "--audit": dict(action="store_true"),
}


def add_arguments(p):
    kinds = _add_kinds(p, _OPTIONS, {
        "divisors": (divisors, "--space --n --q --audit"),
        "zero-cycles": (zero_cycles, "--space --n --q --k --audit"),
        "top-cycles": (top_cycles, "--space --n --k"),
        "cycles": (cycles, "--space --n --q --l --k --audit"),
    })
    # a divisor is counted by its polarization degree or by its multidegree
    degree = kinds["divisors"].add_mutually_exclusive_group(required=True)
    degree.add_argument("--k", type=int)
    degree.add_argument("--multidegree", type=_multidegree)


def divisors(args) -> CommandResult:
    from .. import exact_counts

    if args.multidegree is None:
        count = exact_counts.divisor_count_by_degree(_space(args), args.q, args.k)
        return _counted(args, count, "divisors", args.k,
                        "closed-form divisor count by polarization degree")
    count = exact_counts.divisor_count(_space(args), args.q, args.multidegree)
    return _counted(args, count, "multidegree divisors", args.multidegree,
                    "closed-form multidegree divisor count")


def zero_cycles(args) -> CommandResult:
    from .. import exact_counts

    count = exact_counts.zero_cycle_count(_space(args), args.q, args.k)
    return _counted(args, count, "zero-cycles", args.k,
                    "product of the cell factors (1 - q^j T)^(-b_j)")


def top_cycles(args) -> CommandResult:
    from .. import exact_counts

    res = _result(args, "divisibility by the top polarization degree")
    res.add_int("count", exact_counts.top_cycle_count(_space(args), args.k))
    return res


def cycles(args) -> CommandResult:
    from .. import exact_counts

    space = _space(args)
    count = exact_counts.cycle_count(space, args.q, args.l, args.k)
    return _counted(args, count, exact_counts.cycle_family(space, args.l), args.k,
                    "closed-form dispatch on cycle dimension")


def _counted(args, count, family, degree, provenance) -> CommandResult:
    """The count, first re-derived by the family's oracle under --audit."""
    res = _result(args, provenance)
    if args.audit:
        _audit(res, family, _space(args), args.q, [(degree, count)])
    res.add_int("count", count)
    return res
