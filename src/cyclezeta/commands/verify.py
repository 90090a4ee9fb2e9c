"""``cyclezeta verify``: property verification drivers."""

from __future__ import annotations

from . import CommandResult, _QUAD, _add_options, _quad_config, _result


def add_arguments(p):
    p.add_argument("kind", choices=["norms"])
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nvars", type=int, default=2)
    p.add_argument("--maxdeg", type=int, default=3)
    p.add_argument("--coeff-bound", type=int, default=10)
    _add_options(p, _QUAD, "--scheme --nodes --mc-samples")
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import fs_norms

    spec = fs_norms.NormSampleSpec(
        samples=args.samples, seed=args.seed, nvars=args.nvars,
        max_degree=args.maxdeg, coeff_bound=args.coeff_bound,
    )
    records = fs_norms.verify_norm_props(spec, _quad_config(args))
    statuses = [r.status for r in records]
    res = _result(args, "seeded random polynomials against norm inequalities")
    res.add_int("checks", len(records))
    for status in ("pass", "warn", "fail"):
        res.add_int(status, statuses.count(status))
    res.add_raw(
        "failures",
        [
            {"sample": r.sample, "name": r.name, "lhs": r.lhs, "rhs": r.rhs}
            for r in records if r.status == "fail"
        ],
    )
    return res
