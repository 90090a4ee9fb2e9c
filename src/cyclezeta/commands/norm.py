"""``cyclezeta norm``: coefficient norms and the v measure."""

from __future__ import annotations

from . import CommandResult, _QUAD, _add_options, _quad_config, _result


def add_arguments(p):
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, default=None)
    _add_options(p, _QUAD, "--scheme --nodes --mc-samples --seed")
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import fs_norms
    from ..multipoly import parse_affine_polynomial

    f = parse_affine_polynomial(args.poly, nvars=args.nvars)
    inf, two = fs_norms.norms(f)
    res = _result(args, "coefficient norms exact; v by Fubini-Study quadrature")
    res.add_float("inf", inf)
    res.add_float("two", two)
    if not f.is_zero:
        res.add_float("lc_sigma_max", fs_norms.lc_sigma_max(f))
        res.add_float("v", *fs_norms.v_measure_with_error([f], _quad_config(args)))
    return res
