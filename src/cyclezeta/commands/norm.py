"""``cyclezeta norm``: coefficient norms and the v measure."""

from __future__ import annotations

from . import CommandResult, _add_quad_args, _params, _quad_config


def add_arguments(p):
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, default=None)
    _add_quad_args(p)


def run(args) -> CommandResult:
    from .. import fs_norms
    from ..multipoly import parse_affine_polynomial

    f = parse_affine_polynomial(args.poly, nvars=args.nvars)
    inf, two = fs_norms.norms(f)
    res = CommandResult("norm", _params(args))
    res.add_float("inf", inf)
    res.add_float("two", two)
    if not f.is_zero:
        res.add_float("lc_sigma_max", fs_norms.lc_sigma_max(f))
        res.add_float("v", *fs_norms.v_measure_with_error([f], _quad_config(args)))
    res.provenance = "coefficient norms exact; v by Fubini-Study quadrature"
    return res
