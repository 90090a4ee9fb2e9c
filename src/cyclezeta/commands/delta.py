"""``cyclezeta delta``: the arithmetic degree of an integer form."""

from __future__ import annotations

from . import CommandResult, _add_quad_args, _finite_float, _params, _quad_config


def add_arguments(p):
    p.add_argument("--form", required=True, help="e.g. 'X1^2 - 3*X1*Y1 + Y1^2'")
    p.add_argument("--lam", type=_finite_float, default=1.0)
    _add_quad_args(p)


def run(args) -> CommandResult:
    from .. import fs_norms
    from ..multipoly import parse_integer_form

    form = parse_integer_form(args.form)
    value, err = fs_norms.delta_lambda_with_error(form, args.lam, _quad_config(args))
    res = CommandResult("delta", _params(args))
    res.add_float("delta", value, err)
    res.add_raw("multidegree", list(form.multidegree))
    res.provenance = "lambda-degree term plus Fubini-Study integral"
    return res
