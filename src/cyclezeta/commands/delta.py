"""``cyclezeta delta``: the arithmetic degree of an integer form."""

from __future__ import annotations

from . import CommandResult, _QUAD, _add_options, _finite_float, _quad_config, _result


def add_arguments(p):
    p.add_argument("--form", required=True, help="e.g. 'X1^2 - 3*X1*Y1 + Y1^2'")
    p.add_argument("--lam", type=_finite_float, default=1.0)
    _add_options(p, _QUAD, "--scheme --nodes --mc-samples --seed")
    p.set_defaults(func=run)


def run(args) -> CommandResult:
    from .. import fs_norms
    from ..multipoly import parse_integer_form

    form = parse_integer_form(args.form)
    value, err = fs_norms.delta_lambda_with_error(form, args.lam, _quad_config(args))
    res = _result(args, "lambda-degree term plus Fubini-Study integral")
    res.add_float("delta", value, err)
    res.add_raw("multidegree", list(form.multidegree))
    return res
