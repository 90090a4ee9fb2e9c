"""``cyclezeta height``: heights of projective points."""

from __future__ import annotations

from ..spaces import PrimePower
from . import CommandResult, _QUAD, _add_kinds, _quad_config, _result

_OPTIONS = {
    "--coords": dict(required=True,
                     help="comma-separated coordinates, e.g. '1,t^2+1' or '1,z1'"),
    "--q": dict(default="2"),
    "--d": dict(type=int, default=1),
    **_QUAD,
}


def add_arguments(p):
    _add_kinds(p, _OPTIONS, {
        "ff": (ff, "--coords --q"),
        "nv": (nv, "--coords --d --scheme --nodes --mc-samples --seed"),
    })


def ff(args) -> CommandResult:
    from .. import height_lab

    coords = [c.strip() for c in args.coords.split(",")]
    pt = height_lab.FunctionFieldPoint.make(
        args.q, [_parse_fq_poly(c, args.q) for c in coords]
    )
    res = _result(args, "max coordinate degree after normalization")
    res.add_int("height", height_lab.height_ff(pt))
    return res


def nv(args) -> CommandResult:
    from .. import height_lab
    from ..multipoly import parse_affine_polynomial

    coords = [c.strip() for c in args.coords.split(",")]
    polys = [parse_affine_polynomial(c, nvars=args.d) for c in coords]
    pt = height_lab.RationalFunctionPoint.make(args.d, polys)
    cfg = _quad_config(args)
    res = _result(args, "infinity degrees plus Fubini-Study integral")
    res.add_float("height", *height_lab.height_nv_with_error(pt, cfg))
    return res


def _parse_fq_poly(text: str, q: PrimePower) -> tuple[int, ...]:
    # univariate over F_q in t: reuse the affine grammar with z1 = t;
    # integer literals land in the prime field
    from ..multipoly import parse_affine_polynomial

    poly = parse_affine_polynomial(text.replace("t", "z1"), nvars=1)
    coeffs = [0] * (poly.deg(0) + 1)
    for (i,), c in poly.coeffs.items():
        coeffs[i] = c % q.p
    return tuple(coeffs)
