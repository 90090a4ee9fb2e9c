"""``cyclezeta height``: heights of projective points."""

from __future__ import annotations

from ..spaces import PrimePower
from . import CommandResult, _add_quad_args, _params, _quad_config


def add_arguments(p):
    p.add_argument("kind", choices=["ff", "nv"])
    p.add_argument("--coords", required=True,
                   help="comma-separated coordinates, e.g. '1,t^2+1' or '1,z1'")
    p.add_argument("--q", default="2")
    p.add_argument("--d", type=int, default=1)
    _add_quad_args(p)


def run(args) -> CommandResult:
    from .. import height_lab

    res = CommandResult("height", _params(args))
    coords = [c.strip() for c in args.coords.split(",")]
    if args.kind == "ff":
        F = args.q
        pt = height_lab.FunctionFieldPoint.make(
            F, [_parse_fq_poly(c, F) for c in coords]
        )
        res.add_int("height", height_lab.height_ff(pt))
        res.provenance = "max coordinate degree after normalization"
    else:
        from ..multipoly import parse_affine_polynomial

        polys = [parse_affine_polynomial(c, nvars=args.d) for c in coords]
        pt = height_lab.RationalFunctionPoint.make(args.d, polys)
        cfg = _quad_config(args)
        res.add_float("height", *height_lab.height_nv_with_error(pt, cfg))
        res.provenance = "infinity degrees plus Fubini-Study integral"
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
