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


# Degree of an F_q[t] coordinate, refused (exit 3) before its dense
# coefficient list is built: the normalization's Euclid is quadratic, and
# two random dense coordinates of degree 3 000 normalize in 1.8 s over
# F_2 and 3.7 s over F_101 (11.4 s at 5 000; in process, Python 3.11,
# 2-vCPU x86 VM).
_DEGREE_CAP = 3000


def _parse_fq_poly(text: str, q: PrimePower) -> tuple[int, ...]:
    # univariate over F_q in t: reuse the affine grammar with z1 = t;
    # integer literals land in the prime field
    from ..errors import SizeCapExceeded
    from ..multipoly import parse_affine_polynomial

    poly = parse_affine_polynomial(text.replace("t", "z1"), nvars=1)
    terms = {i: c % q.p for (i,), c in poly.coeffs.items() if c % q.p}
    degree = max(terms, default=-1)
    if degree > _DEGREE_CAP:
        raise SizeCapExceeded(f"a coordinate of degree {degree} exceeds the cap {_DEGREE_CAP} "
                              "of the F_q[t] normalization")
    coeffs = [0] * (degree + 1)
    for i, c in terms.items():
        coeffs[i] = c
    return tuple(coeffs)
