"""``cyclezeta census``: closed-point and bounded-height censuses."""

from __future__ import annotations

import json

from . import (
    CommandResult,
    _add_quad_args,
    _finite_float,
    _params,
    _quad_config,
    _space,
)


def add_arguments(p):
    p.add_argument("kind", choices=["closed-points", "ff-points", "sh-set"])
    p.add_argument("--space", default="pn")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--q", default="2")
    p.add_argument("--dmax", type=int, default=1)
    p.add_argument("--h", type=_finite_float, default=0.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--a", type=_finite_float, default=0.25)
    p.add_argument("--stream", action="store_true",
                   help="emit one JSON line per census member")
    _add_quad_args(p)


def _fq_poly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        t = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
        parts.append(t if c == 1 and i > 0 else (f"{c}*{t}" if i > 0 else str(c)))
    return " + ".join(parts)


def run(args) -> CommandResult | None:
    res = CommandResult("census", _params(args))
    if args.kind == "closed-points":
        from .. import field_census

        space = _space(args)
        census = field_census.closed_point_census(space, args.q, args.dmax)
        res.add_raw("b", [str(x) for x in census.b])
        res.provenance = "Moebius inversion of extension point counts"
        return res
    from .. import height_lab

    if args.kind == "ff-points":
        if args.stream:
            for pt in height_lab.iter_ff_points(args.q, args.n, int(args.h)):
                print(json.dumps({
                    "coords": [_fq_poly_str(c) for c in pt.coords],
                    "height": height_lab.height_ff(pt),
                }, sort_keys=True))
            return None
        count = height_lab.count_ff_points(args.q, args.n, int(args.h))
        res.add_int("count", count)
        res.provenance = "exhaustive normalized-tuple enumeration"
    else:  # sh-set
        cfg = _quad_config(args)
        if args.stream:
            exponents, rows, heights, _, _ = height_lab.sh_set_table(
                args.d, args.a, args.h, cfg
            )
            for row, height in zip(rows, heights):
                coeffs = {
                    "*".join(
                        f"z{j+1}" + (f"^{e}" if e > 1 else "")
                        for j, e in enumerate(exp) if e
                    ) or "1": int(c)
                    for exp, c in zip(exponents, row) if c
                }
                print(json.dumps(
                    {"coeffs": coeffs, "height": round(float(height), 12)},
                    sort_keys=True,
                ))
            return None
        census = height_lab.sh_set_census(args.d, args.a, args.h, cfg)
        res.add_int("count", census.count)
        res.add_raw("all_heights_ok", census.all_heights_ok)
        res.add_float("max_height", census.max_height, census.max_height_error)
        res.add_float("analytic_lower_bound", census.analytic_lower_bound)
        res.add_int("coeff_box", census.coeff_box)
        res.provenance = "exhaustive box census with numerical height check"
    return res
