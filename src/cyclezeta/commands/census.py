"""``cyclezeta census``: closed-point and bounded-height censuses."""

from __future__ import annotations

import json

from . import CommandResult, _QUAD, _add_kinds, _finite_float, _quad_config, _result, _space

_OPTIONS = {
    "--space": dict(default="pn"),
    "--n": dict(type=int, default=1),
    "--q": dict(default="2"),
    "--dmax": dict(type=int, default=1),
    "--d": dict(type=int, default=1),
    "--a": dict(type=_finite_float, default=0.25),
    "--stream": dict(action="store_true", help="emit one JSON line per census member"),
    **_QUAD,
}


def add_arguments(p):
    kinds = _add_kinds(p, _OPTIONS, {
        "closed-points": (closed_points, "--space --n --q --dmax"),
        "ff-points": (ff_points, "--q --n --stream"),
        "sh-set": (sh_set, "--d --a --stream --scheme --nodes --mc-samples --seed"),
    })
    # the height bound: a degree over F_q(t), a real number over Q
    kinds["ff-points"].add_argument("--h", type=int, default=0)
    kinds["sh-set"].add_argument("--h", type=_finite_float, default=0.0)


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


def closed_points(args) -> CommandResult:
    from .. import field_census

    census = field_census.closed_point_census(_space(args), args.q, args.dmax)
    res = _result(args, "Moebius inversion of extension point counts")
    res.add_raw("b", [str(x) for x in census.b])
    return res


def ff_points(args) -> CommandResult | None:
    from .. import height_lab

    if args.stream:
        for pt in height_lab.iter_ff_points(args.q, args.n, args.h):
            print(json.dumps({
                "coords": [_fq_poly_str(c) for c in pt.coords],
                "height": height_lab.height_ff(pt),
            }, sort_keys=True))
        return None
    res = _result(args, "exhaustive normalized-tuple enumeration")
    res.add_int("count", height_lab.count_ff_points(args.q, args.n, args.h))
    return res


def sh_set(args) -> CommandResult | None:
    from .. import height_lab

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
    res = _result(args, "exhaustive box census with numerical height check")
    res.add_int("count", census.count)
    res.add_raw("all_heights_ok", census.all_heights_ok)
    res.add_float("max_height", census.max_height, census.max_height_error)
    res.add_float("analytic_lower_bound", census.analytic_lower_bound)
    res.add_int("coeff_box", census.coeff_box)
    return res
