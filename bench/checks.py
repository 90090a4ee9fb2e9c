"""Output checks: each job's digest against ``references``.

``check(job, digest, error)`` returns ``(status, abs_err, note)``:

* ``"ok"``;
* ``"inaccurate"``: one of the inputs the program is known to get wrong
  (``workloads.KNOWN_INACCURATE``) missed its stated tolerance, by less
  than ``GROSS``.  It counts in ``failed_frac``, not as a broken operation;
* ``"fail"``: the job raised or exited non-zero, an exact value differs
  from its reference, or an analytic value missed its tolerance (any
  input not known to be inaccurate) or is off by more than ``GROSS``.

The program's ``error`` fields and ``parameters`` echo are never used.
"""

from __future__ import annotations

import math

import references as ref
from workloads import KNOWN_INACCURATE

# stated tolerances: the quadrature default, Monte Carlo at 1e6 samples
# (about six standard errors of a three-factor log-integrand), the Euler
# product after summing ~2e4 truncated local factors, and double rounding
FS_TOL = 1e-3
MC_TOL = 1e-2
LFUN_REL_TOL = 1e-9
FLOAT_REL_TOL = 1e-12
GROSS = 0.5


def _t(space):
    return (space[0], space[1])


def _analytic(value, reference, tol, known=False):
    err = abs(value - reference)
    if not math.isfinite(err) or err > GROSS:
        return "fail", err, f"{value!r} vs reference {reference!r}"
    if err > tol:
        status = "inaccurate" if known else "fail"
        return status, err, f"off by {value - reference:+.3g} (tolerance {tol:g})"
    return "ok", err, ""


def _relative(value, reference, tol):
    err = abs(value - reference)
    if not err <= tol * max(abs(reference), 1e-300):
        return "fail", err, f"{value!r} vs reference {reference!r}"
    return "ok", err, ""


def _exact(pairs):
    for name, got, want in pairs:
        if got != want:
            return "fail", None, f"{name}: {got!r} != reference {want!r}"
    return "ok", None, ""


def _expand(lead, roots, quad):
    """Integer coefficients of lead * prod (z - c) * prod (z^2 + b), low first."""
    coeffs = [lead]
    for factor in [[-c, 1] for c in roots] + [[b, 0, 1] for b in quad]:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        coeffs = out
    return coeffs


def _batch(results, members):
    """One status for a batch job: its worst member's, with every note."""
    status = next((s for s in ("fail", "inaccurate") if any(r[0] == s for r in results)),
                  "ok")
    errs = [r[1] for r in results if r[1] is not None]
    notes = [f"{m.get('poly') or m.get('form') or m}: {r[2]}"
             for m, r in zip(members, results) if r[0] != "ok"]
    return status, max(errs) if errs else None, "; ".join(notes)


def _arith_divisors(lam, h, count, borderline, exact_identity):
    values = ref.arith_divisors(lam, h)
    inside = {key for key, v in values.items() if v <= h}
    if exact_identity:
        keys = {(f[0][0], tuple(((e[0],), c) for e, c in f[1])) for f in borderline}
        want = len(inside - keys)
    else:
        want = len(inside)
        if count <= want <= count + len(borderline):
            want = count
    return _exact([("count", count, want)])


def check(job, digest, error):
    if error is not None:
        return "fail", None, error
    kind, a = job["kind"], job["args"]
    if "batch" in a:
        return _batch([check({"kind": kind, "args": m}, d, None)
                       for m, d in zip(a["batch"], digest["batch"])], a["batch"])
    if kind == "cli":
        return check_cli(a["check"], digest["results"])
    d = digest
    if kind == "closed_points":
        want = ref.closed_point_census(_t(a["space"]), a["q"], a["d"])[-1]
        return _exact([("count", d["count"], want), ("distinct", d["distinct"], True),
                       ("degrees", d["degrees"], [a["d"]] if want else [])])
    if kind == "enum_zero_cycles":
        want = ref.zero_cycle_series(_t(a["space"]), a["q"], a["k"])[a["k"]]
        return _exact([("count", d["count"], want), ("distinct", d["distinct"], True),
                       ("degrees", d["degrees"], [a["k"]])])
    if kind == "enum_divisors":
        want = ref.divisor_count(_t(a["space"]), a["q"], a["e"])
        return _exact([("count", d["count"], want), ("distinct", d["distinct"], True),
                       ("leading_one", d["leading_one"], True)])
    if kind == "count_ff_points":
        return _exact([("count", d["count"], str(ref.ff_points(a["q"], a["n"], a["h"])))])
    if kind == "local_zeta_series":
        want = ref.cycle_series(_t(a["space"]), a["q"], a["l"], a["kmax"])
        return _exact([("coefficients", d["coefficients"], [str(c) for c in want])])
    if kind == "abscissa_sequence":
        values, limit = ref.abscissa(_t(a["space"]), a["q"], a["l"], a["kmax"])
        status = _exact([("limit", d["limit"], limit), ("length", len(d["values"]), len(values))])
        if status[0] != "ok":
            return status
        worst = max(abs(x - y) for x, y in zip(d["values"], values))
        return ("ok", worst, "") if worst <= 1e-12 else ("fail", worst, "abscissa values")
    if kind == "closed_point_census":
        want = ref.closed_point_census(_t(a["space"]), a["q"], a["dmax"])
        return _exact([("b", d["b"], [str(x) for x in want])])
    if kind == "lfun":
        if d["imag"] != 0.0:
            return "fail", abs(d["imag"]), "imaginary part of a real product"
        return _relative(d["real"], ref.lfun(a["n"], a["l"], a["s"], a["pmax"]), LFUN_REL_TOL)
    if kind == "spec_z_zeta":
        return _relative(d["value"], ref.spec_z(a["s"], a["cutoff"]), FLOAT_REL_TOL)
    if kind == "explicit_constant":
        return _exact([("constant", d["value"], str(ref.explicit_constant(a["n"], a["l"])))])
    known = a.get("poly") in KNOWN_INACCURATE
    if kind == "v_measure_1var":
        return _analytic(d["value"], ref.jensen(a["lead"], a["roots"], a["quad"]), FS_TOL,
                         known)
    if kind == "v_measure_2var_separable":
        return _analytic(d["value"], ref.jensen(1, a["roots"]), FS_TOL)
    if kind == "v_measure_11_form":
        return _analytic(d["value"], ref.form_11(a["c"]), FS_TOL, known)
    if kind == "v_measure_mc3":
        return _analytic(d["value"], ref.jensen(1, a["roots"]), MC_TOL)
    if kind == "delta_1var":
        want = a["lam"] * a["degree"] + ref.jensen(a["lead"], a["roots"])
        return _analytic(d["value"], want, FS_TOL)
    if kind == "delta_11_form":
        return _analytic(d["value"], 2 * a["lam"] + ref.form_11(a["c"]), FS_TOL)
    if kind == "height_nv":
        want = ref.height_nv(a["d"], a["a"], a["c"], a["j"], a["k"])
        return _analytic(d["value"], want, FS_TOL)
    if kind == "count_arith_divisors":
        box = ref.arith_divisor_region(a["n"], a["lam"], a["h"])[0]
        status = _exact([("coeff_box", d["coeff_box"], box)])
        if status[0] != "ok":
            return status
        return _arith_divisors(a["lam"], a["h"], d["count"], d["borderline"], True)
    if kind == "sh_set_census":
        return _sh_set(a, d)
    raise ValueError(f"no check for job kind {kind!r}")


def _sh_set(a, d):
    want = ref.sh_set(a["d"], a["a"], a["h"])
    status = _exact([("count", int(d["count"]), want["count"]),
                     ("coeff_box", int(d["coeff_box"]), want["coeff_box"]),
                     ("all_heights_ok", d["all_heights_ok"], True)])
    if status[0] != "ok":
        return status
    if d["max_height"] > a["h"] + FS_TOL:
        return "fail", None, f"max height {d['max_height']} above h = {a['h']}"
    return _relative(d["analytic_lower_bound"], want["analytic_lower_bound"],
                     FLOAT_REL_TOL)


def check_cli(c, r):
    """Check the ``results`` values of one CLI command."""
    t = c["type"]
    if t == "divisor_count":
        return _exact([("count", r["count"],
                        str(ref.divisor_count(_t(c["space"]), c["q"], c["e"])))])
    if t == "cycle_count":
        want = ref.cycle_count(_t(c["space"]), c["q"], c["l"], c["k"])
        return _exact([("count", r["count"], str(want))])
    if t == "zeta":
        want = ref.cycle_series(_t(c["space"]), c["q"], c["l"], c["kmax"])
        return _exact([("coefficients", r["coefficients"], [str(x) for x in want])])
    if t == "constant":
        return _exact([("constant", r["constant"],
                        str(ref.explicit_constant(c["n"], c["l"])))])
    if t == "lfun":
        if r["imag"] != 0.0:
            return "fail", abs(r["imag"]), "imaginary part of a real product"
        return _relative(r["real"], ref.lfun(c["n"], c["l"], c["s"], c["pmax"]),
                         LFUN_REL_TOL)
    if t == "spec_z":
        return _relative(r["partial_sum"], ref.spec_z(c["s"], c["cutoff"]), FLOAT_REL_TOL)
    if t == "norm_1var":
        coeffs = _expand(c["lead"], c["roots"], c["quad"])
        status = _exact([
            ("inf", r["inf"], float(max(abs(x) for x in coeffs))),
            ("lc_sigma_max", r["lc_sigma_max"], float(abs(coeffs[-1]))),
        ])
        if status[0] == "ok":
            status = _relative(r["two"], math.sqrt(sum(x * x for x in coeffs)),
                               FLOAT_REL_TOL)
        if status[0] != "ok":
            return status
        return _analytic(math.log(r["v"]), ref.jensen(c["lead"], c["roots"], c["quad"]),
                         FS_TOL)
    if t == "delta_1var":
        want = c["lam"] * c["degree"] + ref.jensen(c["lead"], c["roots"])
        return _analytic(r["delta"], want, FS_TOL)
    if t == "divcount":
        return _arith_divisors(c["lam"], c["h"], int(r["count"]), r["borderline"], False)
    if t == "height_nv":
        return _analytic(r["height"], ref.height_nv(c["d"], c["a"], c["c"], c["j"], c["k"]),
                         FS_TOL)
    if t == "height_ff":
        return _exact([("height", r["height"], str(ref.height_ff(c["q"], c["coords"])))])
    if t == "census":
        want = ref.closed_point_census(_t(c["space"]), c["q"], c["dmax"])
        return _exact([("b", r["b"], [str(x) for x in want])])
    if t == "ff_points":
        return _exact([("count", r["count"], str(ref.ff_points(c["q"], c["n"], c["h"])))])
    if t == "sh_set":
        return _sh_set(c, r)
    if t == "pushforward":
        return _exact([("log2_bound", r["log2_bound"], str(c["deg_pi"] * sum(c["mults"])))])
    raise ValueError(f"no check for CLI check type {t!r}")
