"""Exact cycle counts over finite fields, cycle zeta series, Euler
products and Fubini-Study heights.

Each command prints one JSON document whose floats carry an error (0
when exact).  Exit codes: 0 success, 1 usage error, 2 domain error, 3
size-cap refusal, 4 internal fault (an --audit mismatch or a
non-integral exact count), 5 numpy missing.  Polynomials use integer
coefficients, + - * ^ and parentheses over z1..z9 (affine), X1, Y1, ..,
X9, Y9 (forms) or t (function-field coordinates), with explicit
products: 3*z1^2, X1*Y2.
"""

# Output: ``--tsv`` switches tabular commands to tab-separated rows;
# ``census ... --stream`` emits one JSON line per census member.  Big
# integers are serialized as decimal strings, every randomized command
# requires ``--seed``, and output is byte-identical across runs for
# identical arguments and seed; wall-clock timing is only attached with
# ``--timing``.  ``--q`` takes a prime power as ``p^e`` or as a plain
# integer (4 = 2^2).  Exponents are literal non-negative integers.
#
# Each process does only the set-up its command needs.  At start-up this
# module loads just ``errors``, ``records`` and ``spaces``, which ``--q``
# and ``--space`` need, and ``build_parser`` builds the parser of the one
# subcommand named on the command line (all of them for ``--help``, a
# missing or an unknown command, so usage and errors read the same).  No
# module uses the standard library's data classes, whose import pulls in
# ``inspect`` and ``ast``; the value classes derive from ``records``.
# numpy is imported only where arrays are computed: by the quadrature
# commands (``norm``, ``delta``, ``divcount``, ``height nv``, ``census
# sh-set``, ``verify``), which import ``fs_norms``/``quadrature`` when they
# run, and by the table build of an extension field of order above 32.
# Smaller fields, such as the F_4 and F_8 of ``enum zero-cycles`` and
# zero-cycle ``--audit``s over F_2, are built without it, and the other
# commands never load it.

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from .errors import (
    AuditMismatch,
    CycleZetaError,
    DomainError,
    IntegralityError,
    SizeCapExceeded,
)
from .records import Record
from .spaces import BIT_CAP, PRIME_CAP, PrimePower, is_prime, parse_space

if TYPE_CHECKING:
    from .quadrature import QuadratureConfig

# decimal digits of the largest exact count the closed forms may build
_MAX_DIGITS = math.ceil(BIT_CAP * math.log10(2)) + 1
# str() converts an int to decimal in time quadratic in its length; above
# this many bits ints convert by splitting through the decimal module,
# which is imported only then
_SPLIT_BITS = 1 << 16
_LEAF_BITS = 512


def _int_text(n: int) -> str:
    """The decimal digits of n, as str(n), in subquadratic time for big n.

    n = hi * 2^h + lo with h half its width; both halves convert to
    Decimal recursively and recombine with exact Decimal arithmetic, whose
    big multiplications are subquadratic; the powers 2^h are memoized.
    """
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    import decimal

    powers = {}

    def power(w):
        if w not in powers:
            powers[w] = (decimal.Decimal(1 << w) if w <= _LEAF_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def convert(m, w):
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        h = w >> 1
        hi = m >> h
        return convert(hi, w - h) * power(h) + convert(m - (hi << h), h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


class CommandResult(Record):
    __slots__ = ("command", "parameters", "results", "provenance", "elapsed")

    def __init__(self, command: str, parameters: dict, results: dict | None = None,
                 provenance: str = "", elapsed: float | None = None):
        super().__init__(command, parameters, {} if results is None else results,
                         provenance, elapsed)

    def add_int(self, name: str, value: int):
        self.results[name] = {"value": _int_text(value), "error": 0}

    def add_float(self, name: str, value: float, error: float = 0.0):
        self.results[name] = {"value": float(value), "error": float(error)}

    def add_raw(self, name: str, value):
        self.results[name] = {"value": value, "error": 0}


def _emit(result: CommandResult, args) -> None:
    if getattr(args, "tsv", False):
        for name, cell in result.results.items():
            print(f"{name}\t{cell['value']}\t{cell['error']}")
        return
    doc = {
        "command": result.command,
        "parameters": result.parameters,
        "results": result.results,
        "provenance": result.provenance,
    }
    if result.elapsed is not None:
        doc["elapsed_seconds"] = round(result.elapsed, 6)
    print(json.dumps(doc, sort_keys=True))


def _exact_root(q: int, e: int) -> int | None:
    """The integer r with r^e = q, or None; needs log2(q) / e < 1000."""
    x = math.log2(q) / e
    if x < 30:  # the float estimate is within 1e-3 of the root
        r = round(2.0 ** x)
    else:  # integer Newton steps decrease to floor(q^(1/e)) from above it
        r = int(2.0 ** x * (1 + 1e-9)) + 1
        while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
            r = s
    # the residue mod 2^64 rules out almost every e without a full power
    return r if pow(r, e, 1 << 64) == q % (1 << 64) and r ** e == q else None


def _prime_power(text: str) -> PrimePower:
    """Read ``p^e`` or a plain prime power such as 4 (= 2^2)."""
    if "^" in text:
        p, e = text.split("^", 1)
        return PrimePower(int(p), int(e))
    q = int(text)
    if q > 1:
        # every exact root of q is a power of the one for the largest e,
        # so only that one can be prime.  Roots of PRIME_CAP and above
        # cannot be proven prime: their e are left to the test of q
        # itself, which refuses such q.
        e_min = max(2, math.ceil(math.log2(q) / math.log2(PRIME_CAP)))
        for e in range(q.bit_length() - 1, e_min - 1, -1):
            p = _exact_root(q, e)
            if p is not None:
                if is_prime(p):
                    return PrimePower(p, e)
                break
        else:
            if is_prime(q):
                return PrimePower(q)
    raise DomainError(f"q = {q} is not prime or a prime power")


def _space(args):
    return parse_space(args.space, args.n)


def _quad_config(args) -> QuadratureConfig:
    from .quadrature import QuadratureConfig

    scheme = getattr(args, "scheme", "tensor_gauss")
    if scheme == "monte_carlo" and getattr(args, "seed", None) is None:
        raise DomainError("monte_carlo quadrature requires --seed")
    return QuadratureConfig(
        scheme=scheme,
        nodes_per_dim=getattr(args, "nodes", 64),
        sample_count=getattr(args, "mc_samples", 1_000_000),
        seed=getattr(args, "seed", None),
        tolerance=getattr(args, "tolerance", 1e-3),
    )


def _add_space_args(p, need_q=True):
    p.add_argument("--space", required=True, help="pn or p1xn")
    p.add_argument("--n", type=int, required=True)
    if need_q:
        p.add_argument("--q", required=True,
                       help="prime power, e.g. 3 or 2^2")


def _add_quad_args(p, add_seed=True):
    p.add_argument("--scheme", choices=["tensor_gauss", "monte_carlo"],
                   default="tensor_gauss")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    if add_seed:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-3)


def _multidegree(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# -- subcommand implementations ---------------------------------------------

def _cmd_count(args) -> CommandResult:
    from . import exact_counts

    space = _space(args)
    res = CommandResult("count", _params(args))
    family, degree = args.kind, args.k
    if args.kind == "divisors" and args.multidegree is not None:
        family, degree = "multidegree divisors", args.multidegree
        count = exact_counts.divisor_count(space, args.q, degree)
        res.provenance = "closed-form multidegree divisor count"
    elif args.kind == "divisors":
        count = exact_counts.divisor_count_by_degree(space, args.q, degree)
        res.provenance = "closed-form divisor count by polarization degree"
    elif args.kind == "zero-cycles":
        count = exact_counts.zero_cycle_count(space, args.q, degree)
        res.provenance = "product of the cell factors (1 - q^j T)^(-b_j)"
    elif args.kind == "top-cycles":
        count = exact_counts.top_cycle_count(space, degree)
        res.provenance = "divisibility by the top polarization degree"
    else:  # cycles: dispatch on l
        count = exact_counts.cycle_count(space, args.q, args.l, degree)
        family = exact_counts.cycle_family(space, args.l)
        res.provenance = "closed-form dispatch on cycle dimension"
    if args.audit:
        _audit(res, family, space, args.q, [(degree, count)])
    res.add_int("count", count)
    return res


def _audit(res: CommandResult, family: str, space, q, counts) -> None:
    """Re-derive each (degree, count) pair with the family's oracle.

    The oracle comes from ``cycle_oracle.AUDITS``; a family without one
    (top cycles) is left unaudited and gets no ``audit`` result.
    """
    from .cycle_oracle import AUDITS

    if family not in AUDITS:
        return
    _, oracle = AUDITS[family]
    for degree, count in counts:
        found = oracle(space, q, degree)
        if found != count:
            raise AuditMismatch(f"audit failed: oracle {found} != formula {count}")
    res.add_raw("audit", "oracle enumeration matched")


def _cmd_enum(args) -> CommandResult:
    from . import cycle_oracle

    space = _space(args)
    res = CommandResult("enum", _params(args))
    if args.kind == "divisors":
        forms = cycle_oracle.enum_divisors(space, args.q, args.multidegree)
        res.add_int("count", len(forms))
        res.add_raw("forms", [str(f) for f in forms])
        res.provenance = "exhaustive canonical-form enumeration"
    else:
        cycles = cycle_oracle.enum_zero_cycles(space, args.q, args.k)
        res.add_int("count", len(cycles))
        res.add_raw(
            "cycles",
            [
                [[list(map(list, pt.orbit_key)), pt.degree, m] for pt, m in z.terms]
                for z in cycles
            ],
        )
        res.provenance = "exhaustive Frobenius-orbit enumeration"
    return res


def _cmd_bound(args) -> CommandResult:
    from . import bound_engine

    res = CommandResult("bound", _params(args))
    if args.kind == "constant":
        const = bound_engine.explicit_constant_pn(args.n, args.l)
        res.add_int("constant", const.value)
        res.add_raw("derivation", list(const.derivation))
        res.provenance = "pinned recursion over boundary strata"
    elif args.kind == "counting-system":
        spec = bound_engine.divisor_tower_spec(args.q, args.n, args.l)
        res.add_float(
            "log2_bound",
            bound_engine.counting_system_log_bound(spec, args.h) / math.log(2),
        )
        res.provenance = "inductive tower combinator, divisor instantiation"
    elif args.kind == "product-cycle":
        value = bound_engine.product_cycle_bound(
            args.deg_d, args.deg_e, args.deg_c, args.theta_d, args.theta_e
        )
        res.add_float("logq_bound", value)
        res.provenance = "fiber bound for paired pushforwards"
    else:  # pushforward
        exponent = bound_engine.pushforward_bound(args.deg_pi, args.mults)
        res.add_int("log2_bound", exponent)
        res.provenance = "finite-map preimage bound"
    return res


def _cmd_zeta(args) -> CommandResult:
    from . import zeta_series

    space = _space(args)
    series = zeta_series.local_zeta_series(space, args.q, args.l, args.kmax)
    res = CommandResult("zeta", _params(args))
    res.add_raw("coefficients", [_int_text(c) for c in series.coefficients])
    res.add_raw("exponents", [series.exponent(k) for k in range(args.kmax + 1)])
    res.provenance = "exact cycle counts at sparse exponents"
    if args.audit:
        from .exact_counts import cycle_family

        family = cycle_family(space, args.l)
        _audit(res, family, space, args.q, enumerate(series.coefficients))
    return res


def _cmd_lfun(args) -> CommandResult:
    from . import zeta_series

    value, err = zeta_series.l_function_partial_with_error(
        args.n, args.l, complex(args.s), args.pmax
    )
    res = CommandResult("lfun", _params(args))
    res.add_float("real", value.real, err)
    res.add_float("imag", value.imag, err)
    res.provenance = (
        "partial Euler product of exact cellular local factors" if args.l == 0
        else "ascending partial Euler product, tail-bounded factors"
    )
    return res


def _cmd_speczeta(args) -> CommandResult:
    from . import zeta_series

    value, err = zeta_series.spec_z_zeta_partial_with_error(
        args.s, args.cutoff, audit=args.audit
    )
    res = CommandResult("speczeta", _params(args))
    res.add_float("partial_sum", value, err)
    res.add_float("tail_bound", args.cutoff ** (1 - args.s) / (args.s - 1))
    res.provenance = (
        "cycle enumeration through the norm bijection" if args.audit
        else "direct partial sum through the norm bijection"
    )
    return res


def _cmd_norm(args) -> CommandResult:
    from . import fs_norms
    from .multipoly import parse_affine_polynomial

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


def _cmd_delta(args) -> CommandResult:
    from . import fs_norms
    from .multipoly import parse_integer_form

    form = parse_integer_form(args.form)
    value, err = fs_norms.delta_lambda_with_error(form, args.lam, _quad_config(args))
    res = CommandResult("delta", _params(args))
    res.add_float("delta", value, err)
    res.add_raw("multidegree", list(form.multidegree))
    res.provenance = "lambda-degree term plus Fubini-Study integral"
    return res


def _cmd_divcount(args) -> CommandResult:
    from . import fs_norms

    if args.search_cap is None:
        args.search_cap = fs_norms.DEFAULT_SEARCH_CAP
    cfg = _quad_config(args)
    census = fs_norms.count_arith_divisors_bounded(
        args.n, args.lam, args.h, cfg, search_cap=args.search_cap
    )
    res = CommandResult("divcount", _params(args))
    res.add_int("count", census.count)
    res.add_float("log_certified_bound", census.log_certified_bound)
    res.add_int("coeff_box", census.max_inf_norm)
    res.add_raw("borderline", [str(f) for f in census.borderline])
    res.provenance = "exhaustive certified-region search with guard band"
    return res


def _cmd_height(args) -> CommandResult:
    from . import height_lab

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
        from .multipoly import parse_affine_polynomial

        polys = [parse_affine_polynomial(c, nvars=args.d) for c in coords]
        pt = height_lab.RationalFunctionPoint.make(args.d, polys)
        cfg = _quad_config(args)
        res.add_float("height", *height_lab.height_nv_with_error(pt, cfg))
        res.provenance = "infinity degrees plus Fubini-Study integral"
    return res


def _parse_fq_poly(text: str, q: PrimePower) -> tuple[int, ...]:
    # univariate over F_q in t: reuse the affine grammar with z1 = t;
    # integer literals land in the prime field
    from .multipoly import parse_affine_polynomial

    poly = parse_affine_polynomial(text.replace("t", "z1"), nvars=1)
    coeffs = [0] * (poly.deg(0) + 1)
    for (i,), c in poly.coeffs.items():
        coeffs[i] = c % q.p
    return tuple(coeffs)


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


def _cmd_census(args) -> CommandResult | None:
    res = CommandResult("census", _params(args))
    if args.kind == "closed-points":
        from . import field_census

        space = _space(args)
        census = field_census.closed_point_census(space, args.q, args.dmax)
        res.add_raw("b", [str(x) for x in census.b])
        res.provenance = "Moebius inversion of extension point counts"
        return res
    from . import height_lab

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


def _cmd_verify(args) -> CommandResult:
    from . import fs_norms

    spec = fs_norms.NormSampleSpec(
        samples=args.samples, seed=args.seed, nvars=args.nvars,
        max_degree=args.maxdeg, coeff_bound=args.coeff_bound,
    )
    cfg = _quad_config(args)
    report = fs_norms.verify_norm_props(spec, cfg)
    res = CommandResult("verify", _params(args))
    tally = report.tally()
    res.add_int("checks", len(report.records))
    res.add_int("pass", tally["pass"])
    res.add_int("warn", tally["warn"])
    res.add_int("fail", tally["fail"])
    res.add_raw(
        "failures",
        [
            {"sample": r.sample, "name": r.name, "lhs": r.lhs, "rhs": r.rhs}
            for r in report.hard_failures
        ],
    )
    res.provenance = "seeded random polynomials against norm inequalities"
    return res


def _params(args) -> dict:
    # the command is printed once, at the top level of the output
    skip = {"command", "func", "tsv", "timing"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        out[key] = str(val) if isinstance(val, PrimePower) else (
            list(val) if isinstance(val, tuple) else val
        )
    return out


def _count_args(p):
    p.add_argument("kind", choices=["divisors", "zero-cycles", "top-cycles", "cycles"])
    _add_space_args(p)
    p.add_argument("--multidegree", type=_multidegree)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--audit", action="store_true")


def _enum_args(p):
    p.add_argument("kind", choices=["divisors", "zero-cycles"])
    _add_space_args(p)
    p.add_argument("--multidegree", type=_multidegree)
    p.add_argument("--k", type=int, default=0)


def _bound_args(p):
    p.add_argument("kind", choices=["constant", "counting-system",
                                    "product-cycle", "pushforward"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--q", default="2")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--deg-d", type=float, default=1.0)
    p.add_argument("--deg-e", type=float, default=1.0)
    p.add_argument("--deg-c", type=float, default=1.0)
    p.add_argument("--theta-d", type=int, default=1)
    p.add_argument("--theta-e", type=int, default=1)
    p.add_argument("--deg-pi", type=int, default=1)
    p.add_argument("--mults", type=_multidegree, default=(1,))


def _zeta_args(p):
    _add_space_args(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--audit", action="store_true")


def _lfun_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--pmax", type=int, required=True)


def _speczeta_args(p):
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--audit", action="store_true")


def _norm_args(p):
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, default=None)
    _add_quad_args(p)


def _delta_args(p):
    p.add_argument("--form", required=True, help="e.g. 'X1^2 - 3*X1*Y1 + Y1^2'")
    p.add_argument("--lam", type=float, default=1.0)
    _add_quad_args(p)


def _divcount_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--search-cap", type=int)  # default: fs_norms.DEFAULT_SEARCH_CAP
    _add_quad_args(p)


def _height_args(p):
    p.add_argument("kind", choices=["ff", "nv"])
    p.add_argument("--coords", required=True,
                   help="comma-separated coordinates, e.g. '1,t^2+1' or '1,z1'")
    p.add_argument("--q", default="2")
    p.add_argument("--d", type=int, default=1)
    _add_quad_args(p)


def _census_args(p):
    p.add_argument("kind", choices=["closed-points", "ff-points", "sh-set"])
    p.add_argument("--space", default="pn")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--q", default="2")
    p.add_argument("--dmax", type=int, default=1)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--a", type=float, default=0.25)
    p.add_argument("--stream", action="store_true",
                   help="emit one JSON line per census member")
    _add_quad_args(p)


def _verify_args(p):
    p.add_argument("kind", choices=["norms"])
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nvars", type=int, default=2)
    p.add_argument("--maxdeg", type=int, default=3)
    p.add_argument("--coeff-bound", type=int, default=10)
    _add_quad_args(p, add_seed=False)


# name -> (help, adds its arguments, runs it), in the order --help lists them
_COMMANDS = {
    "count": ("exact cycle counts", _count_args, _cmd_count),
    "enum": ("exhaustive enumeration (oracle)", _enum_args, _cmd_enum),
    "bound": ("counting bounds and pinned constants", _bound_args, _cmd_bound),
    "zeta": ("truncated cycle zeta series", _zeta_args, _cmd_zeta),
    "lfun": ("partial Euler product over primes", _lfun_args, _cmd_lfun),
    "speczeta": ("integer-spectrum zeta partial sum", _speczeta_args, _cmd_speczeta),
    "norm": ("coefficient norms and the v measure", _norm_args, _cmd_norm),
    "delta": ("arithmetic degree of an integer form", _delta_args, _cmd_delta),
    "divcount": ("bounded arithmetic-degree divisor census", _divcount_args,
                 _cmd_divcount),
    "height": ("heights of projective points", _height_args, _cmd_height),
    "census": ("closed-point and bounded-height censuses", _census_args, _cmd_census),
    "verify": ("property verification drivers", _verify_args, _cmd_verify),
}
_FLAGS = ("--tsv", "--timing")


def _named_command(argv) -> str | None:
    """The subcommand argv runs, if its parser alone can read argv.

    The top-level options are all flags, so the command is the first token
    other than those flags.  Anything else there (``--help``, an unknown
    option or command, no command at all) is left to the full parser, whose
    usage and error messages it prints.
    """
    for token in argv:
        if token not in _FLAGS:
            return token if token in _COMMANDS else None
    return None


def build_parser(argv=None) -> _Parser:
    """The parser for argv: the top level and the one subcommand it names.

    Without argv, or when argv names no subcommand, every subcommand is
    built.
    """
    command = None if argv is None else _named_command(argv)
    parser = _Parser(prog="cyclezeta", description=__doc__)
    parser.add_argument("--tsv", action="store_true", help="tabular output")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock time (breaks byte-identity)")
    # a one-command parser still names every command in its usage line
    choices = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (``| head``): exit as a tool
        # killed by SIGPIPE would, and point stdout at devnull so that the
        # flush at shutdown prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    start = time.perf_counter()
    try:
        if isinstance(getattr(args, "q", None), str):
            args.q = _prime_power(args.q)
        # exact counts run up to BIT_CAP bits; the arguments
        # are read by now, so they keep Python's digit limit (Python 3.10
        # has neither)
        set_digits = getattr(sys, "set_int_max_str_digits", None)
        if set_digits is not None and 0 < sys.get_int_max_str_digits() < _MAX_DIGITS:
            set_digits(_MAX_DIGITS)
        result = args.func(args)
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (AuditMismatch, IntegralityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (CycleZetaError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        command = " ".join(filter(None, [args.command, getattr(args, "kind", None)]))
        print(f"numpy is required for {command}", file=sys.stderr)
        return 5
    if result is not None:
        if getattr(args, "timing", False):
            result.elapsed = time.perf_counter() - start
        _emit(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
