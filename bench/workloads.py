"""Seeded job lists for the four benchmark workloads.

A job is plain data, ``{"id": i, "kind": ..., "args": {...}}``.  The worker
turns it into one call of a public cyclezeta function (or one CLI command
line) and the runner checks what it returned against ``references``.

Each list is a fixed sequence of job shapes in a fixed order, so every
seed asks for the same work and the same sharing between jobs (a field, a
closed-point list or a zero-cycle series built by one job and reused by a
later one).  The seed picks every input that does not change the cost:
polynomial roots and coefficients, signs, the argument s of the Euler
products and zeta sums, multidegree orientation, command variants of equal
cost.  Kinds are interleaved round-robin, as a user mixing commands
would.

Inputs the program is known to get wrong at its default settings stay in
the lists on purpose (``KNOWN_INACCURATE``): at 64 nodes the tensor grid
is off by -0.109 on log|z1 - z2| and by +0.217 on (z1 - 1)^20.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("oracle", "series", "fs_measure", "cli_cold")

KNOWN_INACCURATE = ("z1 - z2", "(z1 - 1)^20")

P1, P2, P3, P1SQ = ("pn", 1), ("pn", 2), ("pn", 3), ("p1xn", 2)


def cprime_pn(n: int, l: int) -> float:
    """Growth constant C' of the l-cycle series on P^n (the program's pinned value).

    lfun jobs use C' + 2 <= s <= C' + 2.2: valid once the Euler product
    refuses s <= C' + 1, and narrow enough that the series length per
    prime, hence the cost, does not depend on the seed.
    """
    if l == n:
        return 0.0
    if l == 0:
        return 2.0 * n
    return float(n + 1)


def _interleave(*groups):
    """Round-robin over the groups: a, b, c, a, b, c, ..."""
    out = []
    for batch in itertools.zip_longest(*groups):
        out.extend(job for job in batch if job is not None)
    return out


# -- oracle ------------------------------------------------------------------

_CLOSED_POINTS = [
    (P1, 2, 7), (P1, 3, 6), (P1, 4, 5), (P1, 5, 5),
    (P2, 2, 6), (P2, 3, 4), (P2, 4, 2), (P2, 5, 2),
    (P1SQ, 2, 5), (P1SQ, 3, 4), (P1SQ, 4, 2), (P1SQ, 5, 2),
]
_ZERO_CYCLES = [
    (P1, 2, 4), (P1, 3, 4), (P1, 5, 3), (P2, 2, 4), (P2, 3, 3),
    (P1SQ, 2, 3), (P1SQ, 3, 3), (P1SQ, 4, 2), (P2, 5, 2),
]
_DIVISORS = [
    (P1, 2, (5,)), (P1, 3, (3,)), (P1, 4, (4,)), (P1, 5, (3,)),
    (P2, 2, (3,)), (P2, 3, (2,)), (P2, 4, (1,)),
    (P1SQ, 2, (2, 3)), (P1SQ, 3, (1, 2)), (P1SQ, 5, (1, 1)), (P1SQ, 2, (2, 2)),
]
_FF_POINTS = [
    (2, 1, 4), (3, 1, 2), (2, 2, 2), (4, 1, 2), (5, 1, 1),
    (2, 3, 1), (3, 2, 1), (4, 1, 1), (2, 1, 3),
]


def _oracle(rng: random.Random) -> list[dict]:
    closed = [("closed_points", {"space": sp, "q": q, "d": d})
              for sp, q, d in _CLOSED_POINTS]
    zero = [("enum_zero_cycles", {"space": sp, "q": q, "k": k})
            for sp, q, k in _ZERO_CYCLES]
    divisors = []
    for space, q, e in _DIVISORS:
        if len(e) == 2 and rng.random() < 0.5:
            e = e[::-1]
        divisors.append(("enum_divisors", {"space": space, "q": q, "e": e}))
    ff = [("count_ff_points", {"q": q, "n": n, "h": h}) for q, n, h in _FF_POINTS]
    return _interleave(closed, divisors, zero, ff)


# -- series ------------------------------------------------------------------

def _series(rng: random.Random) -> list[dict]:
    # mostly jobs of a few ms or more, so that the median and the tail job
    # are not sub-millisecond ones, whose timing is noise
    series = [("local_zeta_series", {"space": sp, "q": q, "l": l, "kmax": kmax})
              for sp, q, l, kmax in [
                  (P2, 3, 0, 200), (P1, 2, 0, 150), (P1SQ, 2, 0, 120),
                  (P2, 2, 1, 10), (P1, 3, 0, 100), (P1SQ, 3, 1, 8),
                  (P2, 2, 0, 100), (P1, 5, 1, 60)]]
    abscissa = [("abscissa_sequence", {"space": sp, "q": q, "l": l, "kmax": kmax})
                for sp, q, l, kmax in [
                    (P2, 3, 0, 60), (P1, 4, 0, 80), (P1SQ, 2, 1, 8), (P1SQ, 3, 0, 50)]]
    census = [("closed_point_census", {"space": sp, "q": q, "dmax": dmax})
              for sp, q, dmax in [(P2, 2, 60), (P1SQ, 5, 40), (P1, 4, 80), (P3, 3, 30)]]
    lfun = []
    for n, l, pmax in [(1, 0, 10_000), (2, 0, 50_000), (1, 0, 100_000), (2, 0, 20_000),
                       (2, 0, 200_000), (1, 1, 10_000), (1, 0, 20_000)]:
        s = round(cprime_pn(n, l) + 2.0 + 0.2 * rng.random(), 6)
        lfun.append(("lfun", {"n": n, "l": l, "s": s, "pmax": pmax}))
    specz = []
    for cutoff, audit in [(10_000, True), (100_000, False), (100_000, True),
                          (30_000, False), (50_000, False), (30_000, True)]:
        s = round(1.5 + 1.5 * rng.random(), 6)
        specz.append(("spec_z_zeta", {"s": s, "cutoff": cutoff, "audit": audit}))
    bounds = [("explicit_constant", {"n": n, "l": l}) for n, l in [(4, 2), (6, 3)]]
    return _interleave(series, bounds, lfun, abscissa, census, specz)


# -- fs_measure --------------------------------------------------------------

def _roots(rng, count, top=5):
    """Distinct negative integer roots: products of (z - c) then have no
    zero coefficients, so the evaluation cost does not depend on the draw."""
    return [-c for c in rng.sample(range(1, top + 1), count)]


def _factor(c, var="z1"):
    return f"({var} - {c})" if c >= 0 else f"({var} + {-c})"


def _product_1var(rng, linear: int, quadratic: int) -> dict:
    """lead * prod (z1 - c) * prod (z1^2 + b) with the given factor counts."""
    lead = rng.choice([1, 2, 3, -1, -4, 5])
    roots = _roots(rng, linear)
    quad = [rng.randint(1, 6) for _ in range(quadratic)]
    factors = [_factor(c) for c in roots] + [f"(z1^2 + {b})" for b in quad]
    return {"poly": f"{lead}*" + "*".join(factors), "lead": lead,
            "roots": roots, "quad": quad}


def _fs_measure(rng: random.Random) -> list[dict]:
    # one-variable measurements take about a millisecond each, so they run
    # in batches (one job, several calls): the median and tail jobs then
    # take tens of milliseconds or more, where timing is not noise
    v1 = [_product_1var(rng, lin, quad)
          for lin, quad in [(1, 0), (2, 0), (3, 0), (4, 0),
                            (1, 1), (2, 1), (3, 2), (4, 2)]]
    v1.append({"poly": "(z1 - 1)^20", "lead": 1, "roots": [1] * 20, "quad": []})
    deltas = []
    for count, ys in [(1, 0), (2, 1), (3, 0), (2, 0)]:
        roots = _roots(rng, count, 6)
        lead = rng.choice([1, 2, -3])
        factors = [f"(X1 - {c}*Y1)" if c >= 0 else f"(X1 + {-c}*Y1)" for c in roots]
        deltas.append({"form": f"{lead}*" + "*".join(factors + ["Y1"] * ys),
                       "lam": round(0.5 + rng.random(), 6), "lead": lead,
                       "roots": roots, "degree": count + ys})
    heights = [{"d": 1, "a": rng.randint(1, 9),
                "c": rng.choice([-1, 1]) * rng.randint(1, 9), "j": j, "k": 0}
               for j in (1, 2, 3, 4, 2, 3)]
    light = ([("v_measure_1var", {"batch": v1[i:i + 3]}) for i in (0, 3, 6)]
             + [("delta_1var", {"batch": deltas[i:i + 2]}) for i in (0, 2)]
             + [("height_nv", {"batch": heights[i:i + 3]}) for i in (0, 3)])

    heavy = []
    r1, r2 = _roots(rng, 2), _roots(rng, 2)
    heavy.append(("v_measure_2var_separable", {
        "poly": "*".join([_factor(c, "z1") for c in r1] + [_factor(c, "z2") for c in r2]),
        "roots": r1 + r2}))
    heavy.append(("v_measure_11_form", {"poly": "z1 - z2", "c": 1}))
    c = rng.choice([2, 3, 4, 5, -2, -3, -4, -5])
    heavy.append(("delta_11_form", {
        "form": f"X1*Y2 - {c}*Y1*X2" if c > 0 else f"X1*Y2 + {-c}*Y1*X2",
        "c": c, "lam": round(0.5 + rng.random(), 6)}))
    heavy.append(("height_nv", {"d": 2, "a": rng.randint(1, 9),
                                "c": rng.choice([-1, 1]) * rng.randint(1, 9),
                                "j": 1, "k": 2}))
    roots3 = _roots(rng, 3)
    heavy.append(("v_measure_mc3", {
        "poly": "*".join(_factor(c, f"z{i + 1}") for i, c in enumerate(roots3)),
        "roots": roots3, "mc_seed": rng.randint(1, 10**6), "samples": 1_000_000}))
    # h keeps each search region fixed: coefficient box floor(e^h) = 7 and
    # degrees <= 2 for the divisors; degree cap 1 for the height boxes
    censuses = [("count_arith_divisors", {"n": 1, "lam": 1.0,
                                          "h": round(2.0 + 0.07 * rng.random(), 6)})
                for _ in range(2)]
    censuses += [("count_arith_divisors", {"n": 1, "lam": lam,
                                           "h": round(1.95 + 0.1 * rng.random(), 6)})
                 for lam in (0.7, 0.75, 0.8, 0.85, 0.9)]
    censuses += [("sh_set_census", {"d": 1, "a": 0.25,
                                    "h": round(4.0 + 0.06 * rng.random(), 6)}),
                 ("sh_set_census", {"d": 1, "a": 0.15, "h": 5.0}),
                 ("sh_set_census", {"d": 1, "a": 0.22, "h": 4.6}),
                 ("sh_set_census", {"d": 1, "a": 0.24, "h": 4.2}),
                 ("sh_set_census", {"d": 1, "a": 0.25, "h": 4.0})]
    return _interleave(light, heavy, censuses)


# -- cli_cold ----------------------------------------------------------------

def _cmd(argv, check):
    return ("cli", {"argv": [str(a) for a in argv], "check": check})


def _cli_divisors(rng):
    a, b = rng.choice([(1, 2), (2, 1)])
    return _cmd(["count", "divisors", "--space", "p1xn", "--n", 2, "--q", 2,
                 "--multidegree", f"{a},{b}", "--audit"],
                {"type": "divisor_count", "space": P1SQ, "q": 2, "e": [a, b]})


def _cli_zero_cycles(rng):
    q, k = rng.choice([(3, 4), (2, 5), (5, 3)])
    return _cmd(["count", "zero-cycles", "--space", "pn", "--n", 2, "--q", q, "--k", k],
                {"type": "cycle_count", "space": P2, "q": q, "l": 0, "k": k})


def _cli_enum_divisors(rng):
    n, q, e = rng.choice([(2, 2, 1), (1, 3, 2), (1, 2, 3)])
    return _cmd(["enum", "divisors", "--space", "pn", "--n", n, "--q", q,
                 "--multidegree", e],
                {"type": "divisor_count", "space": ("pn", n), "q": q, "e": [e]})


def _cli_enum_zero_cycles(rng):
    n, q, k = rng.choice([(1, 2, 3), (1, 3, 2), (2, 2, 2)])
    return _cmd(["enum", "zero-cycles", "--space", "pn", "--n", n, "--q", q, "--k", k],
                {"type": "cycle_count", "space": ("pn", n), "q": q, "l": 0, "k": k})


def _cli_zeta(rng):
    n, q = rng.choice([(1, 2), (1, 3), (2, 2)])
    return _cmd(["zeta", "--space", "pn", "--n", n, "--q", q, "--l", 0, "--kmax", 3,
                 "--audit"],
                {"type": "zeta", "space": ("pn", n), "q": q, "l": 0, "kmax": 3})


def _cli_zeta_divisors(rng):
    kmax = rng.randint(3, 6)
    return _cmd(["zeta", "--space", "p1xn", "--n", 2, "--q", 2, "--l", 1, "--kmax", kmax],
                {"type": "zeta", "space": P1SQ, "q": 2, "l": 1, "kmax": kmax})


def _cli_constant(rng):
    n, l = rng.choice([(2, 1), (3, 1), (4, 2), (3, 0)])
    return _cmd(["bound", "constant", "--n", n, "--l", l],
                {"type": "constant", "n": n, "l": l})


def _cli_lfun(rng):
    s = round(cprime_pn(1, 0) + 2.0 + 0.2 * rng.random(), 6)
    return _cmd(["lfun", "--n", 1, "--l", 0, "--s", s, "--pmax", 20000],
                {"type": "lfun", "n": 1, "l": 0, "s": s, "pmax": 20000})


def _cli_speczeta_audit(rng):
    s = round(1.5 + rng.random(), 6)
    return _cmd(["speczeta", "--s", s, "--cutoff", 10000, "--audit"],
                {"type": "spec_z", "s": s, "cutoff": 10000})


def _cli_speczeta(rng):
    s = round(2.0 + rng.random(), 6)
    return _cmd(["speczeta", "--s", s, "--cutoff", 100000],
                {"type": "spec_z", "s": s, "cutoff": 100000})


def _cli_norm(rng):
    poly = _product_1var(rng, 2, 1)
    return _cmd(["norm", "--poly", poly["poly"]], {"type": "norm_1var", **poly})


def _cli_delta(rng):
    roots = _roots(rng, 2, 4)
    lam = round(0.5 + rng.random(), 6)
    form = "*".join(f"(X1 - {c}*Y1)" if c >= 0 else f"(X1 + {-c}*Y1)" for c in roots)
    return _cmd(["delta", "--form", form, "--lam", lam],
                {"type": "delta_1var", "lead": 1, "roots": roots, "degree": 2, "lam": lam})


def _cli_divcount(rng):
    return _cmd(["divcount", "--n", 1, "--lam", 1, "--h", repr(math.log(3))],
                {"type": "divcount", "n": 1, "lam": 1.0, "h": math.log(3)})


def _cli_height_nv(rng):
    a, c, j = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 3)
    return _cmd(["height", "nv", "--coords", f"{a},{c}*z1^{j}", "--d", 1, "--nodes", 128],
                {"type": "height_nv", "d": 1, "a": a, "c": c, "j": j, "k": 0})


def _cli_height_ff(rng):
    q = rng.choice([2, 3, 5])
    coeffs = [[rng.randrange(q) for _ in range(3)] + [1],
              [rng.randrange(q) for _ in range(3)]]
    return _cmd(["height", "ff", "--coords", ",".join(_fq_poly_text(c) for c in coeffs),
                 "--q", q],
                {"type": "height_ff", "q": q, "coords": coeffs})


def _cli_census(rng):
    space, q, dmax = rng.choice([(P2, 2, 3), (P1SQ, 3, 4), (P1, 5, 6)])
    return _cmd(["census", "closed-points", "--space", space[0], "--n", space[1],
                 "--q", q, "--dmax", dmax],
                {"type": "census", "space": space, "q": q, "dmax": dmax})


def _cli_ff_points(rng):
    q, n, h = rng.choice([(2, 1, 2), (3, 1, 1), (2, 2, 1)])
    return _cmd(["census", "ff-points", "--q", q, "--n", n, "--h", h],
                {"type": "ff_points", "q": q, "n": n, "h": h})


def _cli_sh_set(rng):
    h = round(4.0 + 0.06 * rng.random(), 6)  # degree cap 1, coefficient box 14
    return _cmd(["census", "sh-set", "--d", 1, "--a", 0.25, "--h", h],
                {"type": "sh_set", "d": 1, "a": 0.25, "h": h})


def _cli_cycles(rng):
    q, k = rng.choice([(2, 3), (3, 2)])
    return _cmd(["count", "cycles", "--space", "pn", "--n", 2, "--q", q, "--l", 1,
                 "--k", k, "--audit"],
                {"type": "cycle_count", "space": P2, "q": q, "l": 1, "k": k})


def _cli_pushforward(rng):
    deg_pi = rng.randint(1, 5)
    mults = [rng.randint(1, 4) for _ in range(3)]
    return _cmd(["bound", "pushforward", "--deg-pi", deg_pi,
                 "--mults", ",".join(map(str, mults))],
                {"type": "pushforward", "deg_pi": deg_pi, "mults": mults})


_CLI_TEMPLATES = (
    _cli_divisors, _cli_zero_cycles, _cli_enum_divisors, _cli_enum_zero_cycles,
    _cli_zeta, _cli_zeta_divisors, _cli_constant, _cli_lfun, _cli_speczeta_audit,
    _cli_speczeta, _cli_norm, _cli_delta, _cli_divcount, _cli_height_nv,
    _cli_height_ff, _cli_census, _cli_ff_points, _cli_sh_set, _cli_cycles,
    _cli_pushforward,
)


def _cli_cold(rng: random.Random) -> list[dict]:
    """Every template once, then the first ten again with fresh draws."""
    return [t(rng) for t in _CLI_TEMPLATES] + [t(rng) for t in _CLI_TEMPLATES[:10]]


def _fq_poly_text(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            terms.append(str(c) if i == 0 else f"{c}*t^{i}")
    return " + ".join(terms) if terms else "0"


_MENUS = {"oracle": _oracle, "series": _series,
          "fs_measure": _fs_measure, "cli_cold": _cli_cold}


def generate(name: str, seed: int) -> list[dict]:
    """The workload's job list for this seed: same seed, same list."""
    jobs = _MENUS[name](random.Random(f"{name}:{seed}"))
    return [{"id": i, "kind": kind, "args": args}
            for i, (kind, args) in enumerate(jobs)]
