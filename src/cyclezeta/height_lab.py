"""Heights of projective points over function fields, with exact censuses.

Over the rational function field in t with finite constant field, the
height of a point with coprime polynomial coordinates is simply the
maximal coordinate degree, and the points of bounded height form an
exactly enumerable finite set.

Over the rational function field in z_1..z_d with integer coefficients
(standard Fubini-Study polarization), the height of a normalized point
(content 1, coordinate gcd 1) keeps only the infinity-divisor term and
the archimedean integral:

    h(x) = sum_j max_i deg_{z_j}(coord_i)
           + integral of log max_i |coord_i| against the FS volume,

all finite places dropping out because no prime divisor divides every
coordinate.  The membership set for the lower-bound census is a box of
integer polynomials whose members all satisfy h((1:f)) <= h.

The function-field half is exact integer work and imports without
numpy; ``height_nv``, ``height_nv_with_error``, ``sh_set_table`` and
``sh_set_census`` load numpy and ``quadrature`` when first called.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .errors import DomainError, SizeCapExceeded
from .finite_fields import Fq, field
from .multipoly import MultiPoly, _exact_div, _univ_poly_gcd
from .records import FrozenRecord
from .spaces import PrimePower

if TYPE_CHECKING:
    from .quadrature import QuadratureConfig

FF_CENSUS_CAP = 10 ** 7
# Monte Carlo samples summed over the integrated rows of an sh-set box.
# Each row is sampled on its own, at about 8e-8 s per row-sample on a
# 2-core x86 VM (Python 3.11, numpy 2.4), so the cap keeps a census under
# about 3 s there; at the default 10^6 samples, the 421 rows of
# d = 1, a = 0.25, h = 4 would take some 30 s.
MC_WORK_CAP = 4 * 10 ** 7


# ---------------------------------------------------------------------------
# polynomials over F_q in one variable t (coefficient tuples, little-endian)
# ---------------------------------------------------------------------------

def _fq_trim(c) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fq_deg(c) -> int:
    return len(c) - 1  # -1 for the zero polynomial


def _fq_divmod(a, b, F: Fq):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = F.inv(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = F.mul(a[-1], inv_lead)
        quot[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, bi))
        a.pop()
    return _fq_trim(quot), _fq_trim(a)


def _fq_gcd(a, b, F: Fq):
    """A gcd of a and b (not made monic), by Euclid on remainders alone."""
    mul, add, neg, inv = F.mul, F.add, F.neg, F.inv
    a, b = _fq_trim(a), _fq_trim(b)
    while b:
        r = list(a)
        db = len(b) - 1
        inv_lead = inv(b[-1])
        while len(r) > db:  # cancel the leading term of r with c * t^shift * b
            c = r.pop()
            if c:
                c = neg(mul(c, inv_lead))
                shift = len(r) - db
                for i in range(db):
                    r[shift + i] = add(r[shift + i], mul(c, b[i]))
        a, b = b, _fq_trim(r)
    return a


def _fq_scale(a, c, F: Fq):
    return _fq_trim([F.mul(x, c) for x in a])


class FunctionFieldPoint(FrozenRecord):
    """Projective point with polynomial coordinates over F_q, normalized.

    Normalization: divide out the coordinate gcd, then scale by a constant
    so the first coordinate of least degree among the nonzero ones is
    monic.  Representatives are unique, so censuses can count tuples.
    """

    __slots__ = ("q", "coords")

    def __init__(self, q: PrimePower, coords: tuple[tuple[int, ...], ...]):
        super().__init__(q, coords)

    @staticmethod
    def make(q: PrimePower, coords) -> "FunctionFieldPoint":
        F = field(q.p, q.e)
        coords = [_fq_trim(c) for c in coords]
        if all(not c for c in coords):
            raise DomainError("projective coordinates cannot all vanish")
        g = ()
        for c in coords:
            if c:
                g = _fq_gcd(g, c, F) if g else c
        if _fq_deg(g) > 0:
            coords = [
                _fq_divmod(c, g, F)[0] if c else () for c in coords
            ]
        dmin = min(_fq_deg(c) for c in coords if c)
        lead = next(c[-1] for c in coords if c and _fq_deg(c) == dmin)
        inv = F.inv(lead)
        coords = [_fq_scale(c, inv, F) for c in coords]
        return FunctionFieldPoint(q, tuple(coords))

    @property
    def n(self) -> int:
        return len(self.coords) - 1


def height_ff(x: FunctionFieldPoint) -> int:
    """Height of a normalized point: the maximal coordinate degree."""
    return max(_fq_deg(c) for c in x.coords if c)


def iter_ff_points(q: PrimePower, n: int, h: int):
    """Yield every point of projective n-space over F_q(t) of height <= h.

    Exhaustive over coordinate tuples of degree <= h: keeps exactly the
    coprime tuples in canonical normalized form, so each point appears
    once.
    """
    if n < 1:
        raise DomainError("need projective dimension n >= 1")
    if h < 0:
        raise DomainError("height bound must be >= 0")
    total = q.q ** ((n + 1) * (h + 1))
    if total > FF_CENSUS_CAP:
        raise SizeCapExceeded(f"{total} coordinate tuples exceed cap {FF_CENSUS_CAP}")
    F = field(q.p, q.e)
    polys = [
        _fq_trim(c) for c in itertools.product(range(q.q), repeat=h + 1)
    ]
    for coords in itertools.product(polys, repeat=n + 1):
        nonzero = [c for c in coords if c]
        if not nonzero:
            continue
        # the normalization test is one lookup, so it goes before the gcd
        lmin = min(map(len, nonzero))
        if next(c[-1] for c in nonzero if len(c) == lmin) != 1:
            continue
        if lmin > 1:  # a nonzero constant coordinate makes the tuple coprime
            g = nonzero[0]
            for c in nonzero[1:]:
                g = _fq_gcd(g, c, F)
                if len(g) == 1:
                    break
            if len(g) > 1:
                continue
        yield FunctionFieldPoint(q, coords)


def count_ff_points(q: PrimePower, n: int, h: int) -> int:
    """Exact number of points of projective n-space over F_q(t) of height <= h."""
    return sum(1 for _ in iter_ff_points(q, n, h))


# ---------------------------------------------------------------------------
# heights over the rational function field in z_1..z_d over the integers
# ---------------------------------------------------------------------------

def _int_content(values) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(v)))
    return g


class RationalFunctionPoint(FrozenRecord):
    """Projective point with integer polynomial coordinates in z_1..z_d.

    Normalized: overall integer content 1, no common polynomial factor
    (removed exactly in one variable; for d >= 2 the caller must supply
    coprime coordinates), and the first nonzero coefficient positive.
    """

    __slots__ = ("d", "coords")

    def __init__(self, d: int, coords: tuple[MultiPoly, ...]):
        super().__init__(d, coords)

    @staticmethod
    def make(d: int, coords) -> "RationalFunctionPoint":
        coords = list(coords)
        if d < 1:
            raise DomainError("need at least one variable")
        if any(f.nvars != d for f in coords):
            raise DomainError(f"coordinates must live in {d} variables")
        if all(f.is_zero for f in coords):
            raise DomainError("projective coordinates cannot all vanish")
        if d == 1:
            g = _univ_poly_gcd([f for f in coords if not f.is_zero])
            if g.deg(0) > 0:
                coords = [
                    f if f.is_zero else _exact_div(f, g) for f in coords
                ]
        content = _int_content(
            [c for f in coords for c in f.coeffs.values()]
        )
        if content > 1:
            coords = [
                MultiPoly(d, {e: c // content for e, c in f.coeffs.items()})
                for f in coords
            ]
        lead = next(
            f.coeffs[min(f.coeffs)] for f in coords if not f.is_zero
        )
        if lead < 0:
            coords = [-f for f in coords]
        return RationalFunctionPoint(d, tuple(coords))


def _height_terms(x: RationalFunctionPoint, cfg: QuadratureConfig):
    """The infinity-degree term and the coordinates to integrate."""
    if x.d > 3 or (x.d > 2 and cfg.scheme == "tensor_gauss"):
        raise DomainError(
            "heights support d <= 2 on tensor grids, d <= 3 with monte_carlo"
        )
    live = [f for f in x.coords if not f.is_zero]
    return sum(max(f.deg(j) for f in live) for j in range(x.d)), live


def height_nv(x: RationalFunctionPoint, cfg: QuadratureConfig) -> float:
    """Naive height: infinity-degree term plus the Fubini-Study integral.

    Quadrature-backed, so the variable count is capped: tensor grids up
    to d = 2, Monte Carlo up to d = 3.
    """
    from .quadrature import integrate_log_max

    degree_term, live = _height_terms(x, cfg)
    return degree_term + integrate_log_max(live, cfg)


def height_nv_with_error(
    x: RationalFunctionPoint, cfg: QuadratureConfig,
) -> tuple[float, float]:
    """``height_nv`` with the measured error of its integral (the
    node-doubling difference on the grid, three standard errors for
    Monte Carlo; the degree term is exact)."""
    from .quadrature import integrate_log_max_with_error

    degree_term, live = _height_terms(x, cfg)
    value, err = integrate_log_max_with_error(live, cfg)
    return degree_term + value, err


class ShSetCensus(FrozenRecord):
    """Exhaustive count of the bounded-height polynomial box.

    ``count`` is the number of integer polynomials in the box (all of
    which give distinct points (1 : f)); ``all_heights_ok`` records the
    numerical verification that every member has height <= h within the
    guard band of the configured tolerance; ``max_height_error`` is the
    largest measured error over the integrated members (the node-doubling
    difference on the grid, three standard errors with Monte Carlo);
    ``analytic_lower_bound`` is the closed-form lower bound the census is
    compared against.
    """

    __slots__ = ("d", "a", "h", "count", "all_heights_ok", "max_height",
                 "analytic_lower_bound", "coeff_box", "degree_cap",
                 "max_height_error")

    def __init__(self, d: int, a: float, h: float, count: int, all_heights_ok: bool,
                 max_height: float, analytic_lower_bound: float, coeff_box: int,
                 degree_cap: int, max_height_error: float):
        super().__init__(d, a, h, count, all_heights_ok, max_height,
                         analytic_lower_bound, coeff_box, degree_cap,
                         max_height_error)


def sh_set_table(
    d: int, a: float, h: float, cfg: QuadratureConfig,
    search_cap: int = 200_000,
):
    """Exponent grid, coefficient rows, and verified heights of the box.

    The box consists of f with deg_i(f) <= floor(a*h) and
    |f|_inf <= exp((1 - a*d) * h) / sqrt(2).  Heights are those of the
    points (1 : f): infinity degrees plus the integral of log max(1, |f|).
    The rows run over a symmetric range in lexicographic order, and the
    box is closed under the sign images of ``_sign_classes``; only the
    first row of each class is integrated, and the others take its
    integral.
    """
    return _sh_set(d, a, h, cfg, search_cap, with_error=False)[:5]


def _sign_classes(rows, exponents, box: int, cfg: QuadratureConfig):
    """The first row of each sign class, in order, and for each row the
    position of its class in that list.

    f and -f always have equal integrals, as |-f| = |f|.  On a tensor
    grid whose n and n / 2 are both even (the error takes an n / 2 pass),
    so has f(.., -z_j, ..) for each variable, whose coefficients of odd
    z_j-exponent are negated: for real rows |f(conj z)| = |f(z)|, and
    z_j -> -conj(z_j) on the folded axis and z_j -> -z_j on a plane axis
    permute the nodes at equal weights.  A class is keyed by the least
    lexicographic index among the 2^(d+1) sign images of a row (the box
    holds them all), which is the index of the class's first row; with
    -f alone the integrated rows are the first ceil(N / 2), in order.
    """
    import numpy as np

    flips = len(exponents[0]) if (
        cfg.scheme == "tensor_gauss" and cfg.nodes_per_dim % 4 == 0) else 0
    parities = np.array(exponents)[:, :flips] % 2
    images = np.array(list(itertools.product((0, 1), repeat=1 + flips)))
    signs = 1 - 2 * ((images[:, :1] + images[:, 1:] @ parities.T) % 2)
    # row c has index sum_k (c_k + box) place_k; every product and partial
    # sum is an integer below the row count, so the float arithmetic is exact
    place = float(2 * box + 1) ** np.arange(len(exponents) - 1, -1, -1)
    keys = (rows @ (signs * place).T).min(axis=1) + box * place.sum()
    first = np.flatnonzero(keys == np.arange(len(rows)))
    return first, np.searchsorted(first, keys)


def _sh_set(d, a, h, cfg, search_cap, with_error):
    """``sh_set_table`` and the largest measured error of its integrals;
    on the grid that takes an n / 2 pass, run only ``with_error``."""
    import numpy as np

    from . import quadrature

    if d < 1:
        raise DomainError("need d >= 1 variables")
    if 1.0 - 2.0 * d * a <= 0:
        raise DomainError("need 1 - 2da > 0")
    if h < 0:
        raise DomainError("height bound must be >= 0")
    scale = (1.0 - a * d) * h
    if scale > 34:  # box alone would exceed any searchable size
        raise SizeCapExceeded(f"coefficient box exp({scale:.3g}) is not searchable")
    box = math.floor(math.exp(scale) / math.sqrt(2.0) + 1e-9)
    degree_cap = math.floor(a * h + 1e-9)
    exponents = list(
        itertools.product(range(degree_cap + 1), repeat=d)
    )
    m = len(exponents)
    count = (2 * box + 1) ** m
    if count > search_cap:
        raise SizeCapExceeded(f"{count} box members exceed cap {search_cap}")
    rows = np.array(
        list(itertools.product(*([range(-box, box + 1)] * m))), dtype=float
    )
    first, inverse = _sign_classes(rows, exponents, box, cfg)
    reps = rows[first]
    errors = np.zeros(0)
    if d > 2 or cfg.scheme != "tensor_gauss":
        # Monte Carlo reports three standard errors at no extra cost; the
        # grid refuses d > 2
        work = len(reps) * cfg.sample_count
        if cfg.scheme == "monte_carlo" and work > MC_WORK_CAP:
            raise SizeCapExceeded(
                f"{len(reps)} rows x {cfg.sample_count} samples exceed the Monte Carlo "
                f"cap {MC_WORK_CAP:.0e}; lower sample_count (--mc-samples)"
            )
        one = MultiPoly.constant(1, d)
        integrals, errors = np.transpose([
            quadrature.integrate_log_max_with_error(
                [one, MultiPoly(d, dict(zip(exponents, row)))], cfg
            )
            for row in reps
        ])
    elif with_error:
        integrals, errors = quadrature.batched_log_integrals_with_error(
            reps, exponents, d, cfg, floor_at_one=True
        )
    else:
        integrals = quadrature.batched_log_integrals(
            reps, exponents, d, cfg, floor_at_one=True
        )
    integrals = integrals[inverse]
    # deg_j f: the largest j-th exponent with a nonzero coefficient, or 0
    degrees = np.where(rows[:, :, None] != 0, np.array(exponents)[None], 0)
    heights = degrees.max(axis=1).sum(axis=1) + integrals
    error = float(errors.max(initial=0.0))
    return exponents, rows.astype(int), heights, box, degree_cap, error


def sh_set_census(
    d: int, a: float, h: float, cfg: QuadratureConfig,
    search_cap: int = 200_000,
) -> ShSetCensus:
    """Count the certified box of integer polynomials of bounded height.

    Every member satisfies h((1:f)) <= h, which is re-verified numerically
    with a guard band of cfg.tolerance; the count is compared against the
    analytic lower bound exp(a^d (1 - 2ad) h^(d+1) - a^d h^d).  The error
    of ``max_height`` is the largest over the integrated members, not that
    of the maximal member alone: the integrals of neighbouring members
    may change places on a finer grid.
    """
    import numpy as np

    exponents, rows, heights, box, degree_cap, error = _sh_set(
        d, a, h, cfg, search_cap, with_error=True
    )
    lower = math.exp(a ** d * (1.0 - 2.0 * a * d) * h ** (d + 1) - a ** d * h ** d)
    max_height = float(np.max(heights)) if len(heights) else 0.0
    all_ok = bool(np.all(heights <= h + cfg.tolerance))
    return ShSetCensus(
        d, a, h, len(rows), all_ok, max_height, lower, box, degree_cap, error
    )
