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
``sh_set_census`` load numpy and ``quadrature`` when first called.  The
box census integrates its sign classes in one batched call,
``quadrature.batched_log_integrals(_with_error)`` with the floor at one,
on either scheme: the grid, or Monte Carlo on one sample stream, whose
cap ``quadrature.MC_WORK_CAP`` that call checks.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

from .errors import DomainError, SizeCapExceeded
from .finite_fields import Fq, field
from .multipoly import MultiPoly, _exact_div, _univ_poly_gcd
from .records import FrozenRecord
from .spaces import PrimePower

if TYPE_CHECKING:
    from .quadrature import QuadratureConfig

# Coordinate tuples an F_q(t) census may scan.  On a 2-core x86 VM
# (Python 3.11) ``count_ff_points`` takes 25-90 ns a tuple when the
# coordinates have degree up to h >= 1 (q = 2, n = 1, h = 10: 4.2e6 tuples
# in 0.25 s), and up to ~0.9 us a tuple for constants in many coordinates,
# where the per-prefix pass dominates (q = 2, n = 22, h = 0: 8.4e6 in
# 7.2 s); ``iter_ff_points`` adds ~1.6 us per point built.
FF_CENSUS_CAP = 10 ** 7
# Members of an sh-set box, every one built as a row of floats before
# any integral.
SH_SET_CAP = 200_000


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
    """A gcd of a and b (not made monic), by Euclid."""
    a, b = _fq_trim(a), _fq_trim(b)
    while b:
        a, b = b, _fq_divmod(a, b, F)[1]
    return a


def _fq_scale(a, c, F: Fq):
    return _fq_trim([F.mul(x, c) for x in a])


class FunctionFieldPoint(FrozenRecord):
    """Projective point with polynomial coordinates over F_q, normalized.

    Normalization: divide out the coordinate gcd, then scale by a constant
    so the first coordinate of least degree among the nonzero ones is
    monic.  Representatives are unique, so censuses can count tuples.
    """

    _fields = ("q", "coords")

    def __new__(cls, q: PrimePower, coords: tuple[tuple[int, ...], ...]):
        return tuple.__new__(cls, (q, coords))

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


def _divisor_masks(F: Fq, h: int) -> list[int]:
    """One bitmask per polynomial of degree <= h over F, with a bit for each
    monic irreducible of degree <= h that divides it.

    Polynomials are numbered as ``itertools.product(range(Q), repeat=h + 1)``
    lists their coefficient tuples c_0..c_h, so c has index
    sum c_i Q^(h - i).  The sieve runs in degree order: a monic polynomial
    of degree D is irreducible iff no irreducible of smaller degree marked
    it, and an irreducible marks its nonzero multiples of degree <= h.  The
    zero polynomial, which every polynomial divides, carries every bit.
    """
    Q = F.order
    mul, add = F.mul, F.add
    weights = [Q ** (h - i) for i in range(h + 1)]
    masks = [0] * Q ** (h + 1)
    bit = 1
    for deg in range(1, h + 1):
        multipliers = [r for r in itertools.product(range(Q), repeat=h - deg + 1) if any(r)]
        for low in itertools.product(range(Q), repeat=deg):
            monic = low + (1,)
            if masks[sum(map(operator.mul, monic, weights))]:
                continue
            for r in multipliers:
                prod = [0] * (h + 1)
                for j, rj in enumerate(r):
                    if rj:
                        for i, mi in enumerate(monic, j):
                            prod[i] = add(prod[i], mul(mi, rj))
                masks[sum(map(operator.mul, prod, weights))] |= bit
            bit <<= 1
    masks[0] = bit - 1
    return masks


def _refuse_power(base: int, exponent: int, cap: int, what: str) -> None:
    """Refuse base^exponent items past cap without building a big power:
    a base >= 2 passes any cap from exponent cap.bit_length() on."""
    if base > 1 and exponent >= cap.bit_length() or base ** exponent > cap:
        size = math.floor(exponent * math.log10(base))
        raise SizeCapExceeded(f"~10^{size} {what} exceed cap {cap}")


def _ff_tuples(q: PrimePower, n: int, h: int):
    """The normalized coprime coordinate tuples of ``iter_ff_points``, in
    order, in batches: yields (polys, prefix, lasts), where each index c in
    ``lasts`` makes the tuple of ``polys[i]`` for i in prefix + (c,).

    A tuple is coprime iff the AND of its ``_divisor_masks`` is 0.  It is
    normalized iff its first coordinate of least degree among the nonzero
    ones is monic.  Which last coordinates can complete a prefix rests on
    the least length (degree + 1) of its nonzero coordinates and on whether
    the first of that length is monic, so they are listed once per such
    state, and each prefix only ANDs its masks with theirs.
    """
    if n < 1:
        raise DomainError("need projective dimension n >= 1")
    if h < 0:
        raise DomainError("height bound must be >= 0")
    _refuse_power(q.q, (n + 1) * (h + 1), FF_CENSUS_CAP, "coordinate tuples")
    polys = [_fq_trim(c) for c in itertools.product(range(q.q), repeat=h + 1)]
    masks = _divisor_masks(field(q.p, q.e), h)
    lens = list(map(len, polys))
    monic = [c[-1] == 1 if c else False for c in polys]
    all_zero = h + 2  # the least length of a prefix with no nonzero coordinate
    candidates = {}
    for least in range(1, all_zero + 1):
        for ok in (False, True):
            # a shorter nonzero last coordinate is the first of least
            # degree and must be monic; a zero or longer one keeps the
            # prefix's (ok is False while the prefix is all zero)
            cs = [c for c, length in enumerate(lens)
                  if (monic[c] if 0 < length < least else ok)]
            candidates[least, ok] = cs, [masks[c] for c in cs]
    full = masks[0]
    for prefix in itertools.product(range(len(polys)), repeat=n):
        common, least, ok = full, all_zero, False
        for c in prefix:
            common &= masks[c]
            if 0 < lens[c] < least:
                least, ok = lens[c], monic[c]
        cs, ms = candidates[least, ok]
        if common:
            cs = [c for c, m in zip(cs, ms) if not m & common]
        if cs:
            yield polys, prefix, cs


def iter_ff_points(q: PrimePower, n: int, h: int):
    """Yield every point of projective n-space over F_q(t) of height <= h.

    Exhaustive over coordinate tuples of degree <= h, in the lexicographic
    order of their coefficient tuples: keeps exactly the coprime tuples in
    canonical normalized form, so each point appears once.  Coprimality is
    one AND of precomputed divisor bitmasks per tuple: ``_divisor_masks``
    sieves the monic irreducibles of degree <= h and gives every
    polynomial the bits of those that divide it (see ``_ff_tuples``).
    """
    for polys, prefix, lasts in _ff_tuples(q, n, h):
        head = tuple([polys[c] for c in prefix])
        for c in lasts:
            yield FunctionFieldPoint(q, head + (polys[c],))


def count_ff_points(q: PrimePower, n: int, h: int) -> int:
    """Exact number of points of projective n-space over F_q(t) of height <= h."""
    return sum(len(lasts) for _, _, lasts in _ff_tuples(q, n, h))


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

    _fields = ("d", "coords")

    def __new__(cls, d: int, coords: tuple[MultiPoly, ...]):
        return tuple.__new__(cls, (d, coords))

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
                MultiPoly._build(d, {e: c // content for e, c in f.coeffs.items()})
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
    which give distinct points (1 : f)); ``max_height_error`` is the
    largest measured error over the integrated members (the node-doubling
    difference on the grid, three standard errors with Monte Carlo);
    ``all_heights_ok`` records the numerical verification that every
    member has height <= h + ``max_height_error``;
    ``analytic_lower_bound`` is the closed-form lower bound the census is
    compared against.
    """

    _fields = ("d", "a", "h", "count", "all_heights_ok", "max_height",
               "analytic_lower_bound", "coeff_box", "degree_cap",
               "max_height_error")

    def __new__(cls, d: int, a: float, h: float, count: int, all_heights_ok: bool,
                max_height: float, analytic_lower_bound: float, coeff_box: int,
                degree_cap: int, max_height_error: float):
        return tuple.__new__(cls, (d, a, h, count, all_heights_ok, max_height,
                                   analytic_lower_bound, coeff_box, degree_cap, max_height_error))


def sh_set_table(d: int, a: float, h: float, cfg: QuadratureConfig):
    """Exponent grid, coefficient rows, and verified heights of the box.

    The box consists of f with deg_i(f) <= floor(a*h) and
    |f|_inf <= exp((1 - a*d) * h) / sqrt(2).  Heights are those of the
    points (1 : f): infinity degrees plus the integral of log max(1, |f|).
    The rows run over a symmetric range in lexicographic order, and the
    box is closed under the sign images of ``_sign_classes``; only the
    first row of each class is integrated, and the others take its
    integral.
    """
    return _sh_set(d, a, h, cfg, with_error=False)[:5]


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


def _sh_set(d, a, h, cfg, with_error):
    """``sh_set_table`` and the largest measured error of its integrals
    (run only ``with_error``, as on the grid it takes an n / 2 pass)."""
    import numpy as np

    from . import quadrature

    if d < 1:
        raise DomainError("need d >= 1 variables")
    if a < 0:  # the degree cap floor(a h) would leave no exponents
        raise DomainError("need a >= 0")
    if 1.0 - 2.0 * d * a <= 0:
        raise DomainError("need 1 - 2da > 0")
    if h < 0:
        raise DomainError("height bound must be >= 0")
    scale = (1.0 - a * d) * h
    if scale > 34:  # box alone would exceed any searchable size
        raise SizeCapExceeded(f"coefficient box exp({scale:.3g}) is not searchable")
    box = math.floor(math.exp(scale) / math.sqrt(2.0) + 1e-9)
    degree_cap = math.floor(a * h + 1e-9)
    m = (degree_cap + 1) ** d
    _refuse_power(2 * box + 1, m, SH_SET_CAP, "box members")
    exponents = list(itertools.product(range(degree_cap + 1), repeat=d))
    rows = np.array(
        list(itertools.product(*([range(-box, box + 1)] * m))), dtype=float
    )
    first, inverse = _sign_classes(rows, exponents, box, cfg)
    reps = rows[first]
    if with_error:
        integrals, errors = quadrature.batched_log_integrals_with_error(
            reps, exponents, d, cfg, floor_at_one=True
        )
    else:
        integrals = quadrature.batched_log_integrals(
            reps, exponents, d, cfg, floor_at_one=True
        )
        errors = np.zeros(0)
    integrals = integrals[inverse]
    # deg_j f: the largest j-th exponent with a nonzero coefficient, or 0
    degrees = np.where(rows[:, :, None] != 0, np.array(exponents)[None], 0)
    heights = degrees.max(axis=1).sum(axis=1) + integrals
    error = float(errors.max(initial=0.0))
    return exponents, rows.astype(int), heights, box, degree_cap, error


def sh_set_census(d: int, a: float, h: float, cfg: QuadratureConfig) -> ShSetCensus:
    """Count the certified box of integer polynomials of bounded height.

    Every member satisfies h((1:f)) <= h, which is re-verified numerically
    with a guard band of ``max_height_error``; the count is compared
    against the analytic lower bound exp(a^d (1 - 2ad) h^(d+1) - a^d h^d).
    The error of ``max_height`` is the largest over the integrated
    members, not that of the maximal member alone: the integrals of
    neighbouring members may change places on a finer grid.
    """
    import numpy as np

    exponents, rows, heights, box, degree_cap, error = _sh_set(
        d, a, h, cfg, with_error=True
    )
    lower = math.exp(a ** d * (1.0 - 2.0 * a * d) * h ** (d + 1) - a ** d * h ** d)
    max_height = float(np.max(heights)) if len(heights) else 0.0
    all_ok = bool(np.all(heights <= h + error))
    return ShSetCensus(
        d, a, h, len(rows), all_ok, max_height, lower, box, degree_cap, error
    )
