"""Brute-force enumeration of effective cycles at tiny scale.

This module is the ground truth: every closed-form count and every bound
elsewhere in the package is validated against the objects listed here.
Enumerators therefore never approximate; they either finish exactly or
raise ``SizeCapExceeded``.  ``AUDITS`` is the one table that pairs each
audited closed form in ``exact_counts`` with its oracle here; the
oracles take only the degree convention from ``exact_counts``, never the
closed forms they audit.

Closed points are Frobenius orbits of points over the splitting field,
keyed by the lexicographically least orbit member with coordinates
encoded in the canonical field of the point's own residue degree, so
equal points always compare equal no matter how they were produced.
Frobenius a -> a^q is one lookup in a table built once per (field, q)
and cached, with one ``Fq.pow`` per field element.

Every enumerator generates its objects in canonical order, so none sorts:
points and forms are leading-one vectors listed lexicographically (the
first point met of an orbit is its key), and the 0-cycles come out of a
depth-first walk over the sorted closed points in ``sort_key`` order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import exact_counts
from .errors import DomainError, SizeCapExceeded
from .exact_counts import MultiDegree, _check_multidegree, polarization_multidegrees
from .field_census import point_count
from .finite_fields import Fq, embedding, field
from .records import FrozenRecord
from .spaces import PrimePower, SpaceDescriptor, product_factor

ENUM_CAP = 10 ** 6
FIBER_DEGREE_CAP = 8

Point = tuple[tuple[int, ...], ...]  # one coordinate tuple per block


# ---------------------------------------------------------------------------
# points and Frobenius orbits
# ---------------------------------------------------------------------------

def _leading_one_vectors(length: int, q: int):
    """Every vector in F_q^length whose first nonzero entry is 1, sorted: more
    leading zeros come first, and ``itertools.product`` sorts each tail."""
    for lead in range(length - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=length - 1 - lead):
            yield head + tail


def _space_points(space: SpaceDescriptor, F: Fq):
    """The normalized points over F, in lexicographic order."""
    blocks = [list(_leading_one_vectors(n + 1, F.order)) for n in space.slot_dims]
    return itertools.product(*blocks)


@lru_cache(maxsize=None)
def _frobenius_table(F: Fq, q: int) -> tuple[int, ...]:
    """a -> a^q on F, one entry per element."""
    return tuple(F.pow(a, q) for a in range(F.order))


def _orbit(pt: Point, F: Fq, q: int) -> list[Point]:
    # coordinates are normalized with leading 1, which Frobenius fixes
    frob = _frobenius_table(F, q).__getitem__
    orbit = [pt]
    x = tuple([tuple(map(frob, block)) for block in pt])
    while x != pt:
        orbit.append(x)
        x = tuple([tuple(map(frob, block)) for block in x])
    return orbit


class ClosedPoint(FrozenRecord):
    """A Frobenius orbit: orbit size = residue degree over F_q."""

    __slots__ = ("space", "q", "degree", "orbit_key")

    def __init__(self, space: SpaceDescriptor, q: PrimePower, degree: int,
                 orbit_key: Point):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "orbit_key", orbit_key)

    def sort_key(self):
        return (self.degree, self.orbit_key)


@lru_cache(maxsize=None)
def closed_points(space: SpaceDescriptor, q: PrimePower, d: int) -> tuple[ClosedPoint, ...]:
    """All closed points of residue degree exactly d, canonically sorted."""
    if d < 1:
        raise DomainError("residue degree must be >= 1")
    if point_count(space, q, d) > ENUM_CAP:
        raise SizeCapExceeded(
            f"{space.label()} has more than {ENUM_CAP} points over extension {d}"
        )
    F = field(q.p, q.e * d)
    # points come in lexicographic order and Frobenius keeps them
    # normalized, so the first member met of an orbit is its least
    seen: set[Point] = set()
    found = []
    for pt in _space_points(space, F):
        if pt in seen:
            continue
        orbit = _orbit(pt, F, q.q)
        seen.update(orbit)
        if len(orbit) == d:
            found.append(ClosedPoint(space, q, d, pt))
    return tuple(found)


# ---------------------------------------------------------------------------
# zero-cycles
# ---------------------------------------------------------------------------

class ZeroCycle(FrozenRecord):
    """Effective 0-cycle: closed points with positive multiplicities."""

    __slots__ = ("space", "q", "terms")

    def __init__(self, space: SpaceDescriptor, q: PrimePower,
                 terms: tuple[tuple[ClosedPoint, int], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def make(space, q, terms) -> "ZeroCycle":
        items = [(pt, int(m)) for pt, m in
                 (terms.items() if isinstance(terms, dict) else terms) if m]
        if any(m < 0 for _, m in items):
            raise DomainError("multiplicities must be >= 1")
        items.sort(key=lambda t: t[0].sort_key())
        return ZeroCycle(space, q, tuple(items))

    @property
    def degree(self) -> int:
        return sum(m * pt.degree for pt, m in self.terms)

    def alpha(self) -> float:
        """sum_i sqrt(a_i * deg(x_i)), the fiber-bound weight of the cycle."""
        return sum(math.sqrt(m * pt.degree) for pt, m in self.terms)

    def support_size(self) -> int:
        return len(self.terms)

    def sort_key(self):
        return tuple((pt.degree, pt.orbit_key, m) for pt, m in self.terms)


def enum_zero_cycles(space: SpaceDescriptor, q: PrimePower, k: int) -> list[ZeroCycle]:
    """Every effective 0-cycle of degree exactly k, duplicate-free, sorted."""
    if k < 0:
        raise DomainError("degree k must be >= 0")
    if k == 0:
        return [ZeroCycle(space, q, ())]
    pts: list[ClosedPoint] = []
    for d in range(1, k + 1):
        pts.extend(closed_points(space, q, d))
    # sorted by (degree, orbit key): the scan below can stop early, and the
    # depth-first walk emits canonical cycles in ``sort_key`` order; depth
    # is at most k because every level consumes at least one unit of degree
    out: list[ZeroCycle] = []

    def recurse(start: int, remaining: int, chosen):
        if remaining == 0:
            out.append(ZeroCycle(space, q, tuple(chosen)))
            if len(out) > ENUM_CAP:
                raise SizeCapExceeded(f"more than {ENUM_CAP} zero-cycles")
            return
        for i in range(start, len(pts)):
            d = pts[i].degree
            if d > remaining:
                break
            for mult in range(1, remaining // d + 1):
                chosen.append((pts[i], mult))
                recurse(i + 1, remaining - mult * d, chosen)
                chosen.pop()

    recurse(0, k, [])
    return out


# ---------------------------------------------------------------------------
# products of residue fields, pushforward, fibers
# ---------------------------------------------------------------------------

def _project_closed_point(
    pt: ClosedPoint, factor: SpaceDescriptor, blocks: slice
) -> tuple[ClosedPoint, int]:
    """Project a closed point of a product to the factor that owns the
    coordinate ``blocks`` (see ``spaces.product_factor``).

    Returns (image point, relative residue degree over the image).
    """
    coords = pt.orbit_key[blocks]
    q = pt.q
    F_big = field(q.p, q.e * pt.degree)

    # residue degree of the image = its Frobenius orbit size
    sub_orbit = _orbit(coords, F_big, q.q)
    s = len(sub_orbit)
    if pt.degree % s != 0:
        raise AssertionError("orbit size must divide the point degree")
    F_small = field(q.p, q.e * s)
    _, down = embedding(q.p, q.e * s, q.e * pt.degree)
    small_coords = tuple(tuple(down[c] for c in block) for block in coords)
    key = min(_orbit(small_coords, F_small, q.q))
    return ClosedPoint(factor, q, s, key), pt.degree // s


def pushforward_zero_cycle(z: ZeroCycle, which: str = "first") -> ZeroCycle:
    """Push a 0-cycle on a product down to a factor.

    Each point contributes its multiplicity weighted by the relative
    residue degree over its image, so the total degree is preserved.
    """
    factor, blocks = product_factor(z.space, which)
    acc: dict[ClosedPoint, int] = {}
    for pt, mult in z.terms:
        image, rel = _project_closed_point(pt, factor, blocks)
        acc[image] = acc.get(image, 0) + mult * rel
    return ZeroCycle.make(factor, z.q, acc)


def fiber_count(x: ZeroCycle, y: ZeroCycle, q: PrimePower) -> int:
    """Exact number of 0-cycles on X x Y pushing forward to x and y.

    Works over the abstract splitting data: above the pair (x_i, y_j)
    sit gcd(d_i, e_j) closed points of degree lcm(d_i, e_j), and a cycle
    is a choice of multiplicities matching both marginals.  Exhaustive
    with memoization; degrees are capped.
    """
    if x.q != q or y.q != q:
        raise DomainError("cycles must live over the same base field")
    if x.degree > FIBER_DEGREE_CAP or y.degree > FIBER_DEGREE_CAP:
        raise SizeCapExceeded(f"fiber_count caps pushforward degrees at {FIBER_DEGREE_CAP}")
    if (x.degree == 0) != (y.degree == 0):
        return 0
    xs = [(pt.degree, m) for pt, m in x.terms]
    ys = [(pt.degree, m) for pt, m in y.terms]
    slots = []  # (index in xs, index in ys, rel deg over x_i, rel deg over y_j)
    for i, (dx, _) in enumerate(xs):
        for j, (dy, _) in enumerate(ys):
            deg = math.lcm(dx, dy)
            slots.extend([(i, j, deg // dx, deg // dy)] * math.gcd(dx, dy))

    @lru_cache(maxsize=None)
    def count_from(idx: int, rem_x: tuple, rem_y: tuple) -> int:
        if idx == len(slots):
            return 1 if not any(rem_x) and not any(rem_y) else 0
        i, j, rx, ry = slots[idx]
        total = 0
        cmax = min(rem_x[i] // rx, rem_y[j] // ry)
        for c in range(cmax + 1):
            nx = rem_x[:i] + (rem_x[i] - c * rx,) + rem_x[i + 1:]
            ny = rem_y[:j] + (rem_y[j] - c * ry,) + rem_y[j + 1:]
            total += count_from(idx + 1, nx, ny)
        return total

    return count_from(
        0, tuple(m for _, m in xs), tuple(m for _, m in ys)
    )


# ---------------------------------------------------------------------------
# divisors as canonical forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_exponents(space: SpaceDescriptor, e: MultiDegree) -> tuple[tuple, ...]:
    """Monomial basis of the multidegree-e forms, in canonical order.

    Each monomial is a tuple with one entry per block: the X-exponent
    a in 0..e_i for a P^1 block (the Y-exponent is e_i - a), or an
    (n+1)-tuple of exponents summing to the degree for a P^n block.
    """
    slots = space.slots
    if len(e) != len(slots):
        raise DomainError(
            f"multidegree length {len(e)} != {len(slots)} slots of {space.label()}"
        )
    per_block = []
    for slot, deg in zip(slots, e):
        if slot == ("p1",):
            per_block.append([(a,) for a in range(deg + 1)])
        else:
            _, n = slot
            per_block.append(
                [mono for mono in itertools.product(range(deg + 1), repeat=n + 1)
                 if sum(mono) == deg]
            )
    return tuple(itertools.product(*per_block))


class FormClass(FrozenRecord):
    """A nonzero form modulo scalars; first nonzero coefficient is 1.

    ``coefficients[i]`` is the field element (encoded as an int) attached
    to ``monomial_exponents(space, multidegree)[i]``.
    """

    NORMALIZATION = "leading-one"

    __slots__ = ("space", "q", "multidegree", "coefficients")

    def __init__(self, space: SpaceDescriptor, q: PrimePower, multidegree: MultiDegree,
                 coefficients: tuple[int, ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "multidegree", multidegree)
        object.__setattr__(self, "coefficients", coefficients)

    def support(self):
        monos = monomial_exponents(self.space, self.multidegree)
        return tuple(
            (mono, c) for mono, c in zip(monos, self.coefficients) if c
        )

    def __str__(self):
        parts = []
        for mono, c in self.support():
            factors = []
            for b, (slot, deg) in enumerate(
                zip(self.space.slots, self.multidegree)
            ):
                if slot == ("p1",):
                    a = mono[b][0]
                    if a:
                        factors.append(f"X{b+1}" + (f"^{a}" if a > 1 else ""))
                    if deg - a:
                        factors.append(f"Y{b+1}" + (f"^{deg-a}" if deg - a > 1 else ""))
                else:
                    for v, a in enumerate(mono[b]):
                        if a:
                            factors.append(f"X{v}" + (f"^{a}" if a > 1 else ""))
            term = "*".join(factors) if factors else "1"
            parts.append(term if c == 1 else f"[{c}]*{term}")
        return " + ".join(parts) if parts else "0"


def enum_divisors(space: SpaceDescriptor, q: PrimePower, e) -> list[FormClass]:
    """Every effective divisor of exactly the given multidegree, once each.

    Divisors correspond to nonzero forms modulo scalars; the canonical
    representative scales the first nonzero coefficient to 1.
    """
    e = _check_multidegree(e)
    monos = monomial_exponents(space, e)
    m = len(monos)
    total = q.q ** m
    if total > ENUM_CAP:
        raise SizeCapExceeded(
            f"coefficient space of size {q.q}^{m} exceeds cap {ENUM_CAP}"
        )
    return [FormClass(space, q, e, vec) for vec in _leading_one_vectors(m, q.q)]


# ---------------------------------------------------------------------------
# the audit table
# ---------------------------------------------------------------------------

# family -> (closed form, oracle), both called as f(space, q, degree): the
# degree is the multidegree e for "multidegree divisors" and the
# polarization degree k otherwise.  Top cycles have no oracle.
AUDITS = {
    "zero-cycles": (
        exact_counts.zero_cycle_count,
        lambda space, q, k: len(enum_zero_cycles(space, q, k)),
    ),
    "divisors": (
        exact_counts.divisor_count_by_degree,
        lambda space, q, k: sum(
            len(enum_divisors(space, q, e)) for e in polarization_multidegrees(space, k)
        ),
    ),
    "multidegree divisors": (
        exact_counts.divisor_count,
        lambda space, q, e: len(enum_divisors(space, q, e)),
    ),
}
