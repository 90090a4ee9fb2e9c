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

The degree-d points are found by index arithmetic, not point by point.
The normalized points over F_(q^d) are numbered in lexicographic order,
and Frobenius becomes a permutation ``perm`` of the indices, built from
the field table one coordinate and one block at a time.  Its d-th power
is the identity, since a^(q^d) = a on F_(q^d); so the orbit of i has a
size s dividing d (s is the least j > 0 with perm^j(i) = i, and d is a
multiple of it).  Hence i is the key of a closed point of degree exactly
d iff i < perm^j(i) for j = 1 .. d - 1: an orbit of size s < d fails at
j = s, and on an orbit of size d those are the other members.  The test
runs as whole-list passes, one power of ``perm`` at a time, and only the
keys are decoded into coordinates: one ``map(divmod, ...)`` pass per
block splits off the keys' lowest mixed-radix digits, which index that
block's vectors, and ``zip`` joins the columns into orbit keys.

Every enumerator generates its objects in canonical order, so none sorts:
points and forms are leading-one vectors listed lexicographically (the
least index of an orbit is its key), and the 0-cycles come out of a
depth-first walk over the sorted closed points in ``sort_key`` order.
No enumerator calls a record's constructor per object: ``ClosedPoint``,
``ZeroCycle`` and ``FormClass`` records are packed by ``tuple.__new__``
from zipped columns of their fields in one C-level pass (``_records``),
so their ``__new__`` must stay a plain packing of the fields.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from itertools import compress, product, repeat, starmap
from operator import add, eq, lt

from . import exact_counts
from .errors import DomainError, SizeCapExceeded
from .exact_counts import MultiDegree, _check_multidegree, polarization_multidegrees
from .finite_fields import Fq, embedding, field
from .records import FrozenRecord
from .spaces import PrimePower, SpaceDescriptor, point_count, product_factor

ENUM_CAP = 10 ** 6
FIBER_DEGREE_CAP = 8

Point = tuple[tuple[int, ...], ...]  # one coordinate tuple per block


def _records(cls, *columns):
    """``cls(*row)`` for each row of the parallel field columns, built by
    ``tuple.__new__`` in one C-level pass: only for the record classes
    here, whose ``__new__`` just packs its fields (see ``records``)."""
    return map(tuple.__new__, repeat(cls), zip(*columns))


def _spread(outer: list[int], scale: int, inner) -> list[int]:
    """[x * scale + y for x in outer for y in inner], in one C-level pass."""
    return list(starmap(add, product(map(scale.__mul__, outer), inner)))


# ---------------------------------------------------------------------------
# points and Frobenius orbits
# ---------------------------------------------------------------------------

def _leading_one_vectors(length: int, q: int) -> list[tuple[int, ...]]:
    """Every vector in F_q^length whose first nonzero entry is 1, sorted: more
    leading zeros come first, and ``itertools.product`` sorts each tail."""
    out = []
    for lead in range(length - 1, -1, -1):
        out += product(*[(0,)] * lead, (1,), *[range(q)] * (length - 1 - lead))
    return out


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

    _fields = ("space", "q", "degree", "orbit_key")

    def __new__(cls, space: SpaceDescriptor, q: PrimePower, degree: int, orbit_key: Point):
        return tuple.__new__(cls, (space, q, degree, orbit_key))

    def sort_key(self):
        return (self.degree, self.orbit_key)


def _frobenius_permutation(space: SpaceDescriptor, F: Fq, q: int):
    """The normalized points of the space over F, numbered in lexicographic
    order, as Frobenius a -> a^q permutes them.

    Returns (blocks, perm): ``blocks[b]`` lists the leading-one vectors of
    block b in order, point i is the tuple of block vectors given by the
    digits of i in the mixed radix of the block sizes (first block most
    significant), and Frobenius maps point i to point ``perm[i]``.
    """
    Q = F.order
    frob = _frobenius_table(F, q)
    blocks, perm = [], [0]
    for n in space.slot_dims:
        # the vectors with a tail of length t follow the (Q^t - 1)/(Q - 1)
        # with shorter tails; Frobenius fixes the leading 1 and maps the
        # tail with base-Q digits (.., a, b) to (.., frob a, frob b)
        block, tail = [0], [0]
        for _ in range(n):
            tail = _spread(tail, Q, frob)
            block += map(len(block).__add__, tail)
        perm = _spread(perm, len(block), block) if blocks else block
        blocks.append(_leading_one_vectors(n + 1, Q))
    return blocks, perm


@lru_cache(maxsize=None)
def closed_points(space: SpaceDescriptor, q: PrimePower, d: int) -> tuple[ClosedPoint, ...]:
    """All closed points of residue degree exactly d, canonically sorted.

    Frobenius over F_q permutes the points over F_(q^d) by ``perm`` of
    ``_frobenius_permutation``, and perm^d is the identity.  So the orbit
    size s of index i divides d: perm^d(i) = i, and the j with
    perm^j(i) = i are the multiples of s.  Index i is therefore the key
    (least index) of an orbit of size exactly d iff i < perm^j(i) for every
    j = 1 .. d - 1: an orbit of size s < d fails at j = s, and on an orbit
    of size d these are its d - 1 other members.  For d = 1 the keys are
    the fixed points.  Each pass keeps the candidates that pass one more
    power of ``perm``; about half drop out at the first.
    """
    if d < 1:
        raise DomainError("residue degree must be >= 1")
    if point_count(space, q, d) > ENUM_CAP:
        raise SizeCapExceeded(
            f"{space.label()} has more than {ENUM_CAP} points over extension {d}"
        )
    F = field(q.p, q.e * d)
    blocks, perm = _frobenius_permutation(space, F, q.q)
    indices = range(len(perm))
    if d == 1:
        keys = list(compress(indices, map(eq, indices, perm)))
    else:
        keys = list(compress(indices, map(lt, indices, perm)))
        images = list(map(perm.__getitem__, keys))
        for _ in range(d - 2):
            images = list(map(perm.__getitem__, images))
            keep = list(map(lt, keys, images))
            keys = list(compress(keys, keep))
            images = list(compress(images, keep))
    if not keys:
        return ()
    # one column of block vectors per block, read off the keys' digits
    # from the last block (the lowest digit) up; a point has no blocks
    columns = []
    for vectors in reversed(blocks[1:]):
        keys, digits = zip(*map(divmod, keys, repeat(len(vectors))))
        columns.append(map(vectors.__getitem__, digits))
    if blocks:
        columns.append(map(blocks[0].__getitem__, keys))
    orbit_keys = zip(*reversed(columns)) if blocks else [()]
    return tuple(_records(ClosedPoint, repeat(space), repeat(q), repeat(d), orbit_keys))


# ---------------------------------------------------------------------------
# zero-cycles
# ---------------------------------------------------------------------------

class ZeroCycle(FrozenRecord):
    """Effective 0-cycle: closed points with positive multiplicities."""

    _fields = ("space", "q", "terms")

    def __new__(cls, space: SpaceDescriptor, q: PrimePower,
                terms: tuple[tuple[ClosedPoint, int], ...]):
        return tuple.__new__(cls, (space, q, terms))

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

    def sort_key(self):
        return tuple((pt.degree, pt.orbit_key, m) for pt, m in self.terms)


def enum_zero_cycles(space: SpaceDescriptor, q: PrimePower, k: int) -> list[ZeroCycle]:
    """Every effective 0-cycle of degree exactly k, duplicate-free, sorted."""
    if k < 0:
        raise DomainError("degree k must be >= 0")
    pts: list[ClosedPoint] = []
    for d in range(1, k + 1):
        pts.extend(closed_points(space, q, d))
    # sorted by (degree, orbit key): the scan below can stop early, and the
    # depth-first walk emits canonical cycles in ``sort_key`` order; depth
    # is at most k because every level consumes at least one unit of degree
    out = []

    def recurse(start: int, remaining: int, chosen):
        if remaining == 0:
            out.append(tuple(chosen))
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
    return list(_records(ZeroCycle, repeat(space), repeat(q), out))


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

    _fields = ("space", "q", "multidegree", "coefficients")

    def __new__(cls, space: SpaceDescriptor, q: PrimePower, multidegree: MultiDegree,
                coefficients: tuple[int, ...]):
        return tuple.__new__(cls, (space, q, multidegree, coefficients))

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
    # the closed dimension only refuses early, before any monomial is built
    # (q >= 2, so q^m passes the cap from m = 20 on); what is enumerated is
    # counted from the monomials themselves
    m = exact_counts._form_dimension(space, e)
    if m >= ENUM_CAP.bit_length() or q.q ** m > ENUM_CAP:
        raise SizeCapExceeded(
            f"coefficient space of size {q.q}^{m} exceeds cap {ENUM_CAP}"
        )
    vectors = _leading_one_vectors(len(monomial_exponents(space, e)), q.q)
    return list(_records(FormClass, repeat(space), repeat(q), repeat(e), vectors))


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
