"""Closed-point censuses from the point counts over field extensions.

For every supported space the number N_m of points rational over the
m-th extension has a geometric closed form, ``spaces.point_count`` (it
lives there, beside ``cell_counts``, so that the oracle's cap check does
not load this module).  The number b_d of closed points of residue
degree d then follows by Moebius inversion of

    N_m = sum_{d | m} d * b_d.

Everything here is exact big-integer arithmetic; the census inversion
asserts integrality and non-negativity, so a wrong point count cannot
slip through silently.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, IntegralityError
from .records import FrozenRecord
from .spaces import PrimePower, SpaceDescriptor, point_count


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    if n < 1:
        raise DomainError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


class ClosedPointCensus(FrozenRecord):
    """Counts b_d of closed points of residue degree d = 1..dmax."""

    _fields = ("space", "q", "b")

    def __new__(cls, space: SpaceDescriptor, q: PrimePower, b: tuple[int, ...]):
        return tuple.__new__(cls, (space, q, b))

    @property
    def dmax(self) -> int:
        return len(self.b)

    def count(self, d: int) -> int:
        if not 1 <= d <= self.dmax:
            raise DomainError(f"degree {d} outside census range 1..{self.dmax}")
        return self.b[d - 1]


def closed_point_census(space: SpaceDescriptor, q: PrimePower, dmax: int) -> ClosedPointCensus:
    """Census of closed points of residue degree up to dmax, by inversion.

    Product spaces are inverted from the product point counts directly,
    never by convolving factor censuses.
    """
    if dmax < 1:
        raise DomainError("dmax must be >= 1")
    counts = {m: point_count(space, q, m) for m in range(1, dmax + 1)}
    b = []
    for d in range(1, dmax + 1):
        total = sum(mobius(d // e) * counts[e] for e in divisors(d))
        if total % d != 0:
            raise IntegralityError(
                f"census inversion non-integral at degree {d} for {space.label()}"
            )
        bd = total // d
        if bd < 0:
            raise IntegralityError(
                f"census inversion negative at degree {d} for {space.label()}"
            )
        b.append(bd)
    return ClosedPointCensus(space, q, tuple(b))

