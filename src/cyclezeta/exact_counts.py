"""Closed-form exact counts of effective cycles.

Three families have closed forms:

* divisors (codimension one) on products of projective lines and on
  projective space, counted through the linear systems they span:
  nonzero forms modulo scalars give (q^dim - 1)/(q - 1) divisors;
* zero-cycles, whose degree-k count is the T^k coefficient of
  exp(sum_m N_m T^m / m) where N_m is the point count over the m-th
  extension;
* top-dimensional cycles a * [X], which exist exactly when the degree is
  a multiple of the top self-intersection of the polarization.

``cycle_family`` is the one place that maps a cycle dimension l to its
family, and ``polarization_multidegrees`` the one place that fixes the
degree convention for divisors.  Intermediate dimensions 0 < l < dim - 1
have no closed form and are refused; the brute-force enumerator in
``cycle_oracle`` is the only route there, under its own size caps.  Each
closed form is paired with its oracle in ``cycle_oracle.AUDITS``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, IntegralityError, UnsupportedDimension
from .field_census import point_count
from .spaces import (
    PrimePower,
    SpaceDescriptor,
    ProjSpace,
    as_p1_power,
    multidegree_slots,
    top_degree,
)

MultiDegree = tuple[int, ...]


def _check_multidegree(e) -> MultiDegree:
    e = tuple(int(x) for x in e)
    if any(x < 0 for x in e):
        raise DomainError(f"multidegree entries must be >= 0, got {e}")
    return e


def divisor_count(space: SpaceDescriptor, q: PrimePower, e) -> int:
    """Divisors of exact multidegree e on any supported space.

    The multihomogeneous forms of multidegree e make a space whose
    dimension is the product of the per-slot form dimensions; divisors
    are nonzero forms modulo scalars.
    """
    e = _check_multidegree(e)
    slots = multidegree_slots(space)
    if len(e) != len(slots):
        raise DomainError(
            f"multidegree length {len(e)} != {len(slots)} slots of {space.label()}"
        )
    dim = 1
    for slot, k in zip(slots, e):
        dim *= (k + 1) if slot == ("p1",) else math.comb(slot[1] + k, slot[1])
    return (q.q ** dim - 1) // (q.q - 1)


@lru_cache(maxsize=None)
def _zero_cycle_counts(space: SpaceDescriptor, q: PrimePower, kmax: int) -> tuple[int, ...]:
    # c_0..c_kmax of exp(sum N_m T^m / m) by the standard derivative
    # recurrence k*c_k = sum_{m=1}^{k} N_m c_{k-m}; divisibility is forced
    # when the point counts are right, so failure is an internal bug.
    counts = [point_count(space, q, m) for m in range(1, kmax + 1)]
    c = [1]
    for k in range(1, kmax + 1):
        s = sum(counts[m - 1] * c[k - m] for m in range(1, k + 1))
        if s % k != 0:
            raise IntegralityError(
                f"zero-cycle series coefficient at k={k} is not integral"
            )
        c.append(s // k)
    return tuple(c)


def zero_cycle_count(space: SpaceDescriptor, q: PrimePower, k: int) -> int:
    """Exact number of effective 0-cycles of degree k on the space."""
    if k < 0:
        raise DomainError("degree k must be >= 0")
    return _zero_cycle_counts(space, q, k)[k]


def top_cycle_count(space: SpaceDescriptor, k: int) -> int:
    """Number of top-dimensional effective cycles of degree k: 1 or 0.

    Top cycles are a*[X]; one exists iff the top self-intersection degree
    of the polarization divides k (the zero cycle covers k = 0).
    """
    if k < 0:
        raise DomainError("degree k must be >= 0")
    return 1 if k % top_degree(space) == 0 else 0


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def polarization_multidegrees(space: SpaceDescriptor, k: int) -> list[MultiDegree]:
    """The divisor multidegrees of polarization degree k on the space.

    On P^n the polarization degree of a divisor equals its form degree.
    On (P^1)^n it is (n-1)! * (sum of the multidegrees), so the
    multidegrees are the compositions of k/(n-1)!, and none when (n-1)!
    does not divide k.  Other spaces have no degree convention here.
    """
    if k < 0:
        raise DomainError("degree k must be >= 0")
    if isinstance(space, ProjSpace) and space.n >= 1:
        return [(k,)]
    n = as_p1_power(space)
    if n is not None and n >= 1:
        step = math.factorial(n - 1)
        return list(_compositions(k // step, n)) if k % step == 0 else []
    raise UnsupportedDimension(
        f"no closed-form divisor count on {space.label()}"
    )


def divisor_count_by_degree(space: SpaceDescriptor, q: PrimePower, k: int) -> int:
    """Exact number of effective divisors of polarization degree k."""
    return sum(divisor_count(space, q, e) for e in polarization_multidegrees(space, k))


def cycle_family(space: SpaceDescriptor, l: int) -> str:
    """The family of the l-dimensional cycles on the space.

    One of "zero-cycles", "top-cycles" or "divisors", checked in that
    order (so l = 0 on a curve is a zero-cycle); the dimensions in
    between have no closed form and are refused.
    """
    dim = space.dim
    if not 0 <= l <= dim:
        raise DomainError(f"cycle dimension l={l} outside 0..{dim}")
    if l == 0:
        return "zero-cycles"
    if l == dim:
        return "top-cycles"
    if l == dim - 1:
        return "divisors"
    raise UnsupportedDimension(
        f"no closed form for l={l} on {space.label()} (dim {dim})"
    )


def cycle_count(space: SpaceDescriptor, q: PrimePower, l: int, k: int) -> int:
    """Exact n_k: the number of effective l-dimensional cycles of degree k.

    Closed forms exist for l in {0, dim-1, dim}; anything in between is
    refused (use the enumeration oracle at tiny scale instead).
    """
    family = cycle_family(space, l)
    if family == "zero-cycles":
        return zero_cycle_count(space, q, k)
    if family == "top-cycles":
        return top_cycle_count(space, k)
    return divisor_count_by_degree(space, q, k)
