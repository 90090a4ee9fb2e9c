"""Closed-form exact counts of effective cycles.

Three families have closed forms:

* divisors (codimension one) on products of projective lines and on
  projective space, counted through the linear systems they span:
  nonzero forms modulo scalars give (q^dim - 1)/(q - 1) divisors;
* zero-cycles, whose degree-k count is the T^k coefficient of the
  cellular zeta function prod_j (1 - q^j T)^(-b_j), where b_j counts
  the j-dimensional cells (``spaces.cell_counts``);
* top-dimensional cycles a * [X], which exist exactly when the degree is
  a multiple of the top self-intersection of the polarization.

``cycle_family`` is the one place that maps a cycle dimension l to its
family, and ``polarization_multidegrees`` the one place that fixes the
degree convention for divisors.  Intermediate dimensions 0 < l < dim - 1
have no closed form and are refused; the brute-force enumerator in
``cycle_oracle`` is the only route there, under its own size caps.  Each
closed form is paired with its oracle in ``cycle_oracle.AUDITS``.

``cycle_counts`` returns a whole sequence n_0..n_kmax in one pass (one
cell product for 0-cycles), which is what the zeta series read;
``cycle_count`` answers a single degree.  Nothing is cached between
calls.  Results whose size is provably above ``BIT_CAP`` bits (one count,
or a whole 0-cycle or divisor sequence) are refused with
``SizeCapExceeded`` before they are built, and so is a 0-cycle series
whose cell counts need more than ``BIT_CAP`` bits or whose cell product
is estimated at more than ``_CELL_WORK_CAP`` bit operations.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, groupby
from operator import mul

from .errors import DomainError, SizeCapExceeded, UnsupportedDimension
from .spaces import (
    BIT_CAP,
    PrimePower,
    SpaceDescriptor,
    as_p1_power,
    cell_counts,
    top_degree,
)

MultiDegree = tuple[int, ...]

# a CPython int object takes at least 24 bytes besides its digits
_INT_HEADER_BITS = 192

# Largest estimated work of one 0-cycle cell product, in bit operations
# (see ``_zero_cycle_counts``).  Measured at 0.02-0.09 ns a bit operation
# on one core of a 2-vCPU host under Python 3.11, so at most about 5 s.
_CELL_WORK_CAP = 1 << 36


def _check_multidegree(e) -> MultiDegree:
    e = tuple(int(x) for x in e)
    if any(x < 0 for x in e):
        raise DomainError(f"multidegree entries must be >= 0, got {e}")
    return e


def _form_dimension(space: SpaceDescriptor, e: MultiDegree) -> int:
    """Dimension of the multihomogeneous forms of multidegree e."""
    dims = space.slot_dims
    if len(e) != len(dims):
        raise DomainError(
            f"multidegree length {len(e)} != {len(dims)} slots of {space.label()}"
        )
    return math.prod(math.comb(n + k, n) for n, k in zip(dims, e))


def divisor_count(space: SpaceDescriptor, q: PrimePower, e) -> int:
    """Divisors of exact multidegree e on any supported space.

    The multihomogeneous forms of multidegree e make a space whose
    dimension is the product of the per-slot form dimensions; divisors
    are nonzero forms modulo scalars.
    """
    e = _check_multidegree(e)
    dim = _form_dimension(space, e)
    _check_count_bits(e, dim, q)
    return (q.q ** dim - 1) // (q.q - 1)


def _check_count_bits(e: MultiDegree, dim: int, q: PrimePower) -> None:
    # clamping dim keeps a huge int out of float arithmetic; log2 q >= 1
    if min(dim, BIT_CAP + 1) * math.log2(q.q) > BIT_CAP:
        raise SizeCapExceeded(
            f"divisor count of multidegree {e} needs more than {BIT_CAP} bits"
        )


def _zero_cycle_counts(space: SpaceDescriptor, q: PrimePower, kmax: int) -> tuple[int, ...]:
    # c_0..c_kmax of prod_j (1 - q^j T)^(-b_j), b_j the number of j-cells.
    # The one top cell gives the factor 1/(1 - q^dim T), so
    # c_k >= q^(dim k): c_k takes at least dim*k*log2(q) bits besides its
    # int header.  No b_j exceeds the prod (n_i + 1) cells of the space.
    k = min(kmax, BIT_CAP)
    log_q, log_cells = math.log2(q.q), sum(math.log2(n + 1) for n in space.slot_dims)
    series_bits = (k + 1) * _INT_HEADER_BITS + space.dim * log_q * k * (k + 1) / 2
    cell_bits = (space.dim + 1) * (_INT_HEADER_BITS + log_cells)
    if max(series_bits, cell_bits) > BIT_CAP:
        raise SizeCapExceeded(
            f"0-cycle series to degree {kmax} on {space.label()} needs more "
            f"than {BIT_CAP} bits"
        )
    cells = cell_counts(space)
    # Per cell dimension j the product makes kmax + 1 updates and
    # min(b_j, i) multiply-adds at degree i, on counts of at most
    # kmax * (dim log2 q + log2 prod (n_i + 1)) bits.  A multiply-add by a
    # binomial C(b_j, t) of a bits costs about sqrt(1 + a/64) updates.
    updates = 0.0
    for b in cells:
        m = min(b, kmax)
        a = min(b, m * math.log2(b + 1))
        updates += kmax + 1 + (m * kmax - m * (m - 1) // 2) * math.sqrt(1 + a / 64)
    work = updates * kmax * (space.dim * log_q + log_cells)
    if work > _CELL_WORK_CAP:
        raise SizeCapExceeded(
            f"0-cycle series to degree {kmax} on {space.label()} needs about "
            f"{work:.1e} bit operations, above {_CELL_WORK_CAP:.1e}"
        )
    # From the top cell down, W_j(T) = W_(j+1)(qT) / (1 - T)^(b_j) is the
    # product over the cells of dimension >= j with q^j T replaced by T;
    # W_0 is the series, and T -> qT scales c_i by q^i.
    powers = list(accumulate([1] + [q.q] * kmax, mul))
    c = [1] + [0] * kmax
    for j in range(space.dim, -1, -1):
        # h = c (1 - T)^(-b), from (1 - T)^b h = c:
        # h_i = c_i - sum_t (-1)^t C(b, t) h_(i-t)
        b = cells[j]
        poly = [(-1) ** t * math.comb(b, t) for t in range(1, min(b, kmax) + 1)]
        back = -len(poly) - 1
        h = []
        for x in c:
            h.append(x - sum(map(mul, poly, h[:back:-1])))
        c = list(map(mul, h, powers)) if j else h
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
    if space.slots == (("pn", space.dim),) and space.dim >= 1:
        return [(k,)]
    n = as_p1_power(space)
    if n is not None and n >= 1:
        step = math.factorial(n - 1)
        return list(_compositions(k // step, n)) if k % step == 0 else []
    raise UnsupportedDimension(
        f"no closed-form divisor count on {space.label()}"
    )


def _partitions(total: int, parts: int, top: int):
    # the nonincreasing tuples of `parts` entries in 0..top summing to total
    if parts == 1:
        if total <= top:
            yield (total,)
        return
    for first in range(min(total, top), -(-total // parts) - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _orderings(parts: tuple[int, ...]) -> int:
    # distinct orderings of a nonincreasing tuple: a multinomial coefficient
    count = math.factorial(len(parts))
    for _, run in groupby(parts):
        count //= math.factorial(len(tuple(run)))
    return count


def _multidegree_classes(space: SpaceDescriptor, k: int) -> list[tuple[MultiDegree, int]]:
    """The divisor multidegrees of polarization degree k up to reordering,
    each with its number of distinct orderings.

    On (P^1)^n the form dimension prod (e_i + 1) does not see the order of
    the parts, so each multiset of parts stands for all its orderings;
    other spaces list every multidegree once.
    """
    n = as_p1_power(space)
    if n is None or n < 1:
        return [(e, 1) for e in polarization_multidegrees(space, k)]
    if k < 0:
        raise DomainError("degree k must be >= 0")
    step = math.factorial(n - 1)
    if k % step:
        return []
    total = k // step
    return [(e, _orderings(e)) for e in _partitions(total, n, total)]


def divisor_count_by_degree(space: SpaceDescriptor, q: PrimePower, k: int) -> int:
    """Exact number of effective divisors of polarization degree k.

    The sum of (q^D - 1)/(q - 1) over the multidegrees, with D the form
    dimension, is formed as (sum w_D q^D - sum w_D)/(q - 1), where w_D
    counts the multidegrees of dimension D.  The power sum runs by Horner's
    rule from the largest D down, so no full-size power is built per term.
    """
    weights = Counter()
    for e, orderings in _multidegree_classes(space, k):
        dim = _form_dimension(space, e)
        _check_count_bits(e, dim, q)
        weights[dim] += orderings
    powers = 0
    last = max(weights, default=0)
    for dim in sorted(weights, reverse=True):
        powers = powers * q.q ** (last - dim) + weights[dim]
        last = dim
    powers *= q.q ** last
    return (powers - sum(weights.values())) // (q.q - 1)


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


def _largest_form_dimension(space: SpaceDescriptor, k: int) -> int | None:
    """The largest form dimension among the divisor multidegrees of
    polarization degree k, or None when there are none.

    On (P^1)^n the dimension prod (e_i + 1) over the compositions of
    s = k/(n-1)! is largest at the balanced one: with (a, r) = divmod(s, n),
    r parts a + 1 and n - r parts a.
    """
    n = as_p1_power(space)
    if n is None or space.slots == (("pn", space.dim),):
        # P^n has the single multidegree (k,); other spaces are refused
        dims = [_form_dimension(space, e) for e in polarization_multidegrees(space, k)]
        return max(dims, default=None)
    step = math.factorial(n - 1)
    if k % step:
        return None
    a, r = divmod(k // step, n)
    return (a + 2) ** r * (a + 1) ** (n - r)


def _divisor_counts(space: SpaceDescriptor, q: PrimePower, kmax: int) -> tuple[int, ...]:
    # n_k >= q^(D - 1) for the largest form dimension D of degree k, so
    # the sequence needs at least the bits summed here; they are summed
    # degree by degree, so an oversized kmax stops at the first k past
    # the cap
    bits = 0.0
    for k in range(kmax + 1):
        dim = _largest_form_dimension(space, k)
        if dim is not None:
            bits += _INT_HEADER_BITS + (min(dim, BIT_CAP + 1) - 1) * math.log2(q.q)
        if bits > BIT_CAP:
            raise SizeCapExceeded(
                f"divisor counts to degree {kmax} on {space.label()} need more "
                f"than {BIT_CAP} bits"
            )
    return tuple(divisor_count_by_degree(space, q, k) for k in range(kmax + 1))


def cycle_counts(space: SpaceDescriptor, q: PrimePower, l: int, kmax: int) -> tuple[int, ...]:
    """Exact n_0..n_kmax for the l-dimensional cycles, in one pass.

    The family is resolved once; 0-cycles multiply the cell factors once
    up to kmax instead of once per degree.
    """
    if kmax < 0:
        raise DomainError("kmax must be >= 0")
    family = cycle_family(space, l)
    if family == "zero-cycles":
        return _zero_cycle_counts(space, q, kmax)
    if family == "top-cycles":
        # one int per degree: the headers alone bound the sequence
        if (kmax + 1) * _INT_HEADER_BITS > BIT_CAP:
            raise SizeCapExceeded(
                f"top-cycle counts to degree {kmax} on {space.label()} need "
                f"more than {BIT_CAP} bits"
            )
        step = top_degree(space)
        return tuple(0 if k % step else 1 for k in range(kmax + 1))
    return _divisor_counts(space, q, kmax)


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
