"""Ambient spaces and finite-field parameters.

Three kinds of polarized ambient spaces are supported:

* ``ProjSpace(n)``   -- projective n-space, polarized by O(1);
* ``P1Power(n)``     -- the n-fold product of projective lines, polarized by
  O(1, ..., 1);
* ``Product(a, b)``  -- a binary product of supported spaces, polarized by
  the tensor product of the pullbacks of the factor polarizations.

Descriptors are immutable values; the polarization is implicit in the kind,
so a descriptor is all a counting function needs.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress

from .errors import DomainError, SizeCapExceeded
from .records import FrozenRecord


# Deterministic Miller-Rabin: below each bound, the strong-probable-prime
# test to the listed bases admits no composite.  The bounds are the least
# strong pseudoprimes to all those bases: psi_4 (Pomerance, Selfridge and
# Wagstaff, Math. Comp. 1980), psi_12 and psi_13 (Sorenson and Webster,
# Math. Comp. 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASES = (
    (3_215_031_751, _SMALL_PRIMES[:4]),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)
PRIME_CAP = _MR_BASES[-1][0]

# Largest exact result, in bits of memory, that a closed form of
# ``exact_counts`` may build: one divisor count, or a whole sequence
# n_0..n_kmax (256 KiB), or the cell counts a 0-cycle series reads.
BIT_CAP = 1 << 21


# The odd-number flags of the most recent ``primes_upto`` sieve: byte i is
# 1 exactly when 2i + 1 is prime, for every odd 2i + 1 up to its limit.  A
# sieve is a proof, so ``is_prime`` reads it for the n it covers (every
# n < 2 len(_sieve_flags), the even ones being prime only at 2) instead of
# proving them again.
_sieve_flags = bytearray()


def primes_upto(limit: int) -> list[int]:
    """The primes p <= limit in ascending order, by the sieve of Eratosthenes.

    Only odd numbers are sieved, so the table is half the limit in bytes
    (5 MB at 10^7).  Its flags replace the prime table that ``is_prime``
    reads, so the primes returned here are never re-proven by Miller-Rabin.
    """
    global _sieve_flags
    if limit < 2:
        return []
    size = (limit + 1) // 2  # the odd numbers 1, 3, .., <= limit
    odd = bytearray([1]) * size
    odd[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            # p^2 has index p^2 // 2, and its odd multiples p^2 + 2p, ... follow p apart
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, size, p)))
    _sieve_flags = odd
    return [2, *compress(range(1, limit + 1, 2), odd)]


def is_prime(n: int) -> bool:
    """Deterministic primality: the latest sieve's table, else Miller-Rabin.

    n below twice the length of the table of the most recent
    ``primes_upto`` call is read from it (an odd n from its flag, an even
    n is prime iff n == 2); any other n is tested by Miller-Rabin on
    proven base sets, exact for every n below ``PRIME_CAP`` (about
    3.3e24).  Larger n are refused with ``SizeCapExceeded`` rather than
    answered probabilistically.
    """
    if 0 <= n < 2 * len(_sieve_flags):
        return _sieve_flags[n >> 1] == 1 if n & 1 else n == 2
    if n >= PRIME_CAP:
        raise SizeCapExceeded(
            f"primality is only proven below {PRIME_CAP}, got {n.bit_length()} bits"
        )
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if n % 2 == 0:
        return False
    bases = next(b for bound, b in _MR_BASES if n < bound)
    d = n - 1
    r = (d & -d).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d >>= r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimePower(FrozenRecord):
    """A finite-field order q = p^e, kept as the exact pair (p, e)."""

    __slots__ = ("p", "e")

    def __init__(self, p: int, e: int = 1):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if e < 1:
            raise DomainError(f"exponent e = {e} must be >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.e

    def __str__(self) -> str:
        return str(self.q) if self.e == 1 else f"{self.p}^{self.e}"


class SpaceDescriptor(FrozenRecord):
    """Base class for ambient-space descriptors.

    A subclass states its ``slots``, one per factor: ``("p1",)`` for a
    projective line, ``("pn", n)`` for P^n.  A divisor multidegree has one
    entry per slot, and all else read from a space is derived from them.
    """

    __slots__ = ()

    @property
    def slots(self) -> tuple[tuple, ...]:
        raise NotImplementedError

    @property
    def slot_dims(self) -> tuple[int, ...]:
        return tuple(1 if slot == ("p1",) else slot[1] for slot in self.slots)

    @property
    def dim(self) -> int:
        return sum(self.slot_dims)

    def label(self) -> str:
        raise NotImplementedError


class ProjSpace(SpaceDescriptor):
    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__(n)
        if n < 0:
            raise DomainError("projective space dimension must be >= 0")

    @property
    def slots(self) -> tuple[tuple, ...]:
        return (("pn", self.n),)

    def label(self) -> str:
        return f"P{self.n}"


class P1Power(SpaceDescriptor):
    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__(n)
        if n < 0:
            raise DomainError("number of P1 factors must be >= 0")

    @property
    def slots(self) -> tuple[tuple, ...]:
        return (("p1",),) * self.n

    def label(self) -> str:
        return f"(P1)^{self.n}"


class Product(SpaceDescriptor):
    __slots__ = ("left", "right")

    def __init__(self, left: SpaceDescriptor, right: SpaceDescriptor):
        super().__init__(left, right)

    @property
    def slots(self) -> tuple[tuple, ...]:
        return self.left.slots + self.right.slots

    def label(self) -> str:
        return f"{self.left.label()}x{self.right.label()}"


def top_degree(space: SpaceDescriptor) -> int:
    """Degree of the ambient polarization on the whole space.

    This is the top self-intersection number of the polarization, the
    multinomial dim! / prod n_i! over the factors P^(n_i): 1 on P^n and
    n! on (P^1)^n.  It is the degree step of top-dimensional cycles a*[X].
    """
    dims = sorted(space.slot_dims)
    largest = dims.pop() if dims else 0
    # dim!/largest! as one falling factorial, so P^n builds no n!
    return math.perm(space.dim, space.dim - largest) // math.prod(map(math.factorial, dims))


def as_p1_power(space: SpaceDescriptor) -> int | None:
    """Return n if the space is an n-fold product of projective lines."""
    dims = space.slot_dims
    return len(dims) if all(n == 1 for n in dims) else None


def product_factor(space: SpaceDescriptor, which: str) -> tuple[SpaceDescriptor, slice]:
    """The factor ``which`` ("first" or "second") of a binary ``Product``,
    with the slice of the product's slots, and so of a point's coordinate
    blocks, that belongs to it."""
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    if not isinstance(space, Product):
        raise DomainError(f"{space.label()} is not a Product: it has no factors")
    split = len(space.left.slots)
    if which == "first":
        return space.left, slice(None, split)
    return space.right, slice(split, None)


def cell_counts(space: SpaceDescriptor) -> tuple[int, ...]:
    """b_0..b_dim: the number of j-dimensional cells of the space.

    P^n has one cell in each dimension 0..n, so b_j is the t^j coefficient
    of the product of 1 + t + ... + t^n over the factors.
    """
    b = [1]
    for n in space.slot_dims:
        # times 1 + ... + t^n = (1 - t^(n+1)) / (1 - t): a running sum
        b = list(accumulate(x - y for x, y in zip(b + [0] * n, [0] * (n + 1) + b)))
    return tuple(b)


def parse_space(kind: str, n: int) -> SpaceDescriptor:
    """Build a descriptor from the CLI tokens ``pn`` / ``p1xn``."""
    kind = kind.lower()
    if kind in ("pn", "proj", "projective"):
        return ProjSpace(n)
    if kind in ("p1xn", "p1power", "p1"):
        return P1Power(n)
    raise DomainError(f"unknown space kind {kind!r} (use 'pn' or 'p1xn')")
