"""Executable counting bounds: the inductive combinator and pinned constants.

The central device is a *counting system*: a tower of sets T_{n0}..T_n with
height functions, two degree-nonincreasing projections, a fiber bound
A(s, t) monotone in both arguments, and a base-level bound B(h).  Chaining
the projections gives

    #{x in T_n : h_n(x) <= h}  <=  B(h)^(n-n0+1) * A(h, h)^(n-n0).

B and A overflow a float for modest towers (the divisor tower at h = 40
has B(h) = 41^2 2^1681), so a tower states log B and log A and the bound
is only ever formed as a sum of logs.

The explicit constants C(n, l) for projective space are *a* valid
resolution of the inductive chain, pinned once and for all:

    C(l, l) = 1,
    C(n, l) = C(n-1, l) + n^(l(l+1)) * C'(n, l),
    C'(n, 0) = 3n,
    C'(n, l) = n + (n-l) * (2^(l+1) + l + 2)       for l >= 1,

valid for every prime power q >= 2 and every h >= 1 (the additive n in
C' absorbs the 2^n subset factor, since log_q 2 <= 1).  They are upper
bounds only, checked against enumeration, and make no optimality claim.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, SizeCapExceeded
from .records import FrozenRecord
from .spaces import PrimePower


class CountingSystemSpec(FrozenRecord):
    """One instantiation of the inductive counting tower.

    ``log_B(h)`` is the log of a bound on the base-level count for
    h >= t0; ``log_A(s, t)`` is the log of a bound on each fiber of the
    paired projections and must be nondecreasing in both arguments.
    """

    __slots__ = ("n0", "n", "log_B", "log_A", "t0", "note")

    def __init__(self, n0: int, n: int, log_B: Callable[[float], float],
                 log_A: Callable[[float, float], float], t0: float = 0.0,
                 note: str = ""):
        super().__init__(n0, n, log_B, log_A, t0, note)
        if n < n0:
            raise DomainError(f"need n >= n0, got n={n}, n0={n0}")


def counting_system_log_bound(spec: CountingSystemSpec, h: float) -> float:
    """Natural log of the combinator bound B(h)^(n-n0+1) * A(h,h)^(n-n0).

    Raises ``SizeCapExceeded`` when even the log leaves the float range.
    """
    if not h >= spec.t0:
        raise DomainError(f"h={h} below threshold t0={spec.t0}")
    steps = spec.n - spec.n0
    try:
        value = (steps + 1) * spec.log_B(h) + steps * spec.log_A(h, h)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SizeCapExceeded(f"the log of the bound at h={h} exceeds the float range")
    return value


def divisor_tower_spec(q: PrimePower, n: int, l: int) -> CountingSystemSpec:
    """The tower counting l-cycles on (P^1)^n dominating a fixed (P^1)^l.

    Base level l+1 consists of divisors on (P^1)^(l+1) with all partial
    degrees at most h, bounded by (1+h)^(l+1) q^((1+h)^(l+1)); fibers of
    the paired pushforwards are bounded by q^(s*t).
    """
    if not 0 <= l < n:
        raise DomainError("need 0 <= l < n")
    qq = q.q

    log_q = math.log(qq)

    def log_B(h: float) -> float:
        return (l + 1) * math.log1p(h) + (1 + h) ** (l + 1) * log_q

    def log_A(s: float, t: float) -> float:
        return s * t * log_q

    return CountingSystemSpec(
        n0=l + 1, n=n, log_B=log_B, log_A=log_A, t0=0.0,
        note=f"l-cycles on (P1)^{n} over F_{qq}, l={l}",
    )


def arithmetic_divisor_tower_spec(
    lam: float, n: int, l: int, base_constant: float, pairing_degree: float
) -> CountingSystemSpec:
    """The arithmetic analogue of the divisor tower on products of P^1 over Z.

    Base level bounded by exp(base_constant * h^(l+1)); fibers bounded by
    exp(s*t / pairing_degree) where pairing_degree is the arithmetic
    degree of the polarization on the common base (lam for a point base).
    """
    if lam <= 0 or pairing_degree <= 0:
        raise DomainError("lam and pairing_degree must be positive")
    if not 1 <= l <= n:
        raise DomainError("need 1 <= l <= n")

    def log_B(h: float) -> float:
        return base_constant * h ** (l + 1)

    def log_A(s: float, t: float) -> float:
        return s * t / pairing_degree

    return CountingSystemSpec(
        n0=l, n=n, log_B=log_B, log_A=log_A, t0=1.0,
        note=f"horizontal l-cycles on (P1_Z)^{n}, lambda={lam}",
    )


def product_cycle_bound(
    deg_a_d: float, deg_b_e: float, deg_c: float, theta_d: int, theta_e: int
) -> float:
    """log_q bound on the cycles of a fiber product with both pushforwards fixed.

    min of the quadratic branch deg(D) deg(E) / deg(C)^2 and the component
    branch sqrt(theta(D) theta(E) deg(D) deg(E)) / deg(C), where theta
    counts irreducible components of the supports.
    """
    if deg_c <= 0:
        raise DomainError("base degree must be positive")
    if theta_d < 0 or theta_e < 0:
        raise DomainError("component counts must be >= 0")
    quad = deg_a_d * deg_b_e / deg_c ** 2
    comp = math.sqrt(theta_d * theta_e * deg_a_d * deg_b_e) / deg_c
    return min(quad, comp)


def pushforward_bound(deg_pi: int, mults) -> int:
    """log_2 of the bound on cycles with a fixed pushforward along a finite map.

    A degree-deg_pi finite map admits at most 2^(deg_pi * sum a_i)
    effective preimages of sum a_i Z_i; the returned value is the exponent.
    """
    mults = tuple(int(a) for a in mults)
    if deg_pi < 1:
        raise DomainError("map degree must be >= 1")
    if any(a < 1 for a in mults):
        raise DomainError("multiplicities must be >= 1")
    return deg_pi * sum(mults)


class ExplicitConstant(FrozenRecord):
    """A pinned constant with the audit trail of its recursion."""

    __slots__ = ("n", "l", "value", "derivation")

    def __init__(self, n: int, l: int, value: int, derivation: tuple[str, ...] = ()):
        super().__init__(n, l, value, derivation)

    def __repr__(self):  # the derivation is compared but not printed
        return f"ExplicitConstant(n={self.n!r}, l={self.l!r}, value={self.value!r})"


def prime_constant_p1_power(n: int, l: int) -> int:
    """C'(n, l): q-independent exponent constant for l-cycles on (P^1)^n."""
    if not 0 <= l <= n:
        raise DomainError("need 0 <= l <= n")
    if l == n:
        return 1
    if l == 0:
        return 3 * n
    return n + (n - l) * (2 ** (l + 1) + l + 2)


def explicit_constant_pn(n: int, l: int) -> ExplicitConstant:
    """Pinned constant C(n, l): l-cycle counts on P^n are <= q^(C h^(l+1)).

    Recursion over the boundary stratification, base C(l, l) = 1; valid
    for all h >= 1 and all q >= 2 as an upper bound.
    """
    if not 0 <= l <= n:
        raise DomainError(f"need 0 <= l <= n, got n={n}, l={l}")
    trail = [f"C({l},{l}) = 1  (top-dimensional base case)"]
    value = 1
    for m in range(l + 1, n + 1):
        cp = prime_constant_p1_power(m, l)
        step = m ** (l * (l + 1)) * cp
        trail.append(
            f"C({m},{l}) = C({m-1},{l}) + {m}^{l*(l+1)} * C'({m},{l})"
            f" = {value} + {m ** (l*(l+1))} * {cp} = {value + step}"
        )
        value += step
    return ExplicitConstant(n, l, value, tuple(trail))
