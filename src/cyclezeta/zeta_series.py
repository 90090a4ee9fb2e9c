"""Cycle zeta series, Euler products over primes, and abscissa estimates.

The degree-k count n_k of effective l-dimensional cycles enters the series
at exponent k^(l+1):

    Z(T) = sum_k n_k T^(k^(l+1)),

which converges for |q^C' T| < 1 once n_k <= q^(C' k^(l+1)).  Every
series reads its coefficients from one ``exact_counts.cycle_counts`` pass.
The only truncated series carrying a tail bound are the per-prime local
factors of the Euler products below.

The global object is the partial Euler product of the local zetas at
T = p^(-s).  For 0-cycles the local factor is exact: P^n is cellular, so
Z_p(T) = prod_{j=0}^{n} (1 - p^j T)^(-1), and the product over all primes
converges exactly for Re(s) > n + 1.  Its error covers rounding and the
primes above the cutoff, at most exp(b) - 1 relative with
b = sum_j pmax^(1+j-sigma) / ((sigma-j-1)(1 - (pmax+1)^(j-sigma))).
Top cycles and divisors multiply truncated local series, whose error also
covers the truncation, and are certified for Re(s) > C' + 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, repeat
from operator import mul, setitem, sub
from .errors import AuditMismatch, DomainError, RadiusError, SizeCapExceeded
from .exact_counts import cycle_counts, cycle_family
from .records import FrozenRecord
from .spaces import PrimePower, ProjSpace, SpaceDescriptor, primes_upto, top_degree

SPEC_Z_AUDIT_CAP = 10 ** 6
# Longest run of integers that one call may walk: the primes up to an
# Euler product's pmax, or the integers of a direct integer-spectrum sum.
# At 10^7 the odd-only sieve takes about 0.13 s, the whole 0-cycle
# product of P^2 about 0.3 s in 47 MB (mostly the list of 664 579
# primes), and the sum about 0.7 s (Python 3.11, one core of a 2-vCPU
# x86 VM); each grows linearly, so 10^9 would need gigabytes or minutes.
RANGE_CAP = 10 ** 7
# Most norms one list of the audited cycle walk holds (``_spec_z_norms``).
_NORM_CHUNK = 8192
_UNIT_ROUNDOFF = 2.0 ** -53
# Tail bound below which ``_series_euler_product`` truncates each local series.
_TAIL_TOL = 1e-12
# A growth constant C' with n_k <= q^(C' k^(l+1)) for all k >= 1 on P^n,
# per family, as a function of n: top-cycle counts are 0 or 1, and a
# divisor count is below q^D with D = C(n+k, n) <= (n+1) k^n.
_CPRIME_PN = {"top-cycles": lambda n: 0.0, "divisors": lambda n: n + 1.0}


class SparseSeries(FrozenRecord):
    """Exact truncated cycle zeta series with sparse exponents k^(l+1)."""

    _fields = ("space", "q", "l", "kmax", "coefficients")

    def __new__(cls, space: SpaceDescriptor, q: PrimePower, l: int, kmax: int,
                coefficients: tuple[int, ...]):  # n_0 .. n_kmax
        return tuple.__new__(cls, (space, q, l, kmax, coefficients))

    def exponent(self, k: int) -> int:
        return k ** (self.l + 1)


def local_zeta_series(
    space: SpaceDescriptor, q: PrimePower, l: int, kmax: int
) -> SparseSeries:
    """Exact truncation of the l-cycle zeta series up to degree kmax."""
    return SparseSeries(space, q, l, kmax, cycle_counts(space, q, l, kmax))


def _term_value(n_k: int, t, exponent: int):
    """n_k * t^exponent without big-int float overflow (real or complex t)."""
    if n_k == 0:
        return 0.0
    if n_k.bit_length() < 900:
        return n_k * t ** exponent
    if t == 0:  # p^(-s) underflowed
        return 0.0
    mag = math.log(n_k) + exponent * math.log(abs(t))
    if mag < -745.0:
        return 0.0
    if isinstance(t, complex):
        phase = exponent * math.atan2(t.imag, t.real)
        return math.exp(mag) * complex(math.cos(phase), math.sin(phase))
    sign = -1.0 if (t < 0 and exponent % 2) else 1.0
    return sign * math.exp(mag)


def _geometric_tail(rho: float, kmax: int, l: int) -> float:
    # sum over the exponents j >= (kmax+1)^(l+1) of rho^j, for 0 <= rho < 1;
    # a certified rho is at most 1/2, so rho^j is 0.0 for every j >= 1075
    # and the clamp keeps a huge int exponent from the float conversion
    return rho ** min((kmax + 1) ** (l + 1), 1075) / (1.0 - rho)


def _kmax_for_tail(rho: float, l: int, tol: float) -> int:
    if rho == 0.0:
        return 0
    need = math.log(tol * (1.0 - rho)) / math.log(rho)
    kmax = 0
    while (kmax + 1) ** (l + 1) < need:
        kmax += 1
    return kmax


def _growth(log_growth: float) -> float:
    """exp(g) - 1: the relative error of a product whose factors' relative
    errors have logarithms summing to at most g."""
    if log_growth >= 709.0:  # exp(g) overflows a float
        raise RadiusError(
            "Re(s) is too close to the abscissa for a finite error bound"
        )
    return math.expm1(log_growth)


def l_function_partial_with_error(n: int, l: int, s: complex, pmax: int):
    """Partial Euler product over p <= pmax of the local P^n cycle zetas.

    Returns the product and a bound on its distance to the product over
    all primes.  0-cycles multiply the exact cellular factors (see
    ``_cellular_euler_product``); top cycles and divisors multiply local
    series truncated where their tail bound is below ``_TAIL_TOL``.
    A negative ``pmax`` is refused, and 0 or 1 is the empty product;
    ``pmax`` above ``RANGE_CAP`` is refused before the sieve runs.
    """
    if n < 0:
        raise DomainError("ambient dimension must be >= 0")
    if pmax < 0:
        raise DomainError("pmax must be >= 0")
    if pmax > RANGE_CAP:
        raise SizeCapExceeded(
            f"pmax = {pmax} above {RANGE_CAP}: the prime sieve is refused"
        )
    s = complex(s)
    if l == 0:
        return _cellular_euler_product(n, s, pmax)
    return _series_euler_product(n, l, s, pmax)


def _cellular_euler_product(n: int, s: complex, pmax: int):
    """The 0-cycle Euler product of P^n over p <= pmax, and its error.

    P^n has one cell in each dimension j, so its local 0-cycle zeta is
    Z_p(T) = prod_{j=0}^{n} (1 - p^j T)^(-1), and at T = p^(-s) each
    prime contributes n + 1 exact factors 1 - p^(j-s); the product of
    all of them is inverted once at the end.

    With sigma = Re(s) and x = p^(j-sigma), |log(1 - p^(j-s))| is at most
    x/(1 - x), so the primes above pmax change the product by a factor
    within exp(b) - 1 of 1, where b sums, over j, the integral bound
    pmax^(1+j-sigma) / ((sigma-j-1)(1 - (pmax+1)^(j-sigma))) on the sum
    of x/(1 - x) over the integers above pmax.  b is finite exactly when
    sigma > n + 1, the abscissa of the product; smaller sigma is refused.

    Rounding, with u = 2^-53: each computed p^(j-s) has relative error at
    most eta (below), which 1 - x magnifies by x/(1 - x); the subtraction
    and the complex multiplication add at most u and sqrt(5)u.  Over
    p <= pmax the sum of x/(1 - x) is at most
    (2^-a + 2^(1-a)/(a-1)) / (1 - 2^-a) for a = sigma - j, since x/(1 - x)
    is largest at p = 2 and the sum of m^-a over m >= 2 is at most 2^-a
    plus the integral from 2.  Joining the n + 1 products costs 3u per
    multiplication and the final inversion at most 16u.  The sum of these
    relative errors is doubled to cover their second-order terms.

    A real s that is not an integer is multiplied out in floats, with the
    bits of the complex arithmetic: Python's complex power of p > 0 to an
    exponent with zero imaginary part and a non-integral real part has
    zero phase and returns libm's pow(p, j - sigma) as its real part (and
    0 as its imaginary part), complex products of numbers with zero
    imaginary parts reduce to the float products, and (1+0j)/(d+0j) is
    1/d.  An integral sigma keeps the complex arithmetic, whose power takes
    integral exponents up to 100 by binary powering instead of libm pow.
    """
    sigma = s.real
    if sigma <= n + 1:
        raise RadiusError(
            f"Re(s) = {sigma} <= {n + 1}: the 0-cycle Euler product of P^{n} "
            "is not certified (it converges for Re(s) > n + 1 only)"
        )
    u = _UNIT_ROUNDOFF
    # libm pow and log are within one ulp (2u); a complex power adds the
    # error of its phase Im(s) log p, and an integral exponent e with
    # |e| <= 100 is taken by binary powering, within (|e| + 1)u
    phase = 3.0 * abs(s.imag) * math.log(max(pmax, 2)) * u
    if phase > 2.0 ** -20:
        raise DomainError(
            f"|Im(s)| = {abs(s.imag)} is too large for a rounding bound"
        )
    primes = primes_upto(pmax)
    if s.imag == 0 and not sigma.is_integer():
        one, t = 1.0, sigma
    else:
        one, t = complex(1.0), s
    denominator = one
    for j in range(n + 1):
        denominator *= math.prod(map(sub, repeat(one), map(pow, primes, repeat(j - t))))
    value = complex(1.0 / denominator)
    above = max(pmax, 1)
    rounding = (4 * (n + 1) * len(primes) + 3 * n + 16) * u
    tail = 0.0
    for j in range(n + 1):
        a = sigma - j
        x2 = 2.0 ** -a
        eta = (6.0 + a) * u + phase
        rounding += eta * (x2 + 2.0 * x2 / (a - 1.0)) / (1.0 - x2)
        tail += above ** (1.0 - a) / ((a - 1.0) * (1.0 - (above + 1.0) ** -a))
    return value, abs(value) * _growth(2.0 * rounding + tail)


def _series_euler_product(n: int, l: int, s: complex, pmax: int):
    """The Euler product of the top-cycle or divisor zetas of P^n.

    Each local factor is a truncated series at T = p^(-s) whose tail bound
    is below ``_TAIL_TOL``; the factors are multiplied in ascending prime
    order.  The returned error bounds the distance to the product over all
    primes: |value| * (prod (1 + eps_i) - 1), where the eps_i are the
    relative errors of the computed factors (tail bound plus a rounding
    allowance) and of the product over the primes above pmax.

    With sigma = Re(s) and C' the growth constant, n_0 = 1 and
    n_k <= p^(C' k^(l+1)) give |Z_p(p^(-s)) - 1| <= x_p/(1 - x_p) for
    x_p = p^(C' - sigma).  Summed over the integers m > pmax this is at
    most b = pmax^(1 + C' - sigma) / ((sigma - C' - 1)(1 - x_(pmax+1))),
    and the product over those primes is within exp(b) - 1 of 1.  The
    bound is finite only for sigma > C' + 1; smaller sigma is refused.

    The family is resolved first, so ``cycle_family`` refuses any other
    l.  Top-cycle counts do not depend on p and are built once, to the
    longest truncation (the one at p = 2); divisor counts (p^D - 1)/(p - 1)
    read the form dimensions D = C(n+k, n), also listed once.
    """
    space = ProjSpace(n)
    family = cycle_family(space, l)
    cprime = _CPRIME_PN[family](n)
    excess = s.real - cprime
    if excess <= 1.0:
        raise RadiusError(
            f"Re(s) = {s.real} <= growth constant {cprime} + 1: "
            "the Euler product is not certified"
        )
    step = l + 1
    primes = primes_upto(pmax)

    def truncation(p, log_p):
        t = complex(p) ** (-s)
        try:
            rho = abs(t) * math.exp(cprime * log_p)
        except OverflowError:  # p^C' passes the float range; rho = p^(C' - sigma)
            rho = p ** (cprime - s.real)
        return t, rho, _kmax_for_tail(rho, l, _TAIL_TOL)

    longest = truncation(2, math.log(2))[2] if primes else 0
    if family == "top-cycles":
        top = cycle_counts(space, PrimePower(2), l, longest)

        def counts(p, kmax):
            return top[:kmax + 1]
    else:
        dims = [math.comb(n + k, n) for k in range(longest + 1)]

        def counts(p, kmax):
            return [(p ** d - 1) // (p - 1) for d in dims[:kmax + 1]]

    value = complex(1.0, 0.0)
    log_growth = 0.0  # sum of log(1 + eps_i)
    abs_s = abs(s)
    for p in primes:
        log_p = math.log(p)
        t, rho, kmax = truncation(p, log_p)
        # rounding allowance: each term n_k t^e is a power with relative
        # error growing like e * |s| log p, and the sum adds kmax ulps
        weight = 1.0 + abs_s * log_p
        factor = complex(0.0, 0.0)
        noise = 0.0
        for k, n_k in enumerate(counts(p, kmax)):
            e = k ** step
            term = _term_value(n_k, t, e)
            factor += term
            noise += abs(term) * (8.0 * (1.0 + e * weight) + kmax + 1)
        bound = _geometric_tail(rho, kmax, l) + _UNIT_ROUNDOFF * noise
        value *= factor
        eps = bound / max(abs(factor) - bound, 1e-300) + 4.0 * _UNIT_ROUNDOFF
        log_growth += math.log1p(eps)
    above = max(pmax, 1)
    x = float(above + 1) ** -excess
    log_growth += above ** (1.0 - excess) / ((excess - 1.0) * (1.0 - x))
    return value, abs(value) * _growth(log_growth)


# ---------------------------------------------------------------------------
# the integer-ring specialization
# ---------------------------------------------------------------------------

def _spec_z_norms(cutoff: int):
    """The norm of every effective 0-cycle of norm <= cutoff, once each,
    in nonempty lists of at most ``_NORM_CHUNK`` norms.

    A cycle is a nondecreasing sequence of primes (with multiplicity),
    walked depth-first on an explicit stack: a node is the norm of a cycle
    and the index of its largest prime; its children append one prime no
    smaller than that, multiplying the norm by it.  Children whose own
    children would pass the cutoff are leaves.  A node's leaves come out
    in slices of at most ``_NORM_CHUNK`` primes, each multiplied by the
    node's norm in one C-level ``map``; its other children, the branches
    (at most pi(isqrt(cutoff)) of them, 168 at the audit cap), come out as
    one list and are pushed only after it has been consumed, so every norm
    is listed before the walk divides the cutoff by it.
    """
    primes = primes_upto(cutoff)
    yield [1]
    stack = [(1, 0)]
    while stack:
        norm, lo = stack.pop()
        room = cutoff // norm  # children p <= room; p <= isqrt(room) branch
        inner = bisect_right(primes, math.isqrt(room), lo)
        top = bisect_right(primes, room, inner)
        for a in range(inner, top, _NORM_CHUNK):
            yield list(map(mul, repeat(norm), primes[a:min(a + _NORM_CHUNK, top)]))
        if lo < inner:
            branches = list(map(mul, repeat(norm), primes[lo:inner]))
            yield branches
            stack.extend(zip(branches, range(lo, inner)))


def _audited_norms(chunks, cutoff: int):
    """Yield each list of norms of the cycle walk, checking that the norm
    map is a bijection onto 1..cutoff.

    Each list is checked in bulk before it is passed on: its least and
    largest norms must lie in 1..cutoff, and each of its norms marks its
    own byte of a table, in one C-level ``map``.  When the lists run out,
    the norms must number exactly cutoff and have marked cutoff distinct
    bytes: so no norm repeats and every integer of 1..cutoff is hit.
    """
    seen = bytearray(cutoff + 1)
    count = 0
    for chunk in chunks:
        low, high = min(chunk), max(chunk)
        if low < 1 or high > cutoff:
            raise AuditMismatch(
                f"norm {low if low < 1 else high} of the cycle walk is outside 1..{cutoff}"
            )
        count += len(chunk)
        any(map(setitem, repeat(seen), chunk, repeat(1)))  # setitem returns None
        yield chunk
    hits = seen.count(1)
    if count != cutoff or hits != cutoff:
        raise AuditMismatch(
            f"norm map hits {hits} of the {cutoff} integers 1..{cutoff} "
            f"with {count} norms"
        )


def spec_z_zeta_partial(s: float, cutoff: int, audit: bool = False) -> float:
    """Partial zeta sum over effective 0-cycles of the integer spectrum.

    The norm bijection cycles <-> positive integers turns the cycle sum
    into sum_{m <= cutoff} m^(-s).  Audit mode walks the cycles, each
    carrying its norm, streams the walk's lists of norms through a bulk
    check that they are 1..cutoff once each and sums the norms they hold,
    up to ``SPEC_Z_AUDIT_CAP``; it never reads the direct sum, and holds
    one list of at most ``_NORM_CHUNK`` norms at a time, never all of
    them.  Fast mode sums the integers directly, up to ``RANGE_CAP``.
    Larger cutoffs raise ``SizeCapExceeded``.  Both take each term as one
    libm pow, and ``fsum`` is exactly rounded, so both modes give the same
    float.
    """
    if s <= 1:
        raise DomainError("need s > 1 for convergence")
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    if audit:
        if cutoff > SPEC_Z_AUDIT_CAP:
            raise SizeCapExceeded(f"audit cutoff capped at {SPEC_Z_AUDIT_CAP}")
        chunks = _audited_norms(_spec_z_norms(cutoff), cutoff)
        return math.fsum(map(pow, chain.from_iterable(chunks), repeat(-s)))
    if cutoff > RANGE_CAP:
        raise SizeCapExceeded(
            f"cutoff = {cutoff} above {RANGE_CAP}: the direct sum is refused"
        )
    return math.fsum(map(pow, range(1, cutoff + 1), repeat(-s)))


def spec_z_zeta_partial_with_error(s: float, cutoff: int, audit: bool = False):
    """``spec_z_zeta_partial`` and a bound on its rounding error.

    With u = 2^-53: each term m^(-s) is one libm pow, within one ulp (2u
    relative), so the terms' errors add to at most 2u of the sum, and
    ``fsum`` rounds the sum of the float terms once, within u.  4u of the
    computed value covers both with room for their second-order terms.
    """
    value = spec_z_zeta_partial(s, cutoff, audit)
    return value, 4.0 * _UNIT_ROUNDOFF * value


# ---------------------------------------------------------------------------
# abscissa of convergence
# ---------------------------------------------------------------------------

class AbscissaReport(FrozenRecord):
    """log_q(n_k) / k^(l+1) for k = 1..kmax, with the predicted limit."""

    _fields = ("space", "q", "l", "values", "predicted_limit")

    def __new__(cls, space: SpaceDescriptor, q: PrimePower, l: int,
                values: tuple[float, ...], predicted_limit: float | None):
        return tuple.__new__(cls, (space, q, l, values, predicted_limit))

    def value(self, k: int) -> float:
        return self.values[k - 1]


def abscissa_sequence(
    space: SpaceDescriptor, q: PrimePower, l: int, kmax: int
) -> AbscissaReport:
    """Normalized log-counts whose limsup is the abscissa of convergence.

    The predicted limit 1/(deg^(dim-1) * dim!) with deg the top
    self-intersection of the polarization applies to l = dim - 1; for
    other l the sequence is reported without a prediction.
    """
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    logq = math.log(q.q)
    counts = cycle_counts(space, q, l, kmax)
    values = [
        math.log(n_k) / (k ** (l + 1) * logq) if n_k > 0 else -math.inf
        for k, n_k in enumerate(counts[1:], start=1)
    ]
    limit = None
    dim = space.dim
    if l == dim - 1:
        deg = top_degree(space)
        limit = 1.0 / (deg ** (dim - 1) * math.factorial(dim))
    return AbscissaReport(space, q, l, tuple(values), limit)
