"""Cycle zeta series, Euler products over primes, and abscissa estimates.

The degree-k count n_k of effective l-dimensional cycles enters the series
at exponent k^(l+1):

    Z(T) = sum_k n_k T^(k^(l+1)),

which converges for |q^C' T| < 1 once n_k <= q^(C' k^(l+1)).  Every
series reads its coefficients from one ``exact_counts.cycle_counts`` pass.
Truncations carry a rigorous geometric tail bound; the global object is
the partial Euler product of the local series at T = p^(-s), whose error
covers the truncated factors, the primes above the cutoff and rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from .errors import AuditMismatch, DomainError, RadiusError, UnsupportedDimension
from .exact_counts import cycle_counts
from .spaces import PrimePower, ProjSpace, SpaceDescriptor, primes_upto, top_degree

SPEC_Z_AUDIT_CAP = 10 ** 6
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class SparseSeries:
    """Exact truncated cycle zeta series with sparse exponents k^(l+1)."""

    space: SpaceDescriptor
    q: PrimePower
    l: int
    kmax: int
    coefficients: tuple[int, ...]  # n_0 .. n_kmax

    @property
    def terms(self) -> dict[int, int]:
        step = self.l + 1
        return {k ** step: c for k, c in enumerate(self.coefficients)}

    def exponent(self, k: int) -> int:
        return k ** (self.l + 1)


@dataclass(frozen=True)
class TailBound:
    """Geometric tail bound for a truncated series at |q^cprime * t| = rho."""

    cprime: float
    rho: float
    bound: float


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
    mag = math.log(n_k) + exponent * math.log(abs(t))
    if mag < -745.0:
        return 0.0
    if isinstance(t, complex):
        phase = exponent * math.atan2(t.imag, t.real)
        return math.exp(mag) * complex(math.cos(phase), math.sin(phase))
    sign = -1.0 if (t < 0 and exponent % 2) else 1.0
    return sign * math.exp(mag)


def tail_bound(series: SparseSeries, t, cprime: float) -> TailBound:
    """Rigorous bound on the dropped tail, assuming n_k <= q^(cprime k^(l+1))."""
    rho = abs(t) * math.exp(cprime * math.log(series.q.q))
    if rho >= 1.0:
        raise RadiusError(
            f"|q^cprime * t| = {rho:.6g} >= 1: outside the certified radius"
        )
    return TailBound(cprime, rho, _geometric_tail(rho, series.kmax, series.l))


def _geometric_tail(rho: float, kmax: int, l: int) -> float:
    # sum over the exponents j >= (kmax+1)^(l+1) of rho^j, for 0 <= rho < 1
    return rho ** ((kmax + 1) ** (l + 1)) / (1.0 - rho)


def eval_with_tail(series: SparseSeries, t, cprime: float):
    """Partial sum of the series at t plus the geometric tail bound.

    ``cprime`` must be a growth constant actually valid for the series'
    coefficients (see ``default_cprime_pn``); the tail bound is only as
    rigorous as that hypothesis.
    """
    tb = tail_bound(series, t, cprime)
    step = series.l + 1
    value = 0.0
    for k, n_k in enumerate(series.coefficients):
        value += _term_value(n_k, t, k ** step)
    return value, tb


def default_cprime_pn(n: int, l: int) -> float:
    """A growth constant valid for all k >= 1 on P^n, per cycle dimension.

    l = n: counts are 0/1.  l = 0: n_k <= (k+1)^n q^(nk) <= q^(2nk).
    l = n-1: the form-space dimension C(n+k, n) is at most (n+1) k^n.
    """
    if not 0 <= l <= n:
        raise DomainError("need 0 <= l <= n")
    if l == n:
        return 0.0
    if l == 0:
        return 2.0 * n
    if l == n - 1:
        return float(n + 1)
    raise UnsupportedDimension(f"no pinned growth constant for l={l} on P^{n}")


def _kmax_for_tail(rho: float, l: int, tol: float) -> int:
    if rho == 0.0:
        return 0
    need = math.log(tol * (1.0 - rho)) / math.log(rho)
    kmax = 0
    while (kmax + 1) ** (l + 1) < need:
        kmax += 1
    return kmax


def l_function_partial_with_error(
    n: int, l: int, s: complex, pmax: int, tail_tol: float = 1e-12
):
    """Partial Euler product over p <= pmax of the local P^n cycle zetas.

    Each local factor is a truncated series at T = p^(-s) whose tail bound
    is below ``tail_tol``; the factors are multiplied in ascending prime
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
    """
    if n < 0:
        raise DomainError("ambient dimension must be >= 0")
    s = complex(s)
    cprime = default_cprime_pn(n, l)
    excess = s.real - cprime
    if excess <= 1.0:
        raise RadiusError(
            f"Re(s) = {s.real} <= growth constant {cprime} + 1: "
            "the Euler product is not certified"
        )
    space = ProjSpace(n)
    step = l + 1
    value = complex(1.0, 0.0)
    log_growth = 0.0  # sum of log(1 + eps_i)
    for p in primes_upto(pmax):
        t = complex(p) ** (-s)
        rho = abs(t) * math.exp(cprime * math.log(p))
        kmax = _kmax_for_tail(rho, l, tail_tol)
        # rounding allowance: each term n_k t^e is a power with relative
        # error growing like e * |s| log p, and the sum adds kmax ulps
        weight = 1.0 + abs(s) * math.log(p)
        factor = complex(0.0, 0.0)
        noise = 0.0
        for k, n_k in enumerate(cycle_counts(space, PrimePower(p), l, kmax)):
            term = _term_value(n_k, t, k ** step)
            factor += term
            noise += abs(term) * (8.0 * (1.0 + k ** step * weight) + kmax + 1)
        bound = _geometric_tail(rho, kmax, l) + _UNIT_ROUNDOFF * noise
        value *= factor
        eps = bound / max(abs(factor) - bound, 1e-300) + 4.0 * _UNIT_ROUNDOFF
        log_growth += math.log1p(eps)
    above = max(pmax, 1)
    x = float(above + 1) ** -excess
    log_growth += above ** (1.0 - excess) / ((excess - 1.0) * (1.0 - x))
    return value, abs(value) * math.expm1(log_growth)


def l_function_partial(n: int, l: int, s: complex, pmax: int) -> complex:
    value, _ = l_function_partial_with_error(n, l, s, pmax)
    return value


# ---------------------------------------------------------------------------
# the integer-ring specialization
# ---------------------------------------------------------------------------

def _check_audit_cutoff(cutoff: int) -> None:
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    if cutoff > SPEC_Z_AUDIT_CAP:
        raise DomainError(f"audit cutoff capped at {SPEC_Z_AUDIT_CAP}")


def _spec_z_cycle_tuples(cutoff: int):
    """Every effective 0-cycle of norm <= cutoff, once, as the nondecreasing
    tuple of its primes (with multiplicity).

    Depth-first on an explicit stack: a node is a cycle, its norm and the
    index of its largest prime; its children append one prime no smaller
    than that.  Children whose own children would pass the cutoff are
    leaves and are yielded in one slice instead of being pushed.
    """
    primes = primes_upto(cutoff)
    singles = [(p,) for p in primes]
    stack = [((), 1, 0)]
    while stack:
        cycle, norm, lo = stack.pop()
        yield cycle
        room = cutoff // norm  # children p <= room; p <= isqrt(room) branch
        inner = bisect_right(primes, math.isqrt(room), lo)
        yield from map(cycle.__add__, singles[inner:bisect_right(primes, room, inner)])
        for j in range(lo, inner):
            stack.append((cycle + singles[j], norm * primes[j], j))


def _audited_norms(cycles, cutoff: int):
    """Yield the norm of each cycle, recomputed from its primes, and check
    that the norm map is a bijection onto 1..cutoff.

    A norm outside 1..cutoff or seen twice fails at once; a short count
    fails when the cycles run out.
    """
    seen = bytearray(cutoff + 1)
    count = 0
    for norm in map(math.prod, cycles):
        if not 0 < norm <= cutoff or seen[norm]:
            raise AuditMismatch(
                f"norm map is not injective into 1..{cutoff}: norm {norm}"
            )
        seen[norm] = 1
        count += 1
        yield norm
    if count != cutoff:
        raise AuditMismatch(
            f"norm map hits {count} of the {cutoff} integers 1..{cutoff}"
        )


def spec_z_cycles(cutoff: int) -> list[dict[int, int]]:
    """Effective 0-cycles on the integer spectrum with norm <= cutoff.

    A cycle is a multiset of primes with multiplicities; its norm is
    exp(arithmetic degree) = prod p^(m_p).  Returned as factorization
    dicts sorted by norm; the norm map is checked to be a bijection onto
    1..cutoff (``AuditMismatch`` otherwise).
    """
    _check_audit_cutoff(cutoff)
    cycles = list(_spec_z_cycle_tuples(cutoff))
    by_norm = [None] * cutoff
    for norm, cycle in zip(_audited_norms(cycles, cutoff), cycles):
        by_norm[norm - 1] = dict(Counter(cycle))
    return by_norm


def spec_z_zeta_partial(s: float, cutoff: int, audit: bool = False) -> float:
    """Partial zeta sum over effective 0-cycles of the integer spectrum.

    The norm bijection cycles <-> positive integers turns the cycle sum
    into sum_{m <= cutoff} m^(-s).  Audit mode streams the cycles, checks
    the bijection and sums their norms; fast mode sums integers directly.
    ``fsum`` is exactly rounded, so both modes give the same float.
    """
    if s <= 1:
        raise DomainError("need s > 1 for convergence")
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    if audit:
        _check_audit_cutoff(cutoff)
        norms = _audited_norms(_spec_z_cycle_tuples(cutoff), cutoff)
        return math.fsum(map(pow, norms, repeat(-s)))
    return math.fsum(m ** (-s) for m in range(1, cutoff + 1))


# ---------------------------------------------------------------------------
# abscissa of convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbscissaReport:
    """log_q(n_k) / k^(l+1) for k = 1..kmax, with the predicted limit."""

    space: SpaceDescriptor
    q: PrimePower
    l: int
    values: tuple[float, ...]
    predicted_limit: float | None

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
