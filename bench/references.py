"""Reference values derived without calling cyclezeta.

Every function here recomputes a quantity the benchmark asks the program
for, by a route that shares no code with it:

* closed-point censuses by Moebius inversion of the point counts, which
  come from the point-count polynomial N_m = sum_j a_j q^(jm);
* zero-cycle counts from the product form prod_j (1 - q^j T)^(-a_j) of
  the same polynomial, instead of the program's exp-recurrence;
* points of P^n over F_q(t) of height <= h from the Moebius recursion
  C(h) = q^((n+1)(h+1)) - 1 - sum_{j=1}^{h} q^j C(h-j), count C(h)/(q-1);
* the l = 0 Euler factor prod_{i=0}^{n} (1 - p^(i-s))^(-1) summed in logs;
* the integer-spectrum partial zeta as zeta(s) - zeta(s, cutoff+1) (mpmath);
* Fubini-Study integrals from Jensen's formula
  int log|z - c| dFS = 1/2 log(1 + |c|^2), the (1,1)-form value
  1/2 a log a / (a - 1) with a = |c|^2 (1/2 at a = 1), and for heights the
  fact that log|z| is logistic with scale 1/2 under the FS measure, so
  int log max(1, |c| |z|^k) dFS = k/2 log(1 + |c|^(2/k)).

Spaces are ``("pn", n)`` for P^n and ``("p1xn", n)`` for (P^1)^n; q is an
int (4 means F_4).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


# -- point counts and closed points ------------------------------------------

def point_poly(space) -> list[int]:
    """a_j with N_m = sum_j a_j q^(jm)."""
    kind, n = space
    if kind == "pn":
        return [1] * (n + 1)
    return [math.comb(n, j) for j in range(n + 1)]


def point_count(space, q: int, m: int) -> int:
    return sum(a * q ** (j * m) for j, a in enumerate(point_poly(space)))


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def closed_point_census(space, q: int, dmax: int) -> list[int]:
    """b_1..b_dmax with N_m = sum_{d | m} d b_d."""
    out = []
    for d in range(1, dmax + 1):
        total = sum(mobius(d // e) * point_count(space, q, e)
                    for e in range(1, d + 1) if d % e == 0)
        out.append(total // d)
    return out


# -- exact cycle counts ------------------------------------------------------

@lru_cache(maxsize=None)
def zero_cycle_series(space, q: int, kmax: int) -> tuple[int, ...]:
    """c_0..c_kmax of prod_j (1 - q^j T)^(-a_j)."""
    c = [1] + [0] * kmax
    for j, a in enumerate(point_poly(space)):
        x = q ** j
        for _ in range(a):
            for k in range(1, kmax + 1):  # multiply by 1/(1 - xT)
                c[k] += x * c[k - 1]
    return tuple(c)


def form_dim(space, e) -> int:
    kind, n = space
    if kind == "pn":
        (k,) = e
        return math.comb(n + k, n)
    return math.prod(k + 1 for k in e)


def divisor_count(space, q: int, e) -> int:
    return (q ** form_dim(space, e) - 1) // (q - 1)


def _compositions(total: int, parts: int):
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cut + (total + parts - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def top_degree(space) -> int:
    kind, n = space
    return 1 if kind == "pn" else math.factorial(n)


def cycle_count(space, q: int, l: int, k: int) -> int:
    """n_k for l in {0, dim-1, dim}; degree of a divisor on (P^1)^n is
    (n-1)! times its multidegree sum."""
    kind, n = space
    if l == 0:
        return zero_cycle_series(space, q, k)[k]
    if l == n:
        return 1 if k % top_degree(space) == 0 else 0
    if kind == "pn":
        return divisor_count(space, q, (k,))
    step = math.factorial(n - 1)
    if k % step:
        return 0
    return sum(divisor_count(space, q, e) for e in _compositions(k // step, n))


def cycle_series(space, q: int, l: int, kmax: int) -> list[int]:
    if l == 0:
        return list(zero_cycle_series(space, q, kmax))
    return [cycle_count(space, q, l, k) for k in range(kmax + 1)]


def abscissa(space, q: int, l: int, kmax: int):
    """log_q(n_k) / k^(l+1) for k = 1..kmax and the predicted limit (l = dim-1)."""
    values = []
    for k in range(1, kmax + 1):
        n_k = cycle_count(space, q, l, k)
        values.append(math.log(n_k) / (k ** (l + 1) * math.log(q))
                      if n_k > 0 else -math.inf)
    dim = space[1]
    limit = None
    if l == dim - 1:
        limit = 1.0 / (top_degree(space) ** (dim - 1) * math.factorial(dim))
    return values, limit


def ff_points(q: int, n: int, h: int) -> int:
    """Points of P^n over F_q(t) of height <= h (Moebius over monic polys)."""
    c = []
    for H in range(h + 1):
        c.append(q ** ((n + 1) * (H + 1)) - 1
                 - sum(q ** j * c[H - j] for j in range(1, H + 1)))
    return c[h] // (q - 1)


# -- series over primes ------------------------------------------------------

def primes_upto(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = False
    return np.nonzero(flags)[0]


def lfun(n: int, l: int, s: float, pmax: int) -> float:
    """Partial Euler product over p <= pmax of the l-cycle zeta of P^n.

    l = 0: prod_{i=0}^{n} (1 - p^(i-s))^(-1) per prime.  l = n: the
    top-cycle series sum_k p^(-s k^(n+1)), summed until its terms vanish.
    """
    p = primes_upto(pmax).astype(float)
    if l == 0:
        logs = [-np.log1p(-p ** (i - s)) for i in range(n + 1)]
        return math.exp(math.fsum(np.concatenate(logs)))
    if l != n:
        raise ValueError("reference covers l = 0 and l = n only")
    factor = np.ones_like(p)
    k = 1
    while True:
        term = p ** (-s * k ** (n + 1))
        if term[0] < 1e-18:
            break
        factor += term
        k += 1
    return math.exp(math.fsum(np.log(factor)))


def spec_z(s: float, cutoff: int) -> float:
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.zeta(s) - mpmath.zeta(s, cutoff + 1))


# -- bounds ------------------------------------------------------------------

def explicit_constant(n: int, l: int) -> int:
    """C(l,l) = 1, C(m,l) = C(m-1,l) + m^(l(l+1)) C'(m,l)."""
    def cprime(m):
        if l == m:
            return 1
        if l == 0:
            return 3 * m
        return m + (m - l) * (2 ** (l + 1) + l + 2)
    value = 1
    for m in range(l + 1, n + 1):
        value += m ** (l * (l + 1)) * cprime(m)
    return value


# -- Fubini-Study integrals --------------------------------------------------

def jensen(lead, roots, quad=()) -> float:
    """int log|lead * prod (z - c) * prod (z^2 + b)| dFS."""
    return (math.log(abs(lead))
            + 0.5 * math.fsum(math.log1p(c * c) for c in roots)
            + math.fsum(math.log1p(b) for b in quad))


def form_11(c) -> float:
    """int int log|z1 - c z2| over two FS-distributed variables."""
    a = abs(c) ** 2
    return 0.5 if a == 1 else 0.5 * a * math.log(a) / (a - 1)


def height_nv(d: int, a: int, c: int, j: int, k: int) -> float:
    """Height of (a : c z1^j) (d = 1) or (a : c z1^j z2^k) (d = 2).

    The point is normalized by gcd(a, c) first, as the program does.
    """
    g = math.gcd(a, c)
    a, c = abs(a // g), abs(c // g)
    x = math.log(c / a)
    if d == 1:
        return j + math.log(a) + 0.5 * j * math.log1p((c / a) ** (2.0 / j))
    import mpmath

    def inner(u):  # log|z1| = logit(u)/2 with u uniform on (0, 1)
        y = x + j * 0.5 * mpmath.log(u / (1 - u))
        return 0.5 * k * mpmath.log1p(mpmath.exp(2 * y / k))

    with mpmath.workdps(20):
        integral = float(mpmath.quad(inner, [0, 0.5, 1]))
    return j + k + math.log(a) + integral


def _g_cap(h: float, lam: float) -> float:
    return math.exp(h * math.log(2) / lam) if lam <= math.log(2) else math.exp(h)


def arith_divisor_region(n: int, lam: float, h: float):
    """(coefficient box, largest total degree, candidate count) of the search."""
    box = math.floor(_g_cap(h, lam) + 1e-9)
    kmax = math.floor(h / lam + 1e-9)
    candidates = sum(
        (2 * box + 1) ** math.prod(k + 1 for k in e)
        for e in itertools.product(range(kmax + 1), repeat=n) if sum(e) <= kmax
    )
    return box, kmax, candidates


def arith_divisors(lam: float, h: float) -> dict:
    """Exact arithmetic degrees of every sign-normalized form on P^1_Z in the
    search region, keyed by (degree, ((exponent,), coefficient), ...)."""
    box, kmax, _ = arith_divisor_region(1, lam, h)
    out = {}
    for k in range(kmax + 1):
        for vec in itertools.product(range(-box, box + 1), repeat=k + 1):
            nz = [(a, c) for a, c in enumerate(vec) if c]
            if not nz or nz[-1][1] < 0:
                continue
            top = nz[-1][0]
            roots = np.roots([vec[a] for a in range(top, -1, -1)]) if top else []
            value = (lam * k + math.log(abs(nz[-1][1]))
                     + 0.5 * math.fsum(math.log1p(abs(r) ** 2) for r in roots))
            out[(k, tuple(((a,), c) for a, c in nz))] = value
    return out


def sh_set(d: int, a: float, h: float) -> dict:
    box = math.floor(math.exp((1.0 - a * d) * h) / math.sqrt(2.0) + 1e-9)
    degree_cap = math.floor(a * h + 1e-9)
    return {
        "count": (2 * box + 1) ** ((degree_cap + 1) ** d),
        "coeff_box": box,
        "analytic_lower_bound": math.exp(
            a ** d * (1.0 - 2.0 * a * d) * h ** (d + 1) - a ** d * h ** d),
    }


# -- function-field heights --------------------------------------------------

def _fp_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mod(a, b, p):
    a = _fp_trim(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - f * bi) % p
        a = _fp_trim(a)
    return a


def height_ff(p: int, coords) -> int:
    """Max coordinate degree after dividing out the gcd over F_p."""
    polys = [_fp_trim([x % p for x in c]) for c in coords]
    g = []
    for f in polys:
        a, b = g, f
        while b:
            a, b = b, _fp_mod(a, b, p)
        g = a
    return max(len(f) - 1 for f in polys if f) - (len(g) - 1)
