"""Tiny canonical finite fields F_{p^m} for exhaustive enumeration.

Each field is F_p[t]/(m(t)) where m(t) is the *first* monic irreducible of
degree m in increasing encoding order, so every field and every subfield
embedding used by the oracle is deterministic and reproducible without
external tables.

Elements are encoded as integers: sum c_i t^i  <->  sum c_i p^i with
0 <= c_i < p.  Field orders are capped at 10^6 (``_FIELD_ORDER_CAP``);
these fields are meant for desk-scale orbit enumeration, not for
cryptographic sizes.

Prime fields (m = 1) compute with ``% p``.  An extension field (m > 1)
builds three tables once, over the least primitive element g in encoding
order (t itself need not be primitive: it has order 4 in F_9 and 51 in
F_256):

* ``exp[k]`` = g^k, stored twice over so a sum of two logs needs no
  reduction;
* ``log[a]`` with g^log[a] = a for a != 0;
* the Zech table ``zech[k]`` = log(1 + g^k), or -1 where 1 + g^k = 0.

Then ``mul``, ``pow``, ``inv``, ``add``, ``neg`` and ``sub`` are a few
list lookups each.  The build is O(order)
in time and memory.  Fields of order at most 32 (``_PURE_TABLE_ORDER``)
build in pure Python by repeated multiplication by g; larger ones are
vectorised: multiplication by g is an F_p-linear map, so the coefficient
vectors of g^0 .. g^(2k-1) come from those of g^0 .. g^(k-1) by one
matrix product mod p.  numpy is imported at the first build of a field
above order 32, so prime fields and small extensions such as F_4 and
F_8 never load it.  The tables are plain lists of Python ints, about
140 bytes per field element in all.  On a 2-core x86 VM (Python 3.11,
numpy 2.4) field(2, 19), field(3, 12) and field(5, 8) build in 0.5, 0.3
and 0.15 s and raise peak RSS by 79, 80 and 59 MB; field(997, 2), near
the cap, takes 0.3 s and 149 MB.
``field`` keeps every field it builds, tables included, for the life of
the process.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, SizeCapExceeded

_FIELD_ORDER_CAP = 1_000_000


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic; reduce a modulo m in place
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m[:-1]):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _poly_trim(a)


def _encode(coeffs, p) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _decode(v, p) -> tuple[int, ...]:
    out = []
    while v:
        v, r = divmod(v, p)
        out.append(r)
    return tuple(out)


def _is_irreducible(poly, p) -> bool:
    # trial division by every monic polynomial of degree 1..deg/2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            divisor = _decode(code, p) + (0,) * (d - len(_decode(code, p))) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for code in range(p ** m):
        low = _decode(code, p)
        poly = low + (0,) * (m - len(low)) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible found (unreachable)")


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _poly_powmod(a, n, modulus, p):
    result = (1,)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, a, p), modulus, p)
        a = _poly_mod(_poly_mul(a, a, p), modulus, p)
        n >>= 1
    return result


def _primitive_element(p: int, modulus) -> tuple[int, ...]:
    """Least g (in encoding order) generating F_p[t]/(modulus)^*."""
    n = p ** (len(modulus) - 1) - 1
    cofactors = [n // r for r in _prime_factors(n)]
    for code in range(p, n + 1):  # constants have order dividing p - 1
        g = _decode(code, p)
        if all(_poly_powmod(g, e, modulus, p) != (1,) for e in cofactors):
            return g
    raise AssertionError("no primitive element found (unreachable)")


# Fields of at most this order build their tables in pure Python, one
# multiplication by g per element; larger ones use the numpy doubling
# build.  On a 2-core x86 VM (Python 3.11, numpy 2.4, numpy already
# loaded) both builds take 0.01-0.09 ms up to order 32, and above it numpy
# is 3-12x faster (F_64: 0.19 vs 0.06 ms, F_256: 0.87 vs 0.10 ms).  But
# importing numpy costs about 0.1 s, which the F_4 and F_8 of small
# enumerations and audits now skip.
_PURE_TABLE_ORDER = 32


def _tables_python(p: int, modulus, g) -> tuple[list[int], list[int], list[int]]:
    """exp (not doubled), log and Zech tables, one multiplication by g a step."""
    exp, x = [], (1,)
    for _ in range(p ** (len(modulus) - 1) - 1):
        exp.append(_encode(x, p))
        x = _poly_mod(_poly_mul(x, g, p), modulus, p)
    log = [-1] * (len(exp) + 1)
    for k, a in enumerate(exp):
        log[a] = k
    # 1 + g^k only changes the constant coefficient a % p of a = g^k
    zech = [log[a - a % p + (a + 1) % p] for a in exp]
    return exp, log, zech


def _tables_numpy(p: int, modulus, g) -> tuple[list[int], list[int], list[int]]:
    """exp (not doubled), log and Zech tables, doubling the powers a step."""
    import numpy as np  # only fields above _PURE_TABLE_ORDER need it

    m = len(modulus) - 1
    n = p ** m - 1
    # row j of step = coefficients of t^j * g, so (coeffs of x) @ step = x*g
    step = np.zeros((m, m), dtype=np.int32)
    for j in range(m):
        row = _poly_mod(_poly_mul((0,) * j + (1,), g, p), modulus, p)
        step[j, : len(row)] = row
    powers = np.zeros((n, m), dtype=np.int32)  # row k = coefficients of g^k
    powers[0, 0] = 1
    k = 1
    while k < n:  # rows k .. 2k-1 = rows 0 .. k-1 times g^k
        c = min(k, n - k)
        np.remainder(powers[:c] @ step, p, out=powers[k : k + c])
        k += c
        if k < n:
            step = step @ step % p
    exp = powers @ (p ** np.arange(m, dtype=np.int32))
    del powers
    log = np.full(p ** m, -1, dtype=np.int32)
    log[exp] = np.arange(n)
    low = exp % p  # constant coefficient; 1 + g^k only changes it
    zech = log[exp - low + (low + 1) % p]
    return exp.tolist(), log.tolist(), zech.tolist()


def _log_tables(p: int, modulus) -> tuple[list[int], list[int], list[int]]:
    """The exp (doubled), log and Zech tables of an extension field."""
    g = _primitive_element(p, modulus)
    small = p ** (len(modulus) - 1) <= _PURE_TABLE_ORDER
    exp, log, zech = (_tables_python if small else _tables_numpy)(p, modulus, g)
    return exp + exp, log, zech


class Fq:
    """Arithmetic in the canonical F_{p^m}; elements are ints in [0, p^m)."""

    def __init__(self, p: int, m: int):
        if m < 1:
            raise DomainError("field degree m must be >= 1")
        if p ** m > _FIELD_ORDER_CAP:
            raise SizeCapExceeded(f"field order {p}^{m} exceeds enumeration cap")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = _canonical_modulus(p, m)
        if m > 1:
            self._n = self.order - 1  # order of the multiplicative group
            self._exp, self._log, self._zech = _log_tables(p, self.modulus)
            # log(-1): -1 = 1 in characteristic 2, else g^(n/2)
            self._log_minus_one = 0 if p == 2 else self._n // 2

    def decode(self, a: int) -> tuple[int, ...]:
        return _decode(a, self.p)

    def encode(self, coeffs) -> int:
        return _encode(coeffs, self.p)

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # a + b = g^la * (1 + g^(lb - la)); a negative index wraps mod n
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def pow(self, a: int, n: int) -> int:
        if not a:
            if n < 0:
                raise DomainError("zero is not invertible")
            return 0 if n else 1
        if self.m == 1:
            return pow(a, n, self.p)
        return self._exp[self._log[a] * n % self._n]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def eval_poly(self, coeffs, x: int) -> int:
        """Evaluate a polynomial with F_p coefficients (ints) at x via Horner."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c % self.p)
        return acc


@lru_cache(maxsize=None)
def field(p: int, m: int) -> Fq:
    return Fq(p, m)


@lru_cache(maxsize=None)
def embedding(p: int, m_sub: int, m_sup: int) -> tuple[tuple[int, ...], dict]:
    """Canonical embedding F_{p^m_sub} -> F_{p^m_sup} and its partial inverse.

    The image of t is the least root (in encoding order) of the subfield
    modulus inside the big field, so the embedding is as canonical as the
    fields themselves.  Returns (forward table, inverse dict).
    """
    if m_sup % m_sub != 0:
        raise DomainError(f"F_{p}^{m_sub} is not a subfield of F_{p}^{m_sup}")
    sub, sup = field(p, m_sub), field(p, m_sup)
    if m_sub == m_sup:
        table = tuple(range(sub.order))
        return table, {x: x for x in table}
    root = next(
        a for a in range(sup.order) if sup.eval_poly(sub.modulus, a) == 0
    )
    powers = [1]
    for _ in range(m_sub - 1):
        powers.append(sup.mul(powers[-1], root))
    table = []
    for x in range(sub.order):
        img = 0
        for c, rp in zip(sub.decode(x), powers):
            img = sup.add(img, sup.mul(c, rp))
        table.append(img)
    forward = tuple(table)
    return forward, {img: x for x, img in enumerate(forward)}
