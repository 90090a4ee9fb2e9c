"""Multivariate polynomials as sparse exponent-to-coefficient maps.

``MultiPoly`` is the workhorse for the analytic side: integer or complex
coefficients keyed by exponent tuples, with exact ring operations, grid
evaluation for quadrature, and the coefficient norms

    |f|_inf = max |a_I|,     |f|_2 = sqrt(sum |a_I|^2).

Exact univariate algebra over Q (primitive gcds, exact division, Yun's
squarefree split) serves the function-field heights and the exact
Fubini-Study integrals.

``IntegerForm`` is the homogeneous counterpart on products of projective
lines over the integers: one coefficient per X-exponent vector (the
Y-exponents are forced by the multidegree), normalized so the lexicographic
leading coefficient is positive -- this makes form <-> effective divisor a
bijection.

The text grammar shared by the CLI accepts integer coefficients, ``+ - * ^``
and parentheses over variables ``z1..z9`` (affine) or ``X1, Y1, ..``
(homogeneous pairs).
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import DomainError, ZeroPolynomial
from .records import FrozenRecord


class MultiPoly:
    """Polynomial in ``nvars`` variables; ``coeffs`` maps exponents to values."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        if nvars < 0:
            raise DomainError("nvars must be >= 0")
        self.nvars = nvars
        clean = {}
        for exps, c in (coeffs or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent tuple {exps} for {nvars} variables")
            if c != 0:
                clean[exps] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def deg(self, i: int) -> int:
        """Degree in variable i (0 for the zero polynomial)."""
        if not self.coeffs:
            return 0
        return max(e[i] for e in self.coeffs)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.deg(i) for i in range(self.nvars))

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def norm_two(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def leading_coefficient(self, i: int) -> "MultiPoly":
        """Coefficient of the top power of variable i, as a polynomial
        in the remaining variables (variable i is dropped)."""
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        d = self.deg(i)
        out = {}
        for exps, c in self.coeffs.items():
            if exps[i] == d:
                out[exps[:i] + exps[i + 1:]] = c
        return MultiPoly(self.nvars - 1, out)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not polynomials")
        result = MultiPoly.constant(1, self.nvars)
        for _ in range(n):
            result = result * self
        return result

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise DomainError("variable counts differ")
            return other
        return MultiPoly.constant(other, self.nvars)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.nvars, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])))
        )

    # -- evaluation ---------------------------------------------------------

    def __call__(self, *point):
        if len(point) != self.nvars:
            raise DomainError(f"expected {self.nvars} coordinates")
        total = 0
        for exps, c in self.coeffs.items():
            term = c
            for x, e in zip(point, exps):
                term = term * x ** e
            total += term
        return total

    def eval_grid(self, axes):
        """Evaluate on broadcastable numpy axes (one array per variable).

        Nested Horner's rule, one variable at a time.  The constant term
        is taken as complex, so a polynomial that has one evaluates to a
        complex array; otherwise the dtype is that of the coefficients
        and the axes.
        """
        import numpy as np

        if len(axes) != self.nvars:
            raise DomainError(f"expected {self.nvars} axes")
        shape = np.broadcast_shapes(*[np.shape(a) for a in axes])
        if not self.coeffs:
            return np.zeros(shape, dtype=complex)
        coeffs = dict(self.coeffs)
        zero = (0,) * self.nvars
        if zero in coeffs:
            coeffs[zero] = complex(coeffs[zero])
        total = _horner(coeffs, axes, 0)
        if np.shape(total) != shape:
            total = np.broadcast_to(total, shape)
        return total

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exps]
            mono = "*".join(
                f"z{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e
            )
            if mono:
                lead = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{lead}{mono}")
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


def _horner(coeffs: dict, axes, i: int):
    """sum of c * prod_{j >= i} axes[j] ** e[j] over the (exponents e,
    coefficient c) of ``coeffs``, all sharing e[:i]: Horner's rule in
    axes[i] over the coefficients in the later axes."""
    if i == len(axes):
        (c,) = coeffs.values()
        return c
    groups: dict[int, dict] = {}
    for e, c in coeffs.items():
        groups.setdefault(e[i], {})[e] = c
    powers = sorted(groups, reverse=True) + [0]
    acc = None
    for p, lower in zip(powers, powers[1:]):
        inner = _horner(groups[p], axes, i + 1)
        acc = inner if acc is None else acc + inner
        if p > lower:
            acc = acc * (axes[i] if p - lower == 1 else axes[i] ** (p - lower))
    return acc


# ---------------------------------------------------------------------------
# exact univariate algebra over Q
# ---------------------------------------------------------------------------

def _int_coeffs(f: MultiPoly) -> list[int]:
    """Little-endian integer coefficients of a univariate polynomial."""
    out = [0] * (f.deg(0) + 1)
    for (i,), c in f.coeffs.items():
        out[i] = int(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def _primitive(c: list[int]) -> list[int]:
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _univ_poly_gcd(polys: list[MultiPoly]) -> MultiPoly:
    """Primitive gcd of univariate integer polynomials.

    Exact Euclid over Z with primitive pseudo-remainders: the gcd over Q
    up to a rational factor, returned with content 1.
    """
    acc = None
    for f in polys:
        if f.is_zero:
            continue
        cur = _primitive(_int_coeffs(f))
        acc = cur if acc is None else acc
        while cur:
            a, lead = acc[:], cur[-1]
            while len(a) >= len(cur):
                # lead * a - a[-1] * x^shift * cur cancels the top term
                top, shift = a[-1], len(a) - len(cur)
                a = [lead * x for x in a]
                for i, x in enumerate(cur):
                    a[shift + i] -= top * x
                while a and a[-1] == 0:
                    a.pop()
            acc, cur = cur, _primitive(a) if a else a
    if acc is None:
        raise DomainError("all polynomials vanish")
    return MultiPoly(1, {(i,): c for i, c in enumerate(_primitive(acc))})


def _exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f / g for univariate integer polynomials with an integral quotient."""
    fc, gc = _int_coeffs(f), _int_coeffs(g)
    if not gc:
        raise DomainError("polynomial division by zero")
    out = [0] * max(0, len(fc) - len(gc) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, rem = divmod(fc[i + len(gc) - 1], gc[-1])
        if rem:
            raise DomainError("quotient not integral")
        out[i] = c
        for j, x in enumerate(gc):
            fc[i + j] -= c * x
    if any(fc):
        raise DomainError("inexact polynomial division")
    return MultiPoly(1, {(i,): c for i, c in enumerate(out)})


def _derivative(f: MultiPoly) -> MultiPoly:
    return MultiPoly(1, {(i - 1,): i * c for (i,), c in f.coeffs.items() if i})


def _squarefree_parts(f: MultiPoly) -> list[tuple[int, MultiPoly]]:
    """Yun's squarefree split of a nonzero univariate integer polynomial.

    Returns pairs (m, a_m): the a_m are primitive, squarefree, pairwise
    coprime and of positive degree, and f is a rational constant times
    the product of the a_m^m.  Every division is exact over the integers
    because each divisor is primitive (Gauss's lemma).
    """
    df = _derivative(f)
    if df.is_zero:
        return []
    a = _univ_poly_gcd([f, df])
    b, c = _exact_div(f, a), _exact_div(df, a)
    parts = []
    m = 1
    while b.deg(0) > 0:
        d = c - _derivative(b)
        a = _univ_poly_gcd([b, d])
        if a.deg(0) > 0:
            parts.append((m, a))
        b, c = _exact_div(b, a), _exact_div(d, a)
        m += 1
    return parts


# ---------------------------------------------------------------------------
# homogeneous integer forms on products of projective lines
# ---------------------------------------------------------------------------

class IntegerForm(FrozenRecord):
    """Multihomogeneous integer form in pairs (X_i, Y_i), sign-normalized.

    ``coeffs`` maps the X-exponent vector a (with 0 <= a_i <= k_i) to the
    integer coefficient of prod X_i^(a_i) Y_i^(k_i - a_i).  The nonzero
    coefficient at the lexicographically greatest exponent is positive.
    """

    __slots__ = ("n", "multidegree", "coeffs")

    def __init__(self, n: int, multidegree: tuple[int, ...],
                 coeffs: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "multidegree", multidegree)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(n: int, multidegree, coeffs: dict) -> "IntegerForm":
        multidegree = tuple(int(k) for k in multidegree)
        if len(multidegree) != n or any(k < 0 for k in multidegree):
            raise DomainError(f"bad multidegree {multidegree}")
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(a) for a in exps)
            if len(exps) != n or any(
                not 0 <= a <= k for a, k in zip(exps, multidegree)
            ):
                raise DomainError(f"exponents {exps} outside multidegree box")
            if int(c) != c:
                raise DomainError("integer forms need integer coefficients")
            if c:
                clean[exps] = int(c)
        if not clean:
            raise DomainError("the zero form does not define a divisor")
        if clean[max(clean)] < 0:
            clean = {e: -c for e, c in clean.items()}
        return IntegerForm(n, multidegree, tuple(sorted(clean.items())))

    @staticmethod
    def constant(m: int, n: int = 1) -> "IntegerForm":
        if m == 0:
            raise DomainError("the zero form does not define a divisor")
        return IntegerForm.make(n, (0,) * n, {(0,) * n: abs(m)})

    @property
    def coeff_dict(self) -> dict:
        return dict(self.coeffs)

    def norm_inf(self) -> int:
        return max(abs(c) for _, c in self.coeffs)

    @property
    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def dehomogenized(self) -> MultiPoly:
        """Substitute Y_i = 1, X_i = z_i."""
        return MultiPoly(self.n, {exps: c for exps, c in self.coeffs})

    def __mul__(self, other: "IntegerForm") -> "IntegerForm":
        if not isinstance(other, IntegerForm) or other.n != self.n:
            raise DomainError("can only multiply forms in the same variables")
        degree = tuple(a + b for a, b in zip(self.multidegree, other.multidegree))
        out: dict = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return IntegerForm.make(self.n, degree, out)

    def __str__(self):
        parts = []
        for exps, c in sorted(self.coeffs, reverse=True):
            factors = []
            for i, (a, k) in enumerate(zip(exps, self.multidegree)):
                if a:
                    factors.append(f"X{i+1}" + (f"^{a}" if a > 1 else ""))
                if k - a:
                    factors.append(f"Y{i+1}" + (f"^{k-a}" if k - a > 1 else ""))
            mono = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(mono)
            elif c == -1 and factors:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}" if factors else str(c))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# parser for the shared polynomial grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([XYz][1-9])|([()+\-*^]))")


class _Parser:
    def __init__(self, text: str):
        text = text.strip()
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise DomainError(f"cannot tokenize {text[pos:pos+10]!r}")
            self.tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        self.pos = 0
        self.names: set[str] = {
            t for t in self.tokens if t[0] in "XYz" and len(t) == 2
        }

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise DomainError(f"expected {tok!r}, got {got!r}")

    def parse(self, var_index, nvars) -> MultiPoly:
        poly = self.expr(var_index, nvars)
        if self.peek() is not None:
            raise DomainError(f"unexpected trailing token {self.peek()!r}")
        return poly

    def expr(self, vi, nv):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        poly = self.term(vi, nv) * sign
        while self.peek() in ("+", "-"):
            op = self.next()
            poly = poly + self.term(vi, nv) * (1 if op == "+" else -1)
        return poly

    def term(self, vi, nv):
        poly = self.factor(vi, nv)
        while self.peek() == "*":
            self.next()
            poly = poly * self.factor(vi, nv)
        return poly

    def factor(self, vi, nv):
        sign = 1
        while self.peek() == "-":
            self.next()
            sign = -sign
        base = self.primary(vi, nv)
        if self.peek() == "^":
            self.next()
            exp = self.next()
            if exp is None or not exp.isdigit():
                raise DomainError("exponent must be a literal integer")
            base = base ** int(exp)
        return base * sign

    def primary(self, vi, nv):
        tok = self.next()
        if tok is None:
            raise DomainError("unexpected end of expression")
        if tok == "(":
            inner = self.expr(vi, nv)
            self.expect(")")
            return inner
        if tok.isdigit():
            return MultiPoly.constant(int(tok), nv)
        if tok in vi:
            return MultiPoly.variable(vi[tok], nv)
        raise DomainError(f"unexpected token {tok!r}")


def parse_affine_polynomial(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse an integer polynomial in z1..z9."""
    parser = _Parser(text)
    bad = [t for t in parser.names if t[0] != "z"]
    if bad:
        raise DomainError(f"affine polynomials use z1..z9, got {sorted(bad)}")
    used = max((int(t[1]) for t in parser.names), default=0)
    if nvars is None:
        nvars = max(used, 1)
    if used > nvars:
        raise DomainError(f"variable z{used} exceeds nvars={nvars}")
    vi = {f"z{i+1}": i for i in range(nvars)}
    return parser.parse(vi, nvars)


def parse_integer_form(text: str, n: int | None = None) -> IntegerForm:
    """Parse a multihomogeneous form in pairs X1,Y1,..,Xn,Yn.

    The result must be homogeneous in every (X_i, Y_i) pair; the
    homogeneity degrees become the multidegree.
    """
    parser = _Parser(text)
    bad = [t for t in parser.names if t[0] == "z"]
    if bad:
        raise DomainError(f"homogeneous forms use X/Y pairs, got {sorted(bad)}")
    used = max((int(t[1]) for t in parser.names), default=0)
    if n is None:
        n = max(used, 1)
    if used > n:
        raise DomainError(f"pair index {used} exceeds n={n}")
    vi = {}
    for i in range(n):
        vi[f"X{i+1}"] = 2 * i
        vi[f"Y{i+1}"] = 2 * i + 1
    poly = parser.parse(vi, 2 * n)
    if poly.is_zero:
        raise DomainError("the zero form does not define a divisor")
    degrees = None
    for exps in poly.coeffs:
        pair_degs = tuple(exps[2 * i] + exps[2 * i + 1] for i in range(n))
        if degrees is None:
            degrees = pair_degs
        elif degrees != pair_degs:
            raise DomainError(
                f"form is not multihomogeneous: degrees {degrees} vs {pair_degs}"
            )
    coeffs = {}
    for exps, c in poly.coeffs.items():
        a = tuple(exps[2 * i] for i in range(n))
        coeffs[a] = coeffs.get(a, 0) + c
    return IntegerForm.make(n, degrees, coeffs)


def monomial_grid(multidegree) -> list[tuple[int, ...]]:
    """All X-exponent vectors inside the multidegree box, in lex order."""
    return list(itertools.product(*[range(k + 1) for k in multidegree]))
