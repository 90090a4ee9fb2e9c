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

Two constructors: ``MultiPoly(nvars, coeffs)`` takes outside input and
checks every exponent tuple (ints, nonnegative, of length nvars);
``MultiPoly._build`` takes the results of ring operations and of the
exact univariate algebra, whose exponent tuples are valid by
construction, and only drops zero coefficients.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys

from .errors import DomainError, SizeCapExceeded, ZeroPolynomial
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

    @classmethod
    def _build(cls, nvars: int, coeffs: dict) -> "MultiPoly":
        """A polynomial over ``coeffs`` (which it keeps), whose exponent
        tuples are valid by construction: only zero coefficients go."""
        f = object.__new__(cls)
        f.nvars = nvars
        f.coeffs = {e: c for e, c in coeffs.items() if c != 0} if 0 in coeffs.values() else coeffs
        return f

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
        return max(map(operator.itemgetter(i), self.coeffs))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.deg(i) for i in range(self.nvars))

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def norm_two(self) -> float:
        total = sum(abs(c) ** 2 for c in self.coeffs.values())
        if isinstance(total, int) and total > sys.float_info.max:
            # math.sqrt would convert the exact sum to a float first
            root = math.isqrt(total)
            if root > sys.float_info.max:
                raise SizeCapExceeded("|f|_2 passes the float range (1.8e308)")
            return float(root)
        return math.sqrt(total)

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
        return MultiPoly._build(self.nvars - 1, out)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly._build(self.nvars, out)

    def __neg__(self):
        return MultiPoly._build(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MultiPoly._build(
                self.nvars, {e: c * other for e, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(map(operator.add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._build(self.nvars, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not polynomials")
        result = MultiPoly.constant(1, self.nvars)
        for bit in bin(n)[2:]:  # square and multiply: log n products
            result = result * result
            if bit == "1":
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

        Runs the schedule of ``horner_steps``: nested Horner's rule, one
        variable at a time, one multiply and one add per coefficient and
        variable.  The constant term is taken as complex, so a polynomial
        that has one evaluates to a complex array; otherwise the dtype is
        that of the coefficients and the axes.  Each step allocates its
        result here; the Monte Carlo route runs the same steps into
        buffers it allocates once per integral.
        """
        import numpy as np

        if len(axes) != self.nvars:
            raise DomainError(f"expected {self.nvars} axes")
        shape = np.broadcast_shapes(*[np.shape(a) for a in axes])
        if not self.coeffs:
            return np.zeros(shape, dtype=complex)
        steps, result = horner_steps(self)
        values = {("x", i): a for i, a in enumerate(axes)}
        values.update({o: power(axes[o[1]], o[2]) for step in steps for o in step[1:3]
                       if o[0] == "p"})
        total = run_steps(steps, result, values)
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


def horner_steps(f: MultiPoly) -> tuple[list, tuple]:
    """Nested Horner's rule for f as a flat schedule: (steps, result).

    A step (op, a, b, r), op ``np.multiply`` or ``np.add``, sets register
    r to op(a, b).  An operand is ("c", c) for a coefficient c (the
    constant term as complex), ("x", i) for variable i, ("p", i, k) for
    z_i^k, k >= 2 (``power``), or ("r", i) for register i, the running
    sum of variable i's rule; ``result`` holds f.  The monomials are
    walked in decreasing lexicographic order: between e and the next e',
    first differing in variable j, the rules after j are closed
    (multiplied by their last power and added into the rule before them)
    and rule j is multiplied by z_j^(e_j - e'_j).  A coefficient stays a
    Python number, so each step's arithmetic is that of the recursion
    f = sum_p z_j^p f_p it unrolls.
    """
    import numpy as np

    n = f.nvars
    steps, acc = [], [None] * (n + 1)  # acc[l + 1]: the running sum of variable l

    def mul(level, k):
        if k:
            steps.append((np.multiply, acc[level + 1], ("x", level) if k == 1
                          else ("p", level, k), ("r", level)))
            acc[level + 1] = ("r", level)

    def fold(level, value):  # add value into the rule of variable ``level``
        if acc[level + 1] is None:
            acc[level + 1] = value
        else:
            steps.append((np.add, acc[level + 1], value, ("r", level)))
            acc[level + 1] = ("r", level)

    prev = None
    for e in sorted(f.coeffs, reverse=True):
        j = n if prev is None else next(i for i in range(n) if prev[i] != e[i])
        for level in range(n - 1, j, -1):  # close the rules after variable j
            mul(level, prev[level])
            fold(level - 1, acc[level + 1])
            acc[level + 1] = None
        if prev is not None:
            mul(j, prev[j] - e[j])
        c = f.coeffs[e]
        fold(n - 1, ("c", complex(c) if not any(e) else c))
        prev = e
    for level in range(n - 1, -1, -1):
        mul(level, prev[level])
        fold(level - 1, acc[level + 1])
    return steps, acc[0]


def power(x, k: int, out=None):
    """x ** k for an int k >= 2, into ``out`` when given: numpy's ``**``
    squares for k = 2 and calls ``np.power`` otherwise."""
    import numpy as np

    return np.square(x, out=out) if k == 2 else np.power(x, k, out=out)


def run_steps(steps, result, values: dict, registers=None):
    """Run ``horner_steps``: ``values`` maps each variable and power
    operand to its array, and takes each register's value; a register in
    ``registers`` is written into that buffer, any other is a fresh
    array.  Returns f, a Python number if f is constant."""
    registers = registers or {}
    for op, a, b, r in steps:
        values[r] = op(a[1] if a[0] == "c" else values[a], b[1] if b[0] == "c" else values[b],
                       out=registers.get(r))
    return result[1] if result[0] == "c" else values[result]


# ---------------------------------------------------------------------------
# exact univariate algebra over Q
# ---------------------------------------------------------------------------

def _int_coeffs(f: MultiPoly, low: int = 0) -> list[int]:
    """Little-endian integer coefficients of a univariate polynomial,
    from that of z^low up."""
    out = [0] * (f.deg(0) + 1 - low)
    for (i,), c in f.coeffs.items():
        out[i - low] = int(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def _primitive(c: list[int]) -> list[int]:
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _univ_poly_gcd(polys: list[MultiPoly]) -> MultiPoly:
    """Primitive gcd of univariate integer polynomials.

    Exact Euclid over Z with primitive pseudo-remainders: the gcd over Q
    up to a rational factor, returned with content 1.  Each input first
    loses its own power of z, and the gcd takes back the least one, so a
    monomial (a nonzero constant among them) answers at once and no
    dense list starts below an input's lowest term.
    """
    polys = [f for f in polys if not f.is_zero]
    if not polys:
        raise DomainError("all polynomials vanish")
    lows = [min(f.coeffs)[0] for f in polys]
    if any(f.deg(0) == v for f, v in zip(polys, lows)):
        return MultiPoly._build(1, {(min(lows),): 1})
    acc = None
    for f, v in zip(polys, lows):
        cur = _primitive(_int_coeffs(f, v))
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
    return MultiPoly._build(1, {(min(lows) + i,): c for i, c in enumerate(_primitive(acc))})


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
    return MultiPoly._build(1, {(i,): c for i, c in enumerate(out)})


def _derivative(f: MultiPoly) -> MultiPoly:
    return MultiPoly._build(1, {(i - 1,): i * c for (i,), c in f.coeffs.items() if i})


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

    _fields = ("n", "multidegree", "coeffs")

    def __new__(cls, n: int, multidegree: tuple[int, ...],
                coeffs: tuple[tuple[tuple[int, ...], int], ...]):
        return tuple.__new__(cls, (n, multidegree, coeffs))

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

    def norm_inf(self) -> int:
        return max(abs(c) for _, c in self.coeffs)

    def dehomogenized(self) -> MultiPoly:
        """Substitute Y_i = 1, X_i = z_i."""
        return MultiPoly._build(self.n, dict(self.coeffs))

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

# a token, or "" for a character that starts none
_TOKEN = re.compile(r"\s*(?:(\d+|[XYz][1-9]|[()+\-*^])|\S)")


class _Parser:
    def __init__(self, text: str):
        text = text.strip()
        self.tokens = _TOKEN.findall(text)
        if "" in self.tokens:
            pos = next(m.start() for m in _TOKEN.finditer(text) if not m.group(1))
            raise DomainError(f"cannot tokenize {text[pos:pos+10]!r}")
        self.names: set[str] = {t for t in self.tokens if t[0] in "XYz"}
        self.tokens.append(None)  # the end
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

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
        negate = False
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                negate = not negate
        poly = -self.term(vi, nv) if negate else self.term(vi, nv)
        while self.peek() in ("+", "-"):
            poly = poly + (self.term(vi, nv) if self.next() == "+" else -self.term(vi, nv))
        return poly

    def term(self, vi, nv):
        poly = self.factor(vi, nv)
        while self.peek() == "*":
            self.next()
            poly = poly * self.factor(vi, nv)
        return poly

    def factor(self, vi, nv):
        negate = False
        while self.peek() == "-":
            self.next()
            negate = not negate
        base = self.primary(vi, nv)
        if self.peek() == "^":
            self.next()
            exp = self.next()
            if exp is None or not exp.isdigit():
                raise DomainError("exponent must be a literal integer")
            base = base ** int(exp)
        return -base if negate else base

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
