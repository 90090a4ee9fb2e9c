"""Polynomial norms, the Fubini-Study measure v, and arithmetic degrees.

The measure of a tuple of polynomials is

    v(f_1, .., f_l) = exp( integral of log max_i |f_i| against the
                           product Fubini-Study volume on C^n ),

a multivariate Mahler-type quantity.  For an integer form P on a product
of projective lines over the integers, the arithmetic degree of div(P)
against the lambda-scaled metrics reduces to

    delta_lambda(div P) = lambda * sum_i k_i + integral log |p|,

where k is the multidegree and p the dehomogenization.  Both the norm
inequalities relating v to |.|_inf and |.|_2 and the Northcott-style
finiteness of {delta_lambda <= h} are executable here.

Which integrals are exact: v of a single polynomial in one or two
variables, every ``delta_lambda`` with n <= 2 (monomials included: they
give lam * sum(k) + log |c|) and every census candidate integrate by
Jensen's formula on the tensor scheme, with a measured error (see
``quadrature``).  Tuples of polynomials, forms whose dehomogenization is
not certified squarefree in z2, three or more variables and Monte Carlo
use the node sets.

Why the divisor census may search coefficient by coefficient: for every
nonzero integer polynomial p in n variables with partial degrees at most
k = (k_1, .., k_n) and every monomial J,

    log |a_J| - log prod_i C(k_i, j_i)  <=  log M(p)  <=  integral log |p|,

where M(p) is the Mahler measure (the unit-torus average of log |p|) and
the integral is against the product Fubini-Study measure.  The left
inequality is Mahler's (J. London Math. Soc. 37, 1962); a top coefficient
of zero only lowers the partial degree d_i <= k_i, and C(d, j) <= C(k, j).
The right one, by induction on n:

* One variable: Jensen's formula gives log |lc| + sum_roots log+ |c| for
  log M(p) and log |lc| + sum_roots 1/2 log(1 + |c|^2) for the integral,
  and 1/2 log(1 + |c|^2) >= log+ |c| root by root.
* n variables: a subharmonic function u of one variable with
  u(z) <= d log+ |z| + O(1) has a circle mean m(r) that is convex in
  log r, and the Fubini-Study law of log |z| is symmetric about 0, so
  the Fubini-Study average of u is at least m(1), its unit-circle
  average.  For fixed z_2..z_n, z_1 -> log |p| is such a function, so
  the integral over z_1 is at least the unit-circle average over z_1.
  That average is a plurisubharmonic function of z_2..z_n of
  logarithmic growth, and the induction applies to it.

So a form P of multidegree k with delta_lambda(div P) <= h has
|a_J| <= prod_i C(k_i, j_i) * exp(h - lambda * sum k) at every J.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .errors import BandAmbiguity, DomainError, SizeCapExceeded, ZeroPolynomial
from .multipoly import IntegerForm, MultiPoly, monomial_grid
from .quadrature import (
    QuadratureConfig,
    batched_log_integrals_with_error,
    integrate_log_max,
    integrate_log_max_with_error,
)
from .records import FrozenRecord

# Coefficient vectors of a divisor census's search region, counted before
# any form is built.
SEARCH_CAP = 2_000_000
# Coefficients times variable orders of one random sample of
# ``verify_norm_props``, (max_degree + 1)^nvars * nvars!, checked before
# any sample is drawn: a sample is a dense coefficient array, and
# ``lc_sigma_max`` walks every variable order.  7 variables of degree 1
# (645 120) take about 0.5 s a sample there, 8 (1.0e7) several seconds.
SAMPLE_CAP = 1_000_000
BAND_FLOOR = 1e-9  # least half-width of the census guard band
# Log-scale allowance on the census's coefficient caps.  The caps keep
# every form with delta <= h + 1e-6; a form the census counts or lists as
# borderline has delta at most h + band + its error, which at n = 1 is
# h + 1e-9 + ~4e-12, and exp and the float product round by ~1e-15.
_CAP_SLACK = 1e-6
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def norms(f: MultiPoly) -> tuple[float, float]:
    """(|f|_inf, |f|_2): max coefficient modulus and Euclidean coefficient norm.

    A coefficient past the largest float (about 1.8e308) is refused with
    ``SizeCapExceeded``, as no printed |f|_inf can hold it."""
    if f.coeffs and max(map(abs, f.coeffs.values())) > sys.float_info.max:
        raise SizeCapExceeded("a coefficient passes the float range (1.8e308)")
    return f.norm_inf(), f.norm_two()


def _exp_in_float_range(log_v: float) -> float:
    if log_v > _LOG_FLOAT_MAX:
        raise SizeCapExceeded(f"v = exp({log_v:.6g}) passes the float range (1.8e308)")
    return math.exp(log_v)


def v_measure(fs, cfg: QuadratureConfig) -> float:
    """exp of the Fubini-Study integral of log max_i |f_i|."""
    fs = [fs] if isinstance(fs, MultiPoly) else list(fs)
    return _exp_in_float_range(integrate_log_max(fs, cfg))


def v_measure_with_error(fs, cfg: QuadratureConfig) -> tuple[float, float]:
    """v and its error, v * (exp(e) - 1) for the integral's error e."""
    fs = [fs] if isinstance(fs, MultiPoly) else list(fs)
    log_v, err = integrate_log_max_with_error(fs, cfg)
    v = _exp_in_float_range(log_v)
    return v, v * math.expm1(err)


def lc_sigma_max(f: MultiPoly) -> float:
    """Largest iterated leading coefficient over all variable orders.

    Taking leading coefficients one variable at a time ends in a single
    scalar; the maximum of its modulus over the n! orders lower-bounds
    the Fubini-Study integral of log |f|.
    """
    if f.is_zero:
        raise ZeroPolynomial("lc_sigma_max needs a nonzero polynomial")
    best = 0.0
    for order in itertools.permutations(range(f.nvars)):
        g = f
        remaining = list(range(f.nvars))
        for v in order:
            # dropping a variable shifts the indices of the later ones
            i = remaining.index(v)
            g = g.leading_coefficient(i)
            remaining.pop(i)
        best = max(best, abs(g.coeffs.get((), 0)))
    return best


def delta_lambda(P: IntegerForm, lam: float, cfg: QuadratureConfig) -> float:
    """Arithmetic degree of div(P) against the lambda-scaled FS metrics.

    Equals lam * (sum of the multidegree) plus the Fubini-Study integral
    of log |p| for the dehomogenized p; the integral is nonnegative for
    integer forms, which makes bounded-degree searches finite.
    """
    return delta_lambda_with_error(P, lam, cfg)[0]


def delta_lambda_with_error(
    P: IntegerForm, lam: float, cfg: QuadratureConfig
) -> tuple[float, float]:
    """``delta_lambda`` and the measured error of its integral."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    value, err = integrate_log_max_with_error([P.dehomogenized()], cfg)
    return lam * sum(P.multidegree) + value, err


class ArithDivisorCensus(FrozenRecord):
    """Outcome of an exhaustive bounded-arithmetic-degree divisor count.

    ``count`` are the divisors certified inside the bound; ``borderline``
    are those whose degree sits within the numerical guard band and were
    left unclassified.  ``log_certified_bound`` is the natural log of the
    a-priori finiteness bound for the searched region.
    """

    _fields = ("n", "lam", "h", "count", "log_certified_bound", "borderline",
               "max_inf_norm")

    def __new__(cls, n: int, lam: float, h: float, count: int, log_certified_bound: float,
                borderline: tuple[IntegerForm, ...], max_inf_norm: int):
        return tuple.__new__(cls, (n, lam, h, count, log_certified_bound, borderline,
                                   max_inf_norm))

    def raise_if_ambiguous(self):
        if self.borderline:
            raise BandAmbiguity(
                f"{len(self.borderline)} divisors within the guard band",
                self.borderline,
            )
        return self


def _g_cap(h: float, lam: float) -> float:
    """Coefficient cap for forms of arithmetic degree at most h."""
    return math.exp(h * math.log(2) / lam) if lam <= math.log(2) else math.exp(h)


def _multidegrees(n: int, total: int):
    """Every n-tuple of nonnegative integers with sum <= total, in lex order."""
    if n == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _multidegrees(n - 1, total - first):
            yield (first, *rest)


def _search_region(n, lam, h, box):
    """(multidegree, monomials, coefficient caps) of every searched slice.

    A member's coefficient at J is at most prod_i C(e_i, j_i) times
    exp(h - lam * sum(e)) (see the module docstring) and at most ``box``.
    The whole region is sized before any form is built: more than
    ``SEARCH_CAP`` coefficient vectors raise ``SizeCapExceeded``.
    """
    kmax_total = math.floor(h / lam + 1e-9)
    region = []
    work = 0
    for e in _multidegrees(n, kmax_total):
        scale = math.exp(h - lam * sum(e) + _CAP_SLACK)
        monos = monomial_grid(e)
        caps = [
            min(box, math.floor(math.prod(map(math.comb, e, J)) * scale))
            for J in monos
        ]
        work += math.prod(2 * c + 1 for c in caps)
        if work > SEARCH_CAP:
            raise SizeCapExceeded(
                f"search region exceeds cap {SEARCH_CAP} at multidegree {e}"
            )
        region.append((e, monos, caps))
    return region


def count_arith_divisors_bounded(
    n: int,
    lam: float,
    h: float,
    cfg: QuadratureConfig,
) -> ArithDivisorCensus:
    """Exact count of effective divisors with arithmetic degree <= h.

    Divisors on the n-fold product of projective lines over the integers
    are sign-normalized nonzero integer forms.  Members satisfy
    lambda * sum(k) <= h and, coefficient by coefficient,
    |a_J| <= min(g(h, lambda), prod_i C(k_i, j_i) * exp(h - lambda * sum(k)))
    (Mahler's inequality, see the module docstring), so the search region
    is finite; ``SEARCH_CAP`` bounds its coefficient vectors, counted
    before anything is integrated.  Each candidate's degree is integrated
    exactly (Jensen's formula, batched per multidegree) and classified
    with a guard band of +-e around h, where e is the largest measured
    error among all the integrated candidates, at least ``BAND_FLOOR``.
    Monomial degrees lam * sum(k) + log |c| use a zero band.  Borderline
    candidates are reported, never classified.  ``max_inf_norm`` and
    ``log_certified_bound`` stay the a-priori values from g(h, lambda).
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if h < 0:
        raise DomainError("degree bound h must be >= 0")
    if n < 1:
        raise DomainError("need n >= 1 projective-line factors")
    try:
        g = _g_cap(h, lam)
    except OverflowError:  # h / lam > 1024 at lam <= log 2
        g = math.inf
    if g > 1e15:
        raise SizeCapExceeded(f"coefficient cap exp-scale {g:.3g} is not searchable")
    box = math.floor(g + 1e-9)

    log_bound = n * math.log(h / lam + 1) + (h / lam + 1) ** n * math.log(
        2 * g + 1
    )

    count = 0
    batches = []
    for e, monos, caps in _search_region(n, lam, h, box):
        deg_term = lam * sum(e)
        # partition candidates: exact ones (<= 1 nonzero coefficient) vs
        # integrated ones, batched per multidegree
        quad_rows = []
        for vec in itertools.product(*(range(-c, c + 1) for c in caps)):
            nonzero = [c for c in vec if c]
            if not nonzero:
                continue
            # canonical sign: lexicographically greatest exponent positive
            # (monomial_grid is in lex order, so that is the last nonzero)
            if nonzero[-1] < 0:
                continue
            if len(nonzero) == 1:
                if deg_term + math.log(nonzero[0]) <= h:
                    count += 1
            else:
                quad_rows.append(vec)
        if quad_rows:
            rows = np.array(quad_rows, dtype=float)
            values, errors = batched_log_integrals_with_error(rows, monos, n, cfg)
            batches.append((e, monos, quad_rows, deg_term + values, errors))
    # the band is the largest measured error of any integrated candidate
    band = max([BAND_FLOOR] + [float(b[4].max()) for b in batches])
    borderline: list[IntegerForm] = []
    for e, monos, quad_rows, values, _ in batches:
        count += int(np.count_nonzero(values <= h - band))
        for idx in np.flatnonzero((values > h - band) & (values <= h + band)):
            borderline.append(IntegerForm.make(n, e, dict(zip(monos, quad_rows[idx]))))
    return ArithDivisorCensus(
        n, lam, h, count, log_bound, tuple(borderline), box
    )


# ---------------------------------------------------------------------------
# property verification driver
# ---------------------------------------------------------------------------

class NormSampleSpec(FrozenRecord):
    """Seeded random-polynomial generator: dense integer coefficients."""

    _fields = ("samples", "seed", "nvars", "max_degree", "coeff_bound")

    def __new__(cls, samples: int, seed: int, nvars: int = 2, max_degree: int = 3,
                coeff_bound: int = 10):
        if samples < 1 or nvars < 1 or max_degree < 0:
            raise DomainError("bad sample specification")
        return tuple.__new__(cls, (samples, seed, nvars, max_degree, coeff_bound))


class CheckRecord(FrozenRecord):
    """One inequality lhs <= rhs on one sample; ``error`` bounds how far
    the measured quadrature error can move the slack rhs - lhs."""

    _fields = ("sample", "name", "lhs", "rhs", "error")

    def __new__(cls, sample: int, name: str, lhs: float, rhs: float, error: float):
        return tuple.__new__(cls, (sample, name, lhs, rhs, error))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def status(self) -> str:
        """pass for slack >= 0, warn for a negative slack within the
        error, fail below that."""
        if self.slack >= 0:
            return "pass"
        return "warn" if self.slack >= -self.error else "fail"


def _random_poly(rng, spec: NormSampleSpec) -> MultiPoly:
    shape = (spec.max_degree + 1,) * spec.nvars
    while True:
        coeffs = rng.integers(-spec.coeff_bound, spec.coeff_bound + 1, shape)
        if np.any(coeffs):
            break
    return MultiPoly(
        spec.nvars,
        {
            exps: int(coeffs[exps])
            for exps in itertools.product(
                range(spec.max_degree + 1), repeat=spec.nvars
            )
        },
    )


def verify_norm_props(spec: NormSampleSpec,
                      cfg: QuadratureConfig) -> tuple[CheckRecord, ...]:
    """Check the norm comparison inequalities on seeded random polynomials.

    Per sample f (and a partner g for the product inequality):

    * ``inf_vs_v``      |f|_inf <= 2^(sum deg_i) v(f)
    * ``v_vs_two``      v(f) <= sqrt(2)^(sum deg_i) |f|_2
    * ``product_inf``   |fg|_inf <= |f|_inf |g|_inf prod(1 + min deg_i)
    * ``v_integer_lower``    log v(f) >= 0 for integer f
    * ``v_lc_lower``         log v(f) >= log lc_sigma_max(f)

    Each record carries the error of its slack, from the measured error e
    of log v(f): e on the log checks, v (exp(e) - 1) times the factor on
    v in the two v checks, and 0 on the exact ``product_inf``.  A shape
    past ``SAMPLE_CAP`` raises ``SizeCapExceeded`` before any sample.
    """
    work = 1  # (max_degree + 1)^nvars * nvars!, stopped once past the cap
    for k in range(1, spec.nvars + 1):
        work *= (spec.max_degree + 1) * k
        if work > SAMPLE_CAP:
            raise SizeCapExceeded(
                f"{spec.nvars}-variable samples of degree {spec.max_degree} "
                f"exceed the cap {SAMPLE_CAP} on coefficients x variable orders, "
                "(max_degree + 1)^nvars * nvars!; lower nvars or max_degree"
            )
    rng = np.random.default_rng(spec.seed)
    records = []
    for i in range(spec.samples):
        f = _random_poly(rng, spec)
        g = _random_poly(rng, spec)
        log_v, e = integrate_log_max_with_error([f], cfg)
        v = math.exp(log_v)
        v_err = v * math.expm1(e)
        d_sum = sum(f.degrees)
        records.append(CheckRecord(i, "inf_vs_v", f.norm_inf(), 2 ** d_sum * v,
                                   2 ** d_sum * v_err))
        records.append(CheckRecord(i, "v_vs_two", v, math.sqrt(2) ** d_sum * f.norm_two(),
                                   v_err))
        fg = f * g
        bound = f.norm_inf() * g.norm_inf() * math.prod(
            1 + min(f.deg(j), g.deg(j)) for j in range(spec.nvars)
        )
        records.append(CheckRecord(i, "product_inf", fg.norm_inf(), bound, 0.0))
        records.append(CheckRecord(i, "v_integer_lower", 0.0, log_v, e))
        records.append(CheckRecord(i, "v_lc_lower", math.log(lc_sigma_max(f)), log_v, e))
    return tuple(records)
