"""Integrals against the product Fubini-Study volume on C^n.

The relevant measure per complex variable is

    omega = r dr dtheta / (pi (1 + r^2)^2),

a probability measure on C giving mass 1/2 to the unit disk and
invariant under z -> 1/z.

Exact route (scheme ``tensor_gauss``; a single polynomial in one or two
variables, and the rows of ``batched_log_integrals`` without the floor
at one).  Jensen's formula for omega,

    integral of log |z - c| = 1/2 log(1 + |c|^2),

integrates log |f| from the roots of f (Mahler, J. London Math. Soc. 37,
1962):

* one variable: f = a prod (z - c_i)^(m_i) integrates to
  log |a| + 1/2 sum m_i log(1 + |c_i|^2).  An integer polynomial is
  first split into squarefree parts exactly (Yun's algorithm over Q), so
  every root the eigenvalue solver sees is simple; float or complex
  coefficients go straight to the roots.  Roots are companion-matrix
  eigenvalues, batched over rows.
* two variables: the z2-content and the z1-content of an integer f (each
  a polynomial in one variable) take the one-variable route.  For the
  rest g, the z2-integral is exact at each z1 node:
  log |A(z1)| + 1/2 sum log(1 + |c_i(z1)|^2) with A the top coefficient
  and c_i the roots in z2; for g linear in z2, A z2 + B, it is
  1/2 log(|A|^2 + |B|^2).  Subtracting D/2 log(1 + |z1|^2), where D is
  the z1-degree of g, removes the logarithmic growth at infinity (it
  integrates to D/2); what is left is bounded on the sphere and runs on
  the one-variable node set below.  An integer g must be certified
  squarefree in z2: for some integer r, g(r, z2) keeps its z2-degree
  and is coprime to its z2-derivative over Q.  (2d - 1) D + 1 trial
  values of r suffice when g is squarefree, d = deg_z2 g, because only
  zeros of the top coefficient and of the discriminant can fail; when
  none passes the polynomial takes the grid.

Measured errors on the exact route: the difference between the root
sums of p and of its reversal z^d p(1/z), equal in exact arithmetic
because omega is invariant under z -> 1/z; with two variables that
difference integrated over z1, plus the difference between the outer
integrals on n and n / 2 nodes.  Every exact-route error also carries a
rounding allowance of 1e-12 (1 + |value|).

Grid route (tuples log max_i |f_i|, log max(1, |f|), uncertified
two-variable polynomials).  One evaluator, ``_grid``, integrates
log max(floor, max_i |f_ri|) for R rows of k functions on a shared
support.  The plane is covered without an unbounded domain: the exterior
is pulled back to the disk by z -> 1/z, so the node set is a disk grid
together with its pointwise inverses at the same weights.  On the disk
the substitution u = r^2 turns the radial factor into du / (1 + u)^2 on
[0, 1], handled by Gauss-Legendre; the angle uses the periodic midpoint
rule.  A variable z_j is angle-free when every function has a single
z_j-exponent, f_i = z_j^e g_i with g_i free of z_j: the midpoint rule
gives every angle the same value, so that axis takes the radial nodes r
and 1/r with the summed weight w / (1 + u)^2 each, 2 n nodes instead of
2 n^2, equal to the full grid in exact arithmetic.  When every
coefficient is real, |f(conj z)| = |f(z)| with all variables conjugated
at once, and the measure and the grid are invariant too (angle k pairs
with n - 1 - k, and the radial nodes are fixed); so the first axis on
plane nodes keeps only the angles k < n - 1 - k, each at weight 2, and
the self-paired k = (n - 1) / 2 of an odd n at weight 1: n^2 nodes
instead of 2 n^2, again exact.  The fold applies to every grid integral
and to the outer z1 integral of the exact route, since for real g the
inner integral satisfies I(conj z1) = I(z1); complex coefficients keep
the plane nodes.  Grids are limited to two complex variables, beyond
which the seeded Monte Carlo sampler takes over, and to ``GRID_CAP``
evaluated points (rows x functions x nodes): a larger integral is
refused with ``SizeCapExceeded`` before anything is allocated.  The
error is the node-doubling difference (n against n / 2 nodes), and
three standard errors for Monte Carlo.

Every node set is radii times angles: the 2 n radii r and 1/r, each at
the n plane angles, the ceil(n / 2) folded ones or the one angle 0 of the
radial nodes, the 1/r half at the angles -theta.  ``_grid`` evaluates in
real arithmetic on that structure.  Each function is separable,
f = sum_a z1^a B_a(z2) with B_a(z2) = sum_b c_ab z2^b, so the B_a are
formed once per z2 node (a column; one variable is the case of a single
z2 node), and at a radius rho, with X_a = B_a rho^a,
Re f = Re X @ cos(a theta) - Im X @ sin(a theta) and
Im f = Re X @ sin(a theta) + Im X @ cos(a theta) are real matrix
products against tables cached per (n, width): two for real X, four for
complex X.  At the one angle 0 of the radial nodes, f = sum_a B_a rho^a
is a single product with the table of rho^a, and no X is formed.  The 1/r
half takes the same tables with Im X negated, as
|sum X_a e^(-i a theta)| = |sum conj(X_a) e^(i a theta)|.  The integrand
is then 1/2 log max(floor^2, max_i (Re^2 f_i + Im^2 f_i)), with no
hypot.  A squared floor below the smallest normal float is raised to it
(the floor 1e-300 of log max_i |f_i| acts as ~1.5e-154), and a row
whose |f|^2 overflows at some node (|f| past 2^512) is redone scaled by
a power of two, exactly, with its floor.  The powers of the largest
radius (~54 at 64 nodes, ~426 at 512) must themselves be floats, so a
monomial of total degree d with d log(r_max) past log(2^1024) is refused
with ``SizeCapExceeded`` before the grid runs: degree 178 is the most at
64 nodes, 117 at 512.  A row whose coefficients overflow the scaling
bound is refused too, after the grid.
The work runs in tiles of at most ``_TILE`` = 2^15 floats (256 kB) per
buffer, through buffers allocated once per call.  Against complex
evaluation with np.abs in blocks of 2^20 complex entries (16 MB), a
grid point costs ~5 ns instead of ~13-16 ns, and the ``census sh-set``
box of a = 0.22, h = 4.6 peaks at 0.8 MB of numpy buffers instead of
25 MB (numpy 2.4, one core of a 2-vCPU x86 VM).

Monte Carlo route (scheme ``monte_carlo``, any number of variables).
The estimate is the mean of log max_i |f_i| over ``sample_count``
seeded samples, each variable drawn independently from omega with no
trigonometry: w is uniform on the disk |w| < 1/2, by rejection from the
square [-1/2, 1/2)^2 (one generator call of 2m uniform floats, viewed as
m complex numbers, of which about pi/4 are kept), and
z = w / sqrt(1/4 - |w|^2).  Then s = 4 |w|^2 is uniform on [0, 1] and
independent of the uniform angle, so |z|^2 = s / (1 - s) has the law
of omega, which gives |z|^2 <= t the mass t / (1 + t).  Surplus
accepted draws are dropped, so a seed fixes the estimate.  The cos and
sin of a uniform angle alone cost more per point than the whole
rejection draw (numpy 2.4 on a 2-vCPU x86 VM).  Samples are taken
``_MC_BATCH`` = 4096 at a time, through work buffers reused across
batches, so that no array a batch allocates exceeds 64 kB and the
allocator recycles them: with 8192 samples a batch, a 3-variable
integral of 10^6 samples faulted in some 20 000 fresh pages there and
ran about 15 % slower.  Each f_i is evaluated on a batch by nested
Horner's rule (``MultiPoly.eval_grid``), one multiply and one add per
coefficient and variable rather than one array product per monomial:
on the 8 monomials of (z1 + 1)(z2 + 3)(z3 + 5) that is half the time.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import lru_cache

import numpy as np

from .errors import AllZero, DomainError, SizeCapExceeded
from .multipoly import (
    MultiPoly,
    _derivative,
    _exact_div,
    _squarefree_parts,
    _univ_poly_gcd,
)
from .records import FrozenRecord

_TINY = 1e-300
_MC_BATCH = 4096  # Monte Carlo samples per batch (module docstring)
_ROUNDING = 1e-12  # relative rounding allowance of every exact-route error


class QuadratureConfig(FrozenRecord):
    """How to integrate: tensor Gauss-Legendre grid or seeded Monte Carlo."""

    __slots__ = ("scheme", "nodes_per_dim", "sample_count", "seed", "tolerance")

    def __init__(self, scheme: str = "tensor_gauss", nodes_per_dim: int = 64,
                 sample_count: int = 1_000_000, seed: int | None = None,
                 tolerance: float = 1e-3):
        super().__init__(scheme, nodes_per_dim, sample_count, seed, tolerance)
        if scheme not in ("tensor_gauss", "monte_carlo"):
            raise DomainError(f"unknown quadrature scheme {scheme!r}")
        if scheme == "tensor_gauss" and nodes_per_dim < 8:
            raise DomainError("nodes_per_dim must be >= 8")
        if scheme == "monte_carlo":
            if seed is None:
                raise DomainError("monte_carlo requires an explicit seed")
            if sample_count < 1:
                raise DomainError("sample_count must be >= 1")


@lru_cache(maxsize=8)
def _radial_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes u = r^2 on [0, 1] and the disk weights w / (1 + u)^2."""
    ug, wg = np.polynomial.legendre.leggauss(n)
    u = (ug + 1.0) / 2.0
    return u, wg / 2.0 / (1.0 + u) ** 2


def _disk_grid(n: int, angle_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint angles k = 0..len(angle_weights) - 1 of n on every radial
    node of the disk, with their pointwise inverses at the same weights."""
    u, w = _radial_rule(n)
    theta = (np.arange(len(angle_weights)) + 0.5) * (2.0 * np.pi / n)
    r = np.sqrt(u)
    z_disk = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w_disk = (w[:, None] * angle_weights[None, :]).ravel()
    return np.concatenate([z_disk, 1.0 / z_disk]), np.concatenate([w_disk, w_disk])


@lru_cache(maxsize=8)
def plane_nodes(nodes_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights covering C for one variable; weights sum to 1."""
    n = nodes_per_dim
    return _disk_grid(n, np.full(n, 1.0 / n))


@lru_cache(maxsize=8)
def _folded_nodes(nodes_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``plane_nodes`` folded by z -> conj(z): angle k pairs with n - 1 - k,
    so only the angles k < n - 1 - k are kept, at twice the weight; the
    self-paired k = (n - 1) / 2 of an odd n keeps its weight.  Exact for
    an integrand with f(conj z) = f(z)."""
    n = nodes_per_dim
    angle_weights = np.full((n + 1) // 2, 2.0 / n)
    if n % 2:
        angle_weights[-1] = 1.0 / n
    return _disk_grid(n, angle_weights)


@lru_cache(maxsize=8)
def _radial_nodes(nodes_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``plane_nodes`` summed over the angle: the radii r and 1/r, each
    with the weight w / (1 + u)^2 of its whole circle.  Exact for an
    integrand that depends on the variable only through |z|."""
    u, w = _radial_rule(nodes_per_dim)
    r = np.sqrt(u)
    return np.concatenate([r, 1.0 / r]), np.concatenate([w, w])


def _axis_nodes(supports, nvars: int, n: int, real: bool) -> list:
    """Node sets for the variables of a grid, one per axis.

    ``supports`` holds one collection of exponent tuples per function.
    An axis on which each has a single exponent is angle-free and takes
    the radial nodes; with ``real`` coefficients the first axis left
    takes the folded nodes, the others the plane nodes.
    """
    axes = []
    for axis in range(nvars):
        if all(len({e[axis] for e in s}) == 1 for s in supports):
            axes.append(_radial_nodes(n))
        elif real:
            axes.append(_folded_nodes(n))
            real = False
        else:
            axes.append(plane_nodes(n))
    return axes


# ---------------------------------------------------------------------------
# exact route: Jensen's formula
# ---------------------------------------------------------------------------

def _root_sum(P: np.ndarray) -> np.ndarray:
    """1/2 sum log(1 + |c|^2) over the roots c of each row (low to high)."""
    m = P.shape[1] - 1
    companion = np.zeros((len(P), m, m), dtype=complex)
    companion[:, 1:, :-1] = np.eye(m - 1)
    companion[:, :, -1] = -P[:, :-1] / P[:, -1:]
    roots = np.linalg.eigvals(companion)
    return 0.5 * np.log1p(np.abs(roots) ** 2).sum(axis=1)


def _span_keys(nonzero: np.ndarray) -> np.ndarray:
    """lo * width + hi for the first and last True of each row, -1 if none."""
    width = nonzero.shape[1]
    lo = np.argmax(nonzero, axis=1)
    hi = width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), lo * width + hi, -1)


def _jensen_span(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_jensen_rows`` for rows whose end coefficients are nonzero."""
    if P.shape[1] <= 2:  # log |a|, or 1/2 log(|a|^2 + |b|^2)
        mod = np.abs(P)
        return 0.5 * np.log(np.einsum("ij,ij->i", mod, mod)), np.zeros(len(P))
    top, bottom = np.abs(P[:, -1]), np.abs(P[:, 0])
    forward = np.log(top) + _root_sum(P)
    backward = np.log(bottom) + _root_sum(P[:, ::-1])
    return 0.5 * (forward + backward), np.abs(forward - backward)


def _jensen_rows(C) -> tuple[np.ndarray, np.ndarray]:
    """Integral of log |p| and its measured error for each row p of C.

    Rows hold coefficients from the constant term up; zero rows give
    -inf.  The value is the mean of the integrals from the roots of p and
    from the roots of its reversal; the error is their difference.  Which
    of the two is better conditioned depends on the root geometry (for
    the roots 1..16 it is p, though its reversal is the one made monic by
    the larger end coefficient), and the mean is within the error of
    both.
    """
    C = np.asarray(C, dtype=complex)
    if len(C) and C[:, 0].all() and C[:, -1].all():
        return _jensen_span(C)
    values = np.full(len(C), -np.inf)
    errors = np.zeros(len(C))
    keys, width = _span_keys(C != 0), C.shape[1]
    # not np.unique, which imports numpy.ma (~15 ms) on its first call
    for key in sorted(set(keys[keys >= 0].tolist())):
        rows = np.flatnonzero(keys == key)
        # zero roots integrate to 0, so only coefficients lo..hi matter
        values[rows], errors[rows] = _jensen_span(C[rows, key // width:key % width + 1])
    return values, errors


def _integer_poly(f: MultiPoly) -> MultiPoly | None:
    """f with int coefficients when every coefficient is an integer."""
    for c in f.coeffs.values():
        if not isinstance(c, numbers.Integral) and not (
            isinstance(c, numbers.Real) and float(c).is_integer()
        ):
            return None
    return MultiPoly(f.nvars, {e: int(c) for e, c in f.coeffs.items()})


def _jensen_1var(f: MultiPoly) -> tuple[float, float]:
    """Exact integral of log |f| for a nonzero univariate f, with its error."""
    ints = _integer_poly(f)
    if ints is None:
        parts, const = [(1, f)], 0.0
    else:
        # f = const * prod a^m with squarefree a: integrate each a once
        parts = _squarefree_parts(ints)
        const = math.log(abs(ints.coeffs[(ints.deg(0),)])) - sum(
            m * math.log(abs(a.coeffs[(a.deg(0),)])) for m, a in parts
        )
    width = 1 + max(a.deg(0) for _, a in parts)
    rows = [[a.coeffs.get((i,), 0) for i in range(width)] for _, a in parts]
    values, errors = _jensen_rows(rows)
    mult = np.array([m for m, _ in parts], dtype=float)
    value = const + float(mult @ values)
    return value, float(mult @ errors) + _ROUNDING * (1 + abs(value))


def _slices(f: MultiPoly, axis: int) -> dict[int, MultiPoly]:
    """Coefficients of a bivariate f in variable ``axis``, each a
    univariate polynomial in the other variable."""
    out: dict[int, dict] = {}
    for e, c in f.coeffs.items():
        out.setdefault(e[axis], {})[(e[1 - axis],)] = c
    return {j: MultiPoly(1, d) for j, d in out.items()}


def _split_content(f: MultiPoly, axis: int) -> tuple[MultiPoly, MultiPoly]:
    """(c, g) with f = c * g exactly: c is the primitive gcd of the
    coefficients of f in variable ``axis`` (a polynomial in the other
    variable, never zero), g is integral by Gauss's lemma."""
    slices = _slices(f, axis)
    c = _univ_poly_gcd(list(slices.values()))
    if c.deg(0) == 0:
        return MultiPoly.constant(1, 1), f
    g = {}
    for j, a in slices.items():
        for (i,), v in _exact_div(a, c).coeffs.items():
            g[(i, j) if axis == 1 else (j, i)] = v
    return c, MultiPoly(2, g)


def _squarefree_in_z2(g: MultiPoly) -> bool:
    """Certify an integer bivariate g squarefree in z2 over Q(z1)."""
    d, D = g.deg(1), g.deg(0)
    if d < 2:
        return True
    slices = _slices(g, 1)
    for k in range((2 * d - 1) * D + 1):
        r = (k + 1) // 2 if k % 2 else -(k // 2)  # 0, 1, -1, 2, -2, ...
        p = MultiPoly(1, {(j,): a(r) for j, a in slices.items()})
        if p.deg(0) == d and _univ_poly_gcd([p, _derivative(p)]).deg(0) == 0:
            return True
    return False


_BLOCK = 1 << 20  # complex entries per block of inner integrals in _outer


def _outer(G: np.ndarray, D: np.ndarray, n: int):
    """Outer z1-integrals over exact inner z2-integrals, with errors.

    G[r, i, j] is the coefficient of z1^i z2^j of row r, D[r] its
    z1-degree.  Runs on n and on n // 2 nodes.
    """
    # rows sharing the span of z2-powers present get inner polynomials
    # whose end coefficients vanish at no node (but at isolated zeros)
    keys, width2 = _span_keys((G != 0).any(axis=1)), G.shape[2]
    # for real g, conjugating z2 too gives I(conj z1) = I(z1): fold z1
    nodes = plane_nodes if G.imag.any() else _folded_nodes
    results = []
    for m in (n, n // 2):
        z, w = nodes(m)
        powers = z[:, None] ** np.arange(G.shape[1])[None, :]
        potential = 0.5 * np.log1p(np.abs(z) ** 2)
        value, inner_err = np.empty(len(G)), np.empty(len(G))
        for key in sorted(set(keys.tolist())):  # not np.unique, as in _jensen_rows
            group = np.flatnonzero(keys == key)
            span = slice(key // width2, key % width2 + 1)
            step = max(1, _BLOCK // (len(z) * (span.stop - span.start)))
            for start in range(0, len(group), step):
                rows = group[start:start + step]
                # coefficients in z2 at every z1 node: (rows, nodes, span)
                A = (powers @ G[rows, :, span]).reshape(-1, span.stop - span.start)
                with np.errstate(divide="ignore", invalid="ignore"):
                    v, e = _jensen_span(A)
                bad = ~np.isfinite(v + e)  # an end coefficient vanished at a node
                if bad.any():
                    v[bad], e[bad] = _jensen_rows(A[bad])
                v = v.reshape(len(rows), -1) - D[rows, None] * potential
                value[rows] = v @ w + 0.5 * D[rows]
                inner_err[rows] = e.reshape(len(rows), -1) @ w
        results.append((value, inner_err))
    (fine, inner_err), (coarse, _) = results
    return fine, np.abs(fine - coarse) + inner_err


def _jensen_2var(polys, n: int):
    """Exact route for nonzero bivariate polynomials.

    Returns (values, errors, certified); rows that are not certified
    squarefree in z2 carry no value and must take the grid.
    """
    rows = len(polys)
    values, errors = np.zeros(rows), np.zeros(rows)
    certified = np.ones(rows, dtype=bool)
    outer = np.zeros(rows, dtype=bool)
    width1 = 1 + max(f.deg(0) for f in polys)
    width2 = 1 + max(f.deg(1) for f in polys)
    G = np.zeros((rows, width1, width2), dtype=complex)
    for r, f in enumerate(polys):
        ints = _integer_poly(f)
        if ints is not None:
            c2, f = _split_content(ints, 1)  # z2-content: a polynomial in z1
            c1, f = _split_content(f, 0)  # z1-content: a polynomial in z2
            if not _squarefree_in_z2(f):
                certified[r] = False
                continue
            for c in (c1, c2):
                if c.deg(0):
                    v, e = _jensen_1var(c)
                    values[r] += v
                    errors[r] += e
        if len(f.coeffs) == 1:  # a monomial c z^I integrates to log |c|
            values[r] += math.log(abs(next(iter(f.coeffs.values()))))
            continue
        outer[r] = True
        for (i, j), c in f.coeffs.items():
            G[r, i, j] = c
    D = (_span_keys((G != 0).any(axis=2)) % width1).astype(float)  # z1-degrees
    v, e = _outer(G[outer], D[outer], n)
    values[outer] += v
    errors[outer] += e
    errors += _ROUNDING * (1 + np.abs(values))
    return values, errors, certified


# ---------------------------------------------------------------------------
# grid route
# ---------------------------------------------------------------------------

# Points one grid integral may evaluate (rows x functions x grid nodes):
# about 5 s at ~5 ns a point (measured 4.7 ns on real one-variable rows at
# 512 nodes, 5.6 ns on two-variable tuples at 48; numpy 2.4, one core of a
# 2-vCPU x86 VM).  It admits a one-variable census box up to its search
# cap (at most 1e5 rows on 4 096 folded nodes) and refuses a two-variable
# box of 3.7e3 sign classes on 3.4e7 nodes.
GRID_CAP = 10 ** 9
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # radius powers (module docstring)
_TILE = 1 << 15  # float64 entries per work buffer of the grid (module docstring)


@lru_cache(maxsize=16)
def _angle_table(n: int, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(a t) and sin(a t), a < width down the rows, at the first
    ``count`` midpoint angles t = (k + 1/2) 2 pi / n: those of the plane
    nodes (count n) or of the folded nodes (count ceil(n / 2))."""
    at = np.arange(width)[:, None] * ((np.arange(count) + 0.5) * (2.0 * np.pi / n))
    return np.cos(at), np.sin(at)


@lru_cache(maxsize=16)
def _radius_powers(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """rho^a, a < width down the rows, at the 2 n radii r, 1/r of the node
    sets at n, and the same with the 1/r half negated.  The 1/r half
    carries the angles -t; |sum X_a e^(-i a t)| = |sum conj(X_a) e^(i a t)|,
    so it shares the angle table and negates Im X instead."""
    r = np.sqrt(_radial_rule(n)[0])
    powers = np.concatenate([r, 1.0 / r])[None, :] ** np.arange(width)[:, None]
    signed = powers.copy()
    signed[:, n:] *= -1.0
    return powers, signed


def _grid(C: np.ndarray, exponents, nvars: int, n: int, floor: float) -> np.ndarray:
    """Integral of log max(floor, max_i |f_ri|) on the grid, one per row r.

    ``C[r, i, j]`` is the coefficient of z^exponents[j] in function i of
    row r.  One variable is the case of a single z2 node of weight 1.
    """
    if nvars > 2:
        raise DomainError(
            "tensor grids are limited to 2 complex variables; use monte_carlo"
        )
    rows, k, _ = C.shape
    supports = [[e for e, used in zip(exponents, C[:, i].any(axis=0)) if used]
                for i in range(k)]
    real = not np.iscomplexobj(C) or not C.imag.any()
    (z1, w1), (z2, w2) = (_axis_nodes(supports, nvars, n, real)
                          + [(np.ones(1), np.ones(1))] * (2 - nvars))
    points = rows * k * len(z1) * len(z2)
    if points > GRID_CAP:
        raise SizeCapExceeded(
            f"a grid integral of {points:.3g} points exceeds the cap {GRID_CAP:.0e}; "
            "lower nodes_per_dim or use monte_carlo"
        )
    E = [tuple(e) + (0,) * (2 - nvars) for e in exponents]
    d1, d2 = (1 + max(col) for col in zip(*E))
    degree = max(map(sum, E))
    rmax = _radial_rule(n)[0][0] ** -0.5  # every axis has these radii
    if degree * math.log(rmax) > _LOG_FLOAT_MAX:
        raise SizeCapExceeded(
            f"degree {degree} on {n} nodes per dimension: the largest radius "
            f"{rmax:.4g} to that power passes the float range (at most degree "
            f"{int(_LOG_FLOAT_MAX / math.log(rmax))} there); lower nodes_per_dim"
        )
    G = np.zeros((d1, k, rows, d2), dtype=float if real else complex)
    for j, (a, b) in enumerate(E):
        G[a, :, :, b] += (C[:, :, j].real if real else C[:, :, j]).T
    P2 = z2[None, :] ** np.arange(d2)[:, None]
    radii, count = 2 * n, len(z1) // (2 * n)  # radial nodes: one angle, 0
    tables = _angle_table(n, count, d1) if count > 1 else None
    powers = _radius_powers(n, d1)
    W1 = w1.reshape(radii, count)  # node sets are radius-major
    # |f|^2 below the smallest normal float is not representable
    floor2 = max(floor * floor, sys.float_info.min)
    # a tile holds X at t (function, column, radius) triples, a column
    # being a row at one z2 node, and |f_i|^2 at their t * count nodes; the
    # radial nodes need no X, but larger tiles there only fault in fresh
    # pages (a first 2-variable height call took 99 page faults, not 3)
    tile = max(1, _TILE // (k * max(count, d1)))
    rc = min(radii, tile)
    gm = min(len(z2), max(1, tile // radii))
    gr = max(1, tile // (radii * len(z2)))
    size = k * min(gr, rows) * gm * rc
    parts = 2 if not real or np.iscomplexobj(z2) else 1  # Re X, and Im X
    X = np.empty((parts, d1 * size)) if tables else None
    work = np.empty((1 + parts, size * count))
    out = np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):  # redone below
        for r0 in range(0, rows, gr):
            for m0 in range(0, len(z2), gm):
                # B[a, i, row, node] = sum_b G[a, i, row, b] z2^b
                B = np.matmul(G[:, :, r0:r0 + gr], P2[:, m0:m0 + gm])
                cols = B.shape[2:]
                for j0 in range(0, radii, rc):
                    j1 = min(j0 + rc, radii)
                    t = B[0].size * (j1 - j0)
                    re, im, *tmp = (v[:t * count].reshape(t, count) for v in work)
                    _abs2(B.reshape(d1, -1), [p[:, j0:j1] for p in powers], tables,
                          X, re, im, *tmp)
                    if k > 1:  # max_i |f_i|^2, into the spare buffer
                        re = np.maximum.reduce(re.reshape(k, -1, count), axis=0,
                                               out=im[:len(re) // k])
                    np.maximum(re, floor2, out=re)
                    np.log(re, out=re)
                    s = re.reshape(*cols, -1) @ W1[j0:j1].ravel()
                    out[r0:r0 + cols[0]] += s @ w2[m0:m0 + gm]
    out *= 0.5
    if not np.isfinite(out).all():
        # |f|^2 passed 2^1024: the rows whose sum |c| rho^a |z2|^b passes
        # 2^500 on the grid are redone scaled by a power of two 2^-e,
        # exactly, with their floor
        with np.errstate(over="ignore"):
            bound = np.abs(C).max(axis=1) @ rmax ** np.sum(E, axis=1)
        if not np.isfinite(bound[~np.isfinite(out)]).all():
            raise SizeCapExceeded(
                "coefficients too large for a grid integral: sum |c| r_max^deg "
                "passes the float range"
            )
        e = np.maximum(np.frexp(bound)[1] - 500, 0)
        for shift in set(e[e > 0].tolist()):
            redo = np.flatnonzero(e == shift)
            scale = 2.0 ** -shift
            out[redo] = (_grid(C[redo] * scale, exponents, nvars, n, floor * scale)
                         + shift * math.log(2.0))
    return out


def _abs2(B, powers, tables, X, re, im, tmp=None) -> None:
    """|f|^2 into ``re`` at every (column, radius, angle) of a tile, as
    rows (column, radius) by angle; ``im`` and ``tmp`` are work space.

    ``B[a, c]`` is the coefficient of z1^a in column c (one function of
    one row at one z2 node), ``powers`` the tile's slice of
    ``_radius_powers``.  With X_a = B_a rho^a, formed a-major along the
    radii, Re f = Re X @ cos - Im X @ sin and Im f = Re X @ sin + Im X @ cos:
    two real matrix products when X is real, four otherwise.  At the one
    angle 0 of the radial nodes (no ``tables``), f = B^T @ rho^a directly.
    """
    d1, m = B.shape
    rc = powers[0].shape[1]
    cplx = B.dtype.kind == "c"
    if tables is None:
        np.matmul(B.real.T, powers[0], out=re.reshape(m, rc))
        if cplx:
            np.matmul(B.imag.T, powers[1], out=im.reshape(m, rc))
    else:
        cos, sin = tables
        x, *y = (np.multiply(part[:, :, None], p[:, None, :],
                             out=buf[:d1 * m * rc].reshape(d1, m, rc)).reshape(d1, -1).T
                 for part, p, buf in zip((B.real, B.imag) if cplx else (B,), powers, X))
        np.matmul(x, cos, out=re)
        np.matmul(x, sin, out=im)
        if cplx:
            re -= np.matmul(y[0], sin, out=tmp)
            im += np.matmul(y[0], cos, out=tmp)
    np.multiply(re, re, out=re)
    if tables is not None or cplx:
        np.multiply(im, im, out=im)
        re += im


def _grid_with_error(C, exponents, nvars: int, n: int, floor: float):
    """``_grid`` and its node-doubling difference (n against n / 2 nodes)."""
    value = _grid(C, exponents, nvars, n, floor)
    return value, np.abs(value - _grid(C, exponents, nvars, n // 2, floor))


def _log_max_abs(polys, axes) -> np.ndarray:
    vals = None
    for f in polys:
        a = np.abs(f.eval_grid(axes))
        vals = a if vals is None else np.maximum(vals, a, out=vals)
    np.maximum(vals, _TINY, out=vals)
    return np.log(vals, out=vals)


class _OmegaSampler:
    """Seeded points of C drawn from omega, written into arrays the caller
    owns, through work buffers sized for ``batch`` points (module
    docstring)."""

    def __init__(self, seed: int, batch: int):
        self.rng = np.random.default_rng(seed)
        m = batch * 13 // 10 + 64  # 4 / pi draws a point, plus a margin
        self.w = np.empty(m, dtype=complex)
        self.s = np.empty(m)
        self.t = np.empty(m)
        self.scale = np.empty(batch)

    def fill(self, out: np.ndarray) -> None:
        """Fill the complex 1-d array ``out`` with independent points.

        w is uniform on the disk |w| < 1/2, by rejection from the square
        [-1/2, 1/2)^2, and z = w / sqrt(1/4 - |w|^2).  Each round draws
        for the points still missing, up to the buffer size, and drops
        surplus accepted draws, so the seed fixes every point.
        """
        filled = 0
        while filled < len(out):
            need = min(len(out) - filled, len(self.scale))
            m = need * 13 // 10 + 64
            w, s, t = self.w[:m], self.s[:m], self.t[:m]
            self.rng.random(out=w.view(float))
            w -= 0.5 + 0.5j
            np.multiply(w.real, w.real, out=s)
            np.multiply(w.imag, w.imag, out=t)
            s += t
            idx = np.flatnonzero(s < 0.25)[:need]
            scale = self.scale[:len(idx)]
            np.take(s, idx, out=scale)
            np.subtract(0.25, scale, out=scale)
            np.sqrt(scale, out=scale)
            np.divide(1.0, scale, out=scale)
            z = out[filled:filled + len(idx)]
            np.take(w, idx, out=z)
            z *= scale
            filled += len(idx)


def _integrate_monte_carlo(polys, nvars: int, cfg: QuadratureConfig):
    sampler = _OmegaSampler(cfg.seed, _MC_BATCH)
    points = np.empty((nvars, _MC_BATCH), dtype=complex)
    acc = acc2 = 0.0
    for start in range(0, cfg.sample_count, _MC_BATCH):
        axes = list(points[:, :min(_MC_BATCH, cfg.sample_count - start)])
        for axis in axes:
            sampler.fill(axis)
        vals = _log_max_abs(polys, axes)
        acc += float(np.sum(vals))
        acc2 += float(vals @ vals)
    mean = acc / cfg.sample_count
    var = max(acc2 / cfg.sample_count - mean * mean, 0.0)
    return mean, 3.0 * math.sqrt(var / cfg.sample_count)


def _integrate(polys, cfg: QuadratureConfig, grid_error: bool):
    polys = list(polys)
    if not polys:
        raise AllZero("no polynomials given")
    nvars = polys[0].nvars
    if any(f.nvars != nvars for f in polys):
        raise DomainError("polynomials must share the variable count")
    polys = [f for f in polys if not f.is_zero]
    if not polys:
        raise AllZero("log max |f_i| is identically -infinity")
    if nvars == 0 or (len(polys) == 1 and len(polys[0].coeffs) == 1):
        # a monomial c z^I: log |z_i| is odd under z_i -> 1/z_i
        return math.log(max(abs(c) for f in polys for c in f.coeffs.values())), 0.0
    if cfg.scheme == "monte_carlo":
        return _integrate_monte_carlo(polys, nvars, cfg)
    n = cfg.nodes_per_dim
    if len(polys) == 1 and nvars == 1:
        return _jensen_1var(polys[0])
    if len(polys) == 1 and nvars == 2:
        values, errors, certified = _jensen_2var(polys, n)
        if certified[0]:
            return float(values[0]), float(errors[0])
    exponents = sorted({e for f in polys for e in f.coeffs})
    C = np.array([[[f.coeffs.get(e, 0) for e in exponents] for f in polys]], dtype=complex)
    if not grid_error:
        return float(_grid(C, exponents, nvars, n, _TINY)[0]), math.nan
    value, error = _grid_with_error(C, exponents, nvars, n, _TINY)
    return float(value[0]), float(error[0])


def integrate_log_max(polys, cfg: QuadratureConfig) -> float:
    """Integral of log max_i |f_i| against the product Fubini-Study volume.

    The f_i must share a variable count; raises ``AllZero`` when every
    f_i vanishes identically (the integral is -infinity).  A monomial
    c z^I gives log |c| on every scheme; a single polynomial in one or
    two variables on the tensor scheme is integrated exactly (see the
    module docstring); the rest use the grid or Monte Carlo.
    """
    return _integrate(polys, cfg, grid_error=False)[0]


def integrate_log_max_with_error(polys, cfg: QuadratureConfig) -> tuple[float, float]:
    """``integrate_log_max`` with its measured error (module docstring)."""
    return _integrate(polys, cfg, grid_error=True)


def batched_log_integrals(
    coeff_matrix: np.ndarray, exponents, nvars: int, cfg: QuadratureConfig,
    floor_at_one: bool = False,
) -> np.ndarray:
    """Fubini-Study log-integrals for many polynomials sharing a support.

    Row j of ``coeff_matrix`` holds the coefficients of one polynomial on
    the common ``exponents`` (tuples of length nvars).  With
    ``floor_at_one`` the integrand is log max(1, |f|) instead of log |f|
    and runs on the grid; log |f| takes the exact route of
    ``batched_log_integrals_with_error``.  Rows that are identically zero
    integrate to -inf (or 0 when floored).
    """
    if floor_at_one and cfg.scheme == "tensor_gauss" and nvars <= 2:
        # one pass, no error
        rows = np.asarray(coeff_matrix)[:, None]
        return _grid(rows, exponents, nvars, cfg.nodes_per_dim, 1.0)
    return batched_log_integrals_with_error(
        coeff_matrix, exponents, nvars, cfg, floor_at_one
    )[0]


def batched_log_integrals_with_error(
    coeff_matrix: np.ndarray, exponents, nvars: int, cfg: QuadratureConfig,
    floor_at_one: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of log |f| and their measured errors, one per row.

    Rows are integrated by Jensen's formula, batched: one variable
    straight from the roots (no squarefree split: a repeated root shows
    in the measured error), two variables as in the module docstring,
    with the exact content split and certificate for integer rows.
    Uncertified rows, and every row of log max(1, |f|) with
    ``floor_at_one``, take the grid and report its node-doubling
    difference.  Zero rows integrate to -inf with error 0.  More than two
    variables are refused with ``DomainError`` before any integral.
    """
    if nvars > 2:
        raise DomainError("batched integrals are limited to 2 complex variables")
    if cfg.scheme != "tensor_gauss":
        raise DomainError("batched integrals support the tensor scheme only")
    coeff_matrix = np.asarray(coeff_matrix)
    n = cfg.nodes_per_dim
    if floor_at_one:
        return _grid_with_error(coeff_matrix[:, None], exponents, nvars, n, 1.0)
    values = np.full(len(coeff_matrix), -np.inf)
    errors = np.zeros(len(coeff_matrix))
    live = np.flatnonzero(np.any(coeff_matrix != 0, axis=1))
    if nvars == 1:
        C = np.zeros((len(coeff_matrix), 1 + max(e[0] for e in exponents)), dtype=complex)
        for k, e in enumerate(exponents):
            C[:, e[0]] += coeff_matrix[:, k]
        values[live], errors[live] = _jensen_rows(C[live])
        errors[live] += _ROUNDING * (1 + np.abs(values[live]))
        return values, errors
    grid = live
    if nvars == 2:
        polys = [
            MultiPoly(2, dict(zip(exponents, coeff_matrix[r].tolist()))) for r in live
        ]
        v, e, certified = _jensen_2var(polys, n)
        values[live], errors[live] = v, e
        grid = live[~certified]
    if len(grid):
        values[grid], errors[grid] = _grid_with_error(
            coeff_matrix[grid, None], exponents, nvars, n, _TINY
        )
    return values, errors
