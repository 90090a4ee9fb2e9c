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
which the seeded Monte Carlo sampler takes over.  The error is the
node-doubling difference (n against n / 2 nodes), and three standard
errors for Monte Carlo.

Every node set is radii times angles: the 2 n radii r and 1/r, each at
the n plane angles, the ceil(n / 2) folded ones or the one angle 0 of the
radial nodes; its 1/r half holds the pointwise inverses 1/w of its inner
half w.  One overflow policy serves every route, so that no degree and no
coefficient size is refused for its float range.  Reversal: at a node
1/w the reversal is evaluated at w, |f(1/w)| = |w|^-D |w^D f(1/w)|, so no
radius power exceeds 1; the grid reverses each variable with D = d - 1,
the largest exponent of its rows there, and the exact route reverses z1
with the row's z1-degree D, which keeps the z2-roots, adds D log |z1| to
log |A| and turns the potential term into -D/2 log(1 + |w|^2).  Shift:
each row is scaled by one power of two 2^-s before any coefficient
becomes a float (``_shifted``), with e the largest exponent of the row,
|c| < 2^e (the bit length of a Python int, the frexp exponent of a
float): s = 0 while |e| + log2(terms) <= 509, else s brings the row's sum
of |c| to 2^509, so |f|^2 stays below 2^1018 at every node and log |f|
gains s log 2.  Floor: a node's |f|^2 is F |g|^2 with F = 2^2s |w|^-2D,
and log max(floor^2, |f|^2) = log F + log max(floor^2 / F, |g|^2), with
|g|^2 floored at the smallest normal float (the floor 1e-300 of
log max_i |f_i| acts as ~1.5e-154 where F = 1) and log F summed apart
with the weights; where F = 1, the inner half of an unshifted row, this
is the forward arithmetic, and an exact zero of f at a node with F > 1
counts F times higher, which moves only integrands singular on the
nodes, such as (z1 - z2)^2, within their error.  The shift is per row:
with radii at most 1 the row's largest coefficient bounds every ring, and
only a row whose terms span more than ~2^1000 between rings is floored at
2^(s - 511) on its inner rings.  Five caps refuse with
``SizeCapExceeded`` before anything is allocated, solved or sampled:
``EXACT_1VAR_CAP`` on the exact one-variable route's degree^3, plus
degree^4 / 16 for Yun's split of four or more integer terms (~5 s, before
any gcd), ``GRID_CAP`` on grid points times coefficient width (~5 s),
``EXACT_CAP`` on the exact two-variable route's z1 nodes times
(z2-degree)^3 (~4.5 s), ``TABLE_CAP`` on the floats of either route's
power tables (128 MB), and ``MC_WORK_CAP`` on the rows times samples of
a batched Monte Carlo integral (~0.5-1.3 s).

``_grid`` takes the 1/r half of the z1 nodes at the angles +theta where
the node sets carry -theta, which permutes the nodes at equal weights:
the plane angles are symmetric under theta -> -theta, and a folded axis
has real coefficients, so |f(conj z1, conj z2)| = |f(z1, z2)| while
every z2 node set is closed under conjugation.  ``_grid`` evaluates in
real arithmetic on that structure.  Each function is separable,
f = sum_a z1^a B_a(z2) with B_a(z2) = sum_b c_ab z2^b, so the B_a are
formed once per z2 node (a column; one variable is the case of a single
z2 node), and at a radius rho, with X_a = B_a rho^a,
Re f = Re X @ cos(a theta) - Im X @ sin(a theta) and
Im f = Re X @ sin(a theta) + Im X @ cos(a theta) are real matrix
products against tables cached per (n, width): two for real X, four for
complex X.  At the one angle 0 of the radial nodes, f = sum_a B_a rho^a
is a single product with the table of rho^a, and no X is formed.  The
integrand is then 1/2 log max(floor^2, max_i (Re^2 f_i + Im^2 f_i)),
with no hypot.  The work runs in tiles of at most ``_TILE`` = 2^15
floats (256 kB) per buffer, through buffers allocated once per call.
Against complex evaluation with np.abs in blocks of 2^20 complex entries
(16 MB), a grid point costs ~5 ns instead of ~13-16 ns, and the
``census sh-set`` box of a = 0.22, h = 4.6 peaks at 0.8 MB of numpy
buffers instead of 25 MB (numpy 2.4, one core of a 2-vCPU x86 VM).

Tables that do not depend on the coefficients are built once and cached,
read-only (``setflags(write=False)``), so that no caller can change a
later integral by writing into them: the Gauss-Legendre rule and the
plane, folded and radial node sets per n (``lru_cache`` maxsize 8 each);
the angle tables per (n, angle count, width) and the radius powers per
(n, width) of the grid (16 each); and, for the outer integral of the exact
route, the powers z^i of the inner z1 nodes and the potential
1/2 log(1 + |z|^2) per (node set, n, width) (16).  A small integral then
pays for its nodes, not for its set-up.

Monte Carlo route (scheme ``monte_carlo``, any number of variables).
``_monte_carlo`` reads the rows that ``_grid`` reads, coefficients
C[row, function, exponent] on one exponent list.  A single tuple is one
row; ``batched_log_integrals_with_error`` integrates rows of
log max(1, |f|), such as those of the ``census sh-set`` box, as the
tuples (1, f), all on one sample stream, while plain rows of log |f|
keep the tensor scheme.  The estimate is the mean of log max_i |f_i|
over ``sample_count`` seeded samples, each variable drawn independently
from omega with no trigonometry (whose cos and sin alone cost more per
point): w is uniform on the disk |w| < 1/2, by rejection from the square
[-1/2, 1/2)^2, and z = w / sqrt(1/4 - |w|^2).  Then s = 4 |w|^2 is
uniform on [0, 1] and independent of the uniform angle, so
|z|^2 = s / (1 - s) has the law of omega, which gives |z|^2 <= t the
mass t / (1 + t).  Samples come ``_MC_BATCH`` = 4096 at a time, shared
by every row.  Each axis of a batch takes its points in rounds: for the
``need`` points still missing, a round reads ``_round(need)`` candidates
and keeps the first ``need`` accepted, so a seed fixes every point.  The
first rounds of all axes are drawn in one generator call and mapped to z
at once; the axes read them through a cursor, and a short round (4.5
standard deviations off at a full batch) reads on from it: the points of
one draw per axis and round, at half the numpy calls.  Each f_i runs
nested Horner's rule (``multipoly.horner_steps``), one multiply and one
add per coefficient and variable, half the time of one product per
monomial on (z1 + 1)(z2 + 3)(z3 + 5), with the powers z_j^k formed once
per batch.  Candidates, points, powers, registers and |f_i| live in
buffers allocated once per integral: per-batch 64 kB temporaries sat at
the heap top, which glibc trims after each batch, and were faulted in
again by every batch (14 976 minor faults against 362 for one
10^6-sample job, 20 % slower).  Each row takes one shift, as a grid row
does; a sample at which |f_i| still passes the float range (|z|^D past
2^1024) is refused with ``SizeCapExceeded``, so no NaN is averaged.
Timings: numpy 2.4 on a 2-vCPU x86 VM.
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
    horner_steps,
    power,
    run_steps,
)
from .records import FrozenRecord

_TINY = 1e-300
_MC_BATCH = 4096  # Monte Carlo samples per batch (module docstring)
_ROUNDING = 1e-12  # relative rounding allowance of every exact-route error
_RANGE_BITS = 509  # a shifted row keeps sum |c| below 2^509 (module docstring)


def _shifted(C, bits: int, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(C 2^-s, s) with one power-of-two shift s per row (first axis) of C.

    e is the exponent of the row's largest modulus m, m < 2^e (the bit
    length of an int, the frexp exponent of a float), raised to the
    floor's; s = 0 while |e| + bits <= ``_RANGE_BITS``, else
    e + bits - ``_RANGE_BITS``, so that 2^bits terms of the scaled row sum
    below 2^509.  Python numbers (an object array) are scaled one by one,
    an int (s >= 0 for it) by exact division before it becomes a float; a
    float array by ldexp.
    """
    C = np.asarray(C)
    flat = C.reshape(len(C), math.prod(C.shape[1:]))
    if C.dtype == object:
        low = math.frexp(floor)[1] if floor > 0 else -math.inf
        e = [max(low, m.bit_length() if isinstance(m, int) else math.frexp(m)[1])
             for m in (max(map(abs, row), default=0) for row in flat.tolist())]
        top = max(map(abs, e), default=0)
        e = np.array(e, dtype=int)
    else:
        e = np.frexp(np.abs(flat).max(axis=1, initial=0.0))[1]
        e = np.maximum(e, math.frexp(floor)[1]) if floor > 0 else e
        top = np.abs(e).max(initial=0)
    if top + bits <= _RANGE_BITS:  # 2^0: the floats of the coefficients themselves
        return (C.astype(complex) if C.dtype == object else C), np.zeros(len(C), dtype=int)
    s = np.where(np.abs(e) + bits <= _RANGE_BITS, 0, e + bits - _RANGE_BITS)
    if C.dtype == object:  # an int past the float range has s > 0
        return np.array([[int(c) / (1 << k) if isinstance(c, numbers.Integral) and k >= 0 else
                          complex(math.ldexp(complex(c).real, -k), math.ldexp(complex(c).imag, -k))
                          for c in row] for row, k in zip(flat, s.tolist())],
                        dtype=complex).reshape(C.shape), s
    k = -s.reshape(-1, *[1] * (C.ndim - 1))
    return (np.ldexp(C.real, k) + 1j * np.ldexp(C.imag, k) if C.dtype.kind == "c"
            else np.ldexp(C, k)), s


class QuadratureConfig(FrozenRecord):
    """How to integrate: tensor Gauss-Legendre grid or seeded Monte Carlo."""

    _fields = ("scheme", "nodes_per_dim", "sample_count", "seed")

    def __new__(cls, scheme: str = "tensor_gauss", nodes_per_dim: int = 64,
                sample_count: int = 1_000_000, seed: int | None = None):
        if scheme not in ("tensor_gauss", "monte_carlo"):
            raise DomainError(f"unknown quadrature scheme {scheme!r}")
        if scheme == "tensor_gauss" and nodes_per_dim < 8:
            raise DomainError("nodes_per_dim must be >= 8")
        if scheme == "monte_carlo":
            if seed is None:
                raise DomainError("monte_carlo requires an explicit seed")
            if sample_count < 2:
                raise DomainError("sample_count must be >= 2: one sample has no "
                                  "spread to estimate an error from")
        return tuple.__new__(cls, (scheme, nodes_per_dim, sample_count, seed))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands the same ones to every call."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=8)
def _radial_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes u = r^2 on [0, 1] and the disk weights w / (1 + u)^2."""
    ug, wg = np.polynomial.legendre.leggauss(n)
    u = (ug + 1.0) / 2.0
    return _frozen(u, wg / 2.0 / (1.0 + u) ** 2)


def _disk_grid(n: int, angle_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint angles k = 0..len(angle_weights) - 1 of n on every radial
    node of the disk, with their pointwise inverses at the same weights."""
    u, w = _radial_rule(n)
    theta = (np.arange(len(angle_weights)) + 0.5) * (2.0 * np.pi / n)
    r = np.sqrt(u)
    z_disk = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w_disk = (w[:, None] * angle_weights[None, :]).ravel()
    return _frozen(np.concatenate([z_disk, 1.0 / z_disk]), np.concatenate([w_disk, w_disk]))


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
    return _frozen(np.concatenate([r, 1.0 / r]), np.concatenate([w, w]))


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
    r = np.abs(np.linalg.eigvals(companion))
    if r.max() <= 2.0 ** 500:
        return 0.5 * np.log1p(r ** 2).sum(axis=1)
    # |c|^2 nears the float range: 1/2 log(1 + |c|^2) = log |c| + 1/2 log(1 + |c|^-2)
    big = r > 2.0 ** 500
    half = 0.5 * np.log1p(np.where(big, 0.0, r) ** 2)
    half[big] = np.log(r[big]) + 0.5 * np.log1p(r[big] ** -2.0)
    return half.sum(axis=1)


def _span_keys(nonzero: np.ndarray) -> np.ndarray:
    """lo * width + hi for the first and last True of each row, -1 if none."""
    width = nonzero.shape[1]
    lo = np.argmax(nonzero, axis=1)
    hi = width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), lo * width + hi, -1)


def _span_groups(nonzero: np.ndarray) -> list[tuple[slice, list[int]]]:
    """(the columns lo..hi, its rows) for each ``_span_keys`` key >= 0 in
    increasing order, grouped in Python: numpy takes calls per group."""
    width, groups = nonzero.shape[1], {}
    for row, key in enumerate(_span_keys(nonzero).tolist()):
        if key >= 0:
            groups.setdefault(key, []).append(row)
    return [(slice(key // width, key % width + 1), groups[key]) for key in sorted(groups)]


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
    both.  Each row is integrated scaled by its ``_shifted`` power of two.
    """
    C, shift = _shifted(C, 1)
    if len(C) and C[:, 0].all() and C[:, -1].all():
        values, errors = _jensen_span(C)
    else:
        values, errors = np.full(len(C), -np.inf), np.zeros(len(C))
        for span, rows in _span_groups(C != 0):
            # zero roots integrate to 0, so only coefficients lo..hi matter
            values[rows], errors[rows] = _jensen_span(C[rows, span])
    return values + shift * math.log(2.0), errors


def _integer_poly(f: MultiPoly) -> MultiPoly | None:
    """f with int coefficients when every coefficient is an integer."""
    for c in f.coeffs.values():
        if not isinstance(c, numbers.Integral) and not (
            isinstance(c, numbers.Real) and float(c).is_integer()
        ):
            return None
    return MultiPoly._build(f.nvars, {e: int(c) for e, c in f.coeffs.items()})


# Work the exact one-variable route may take, in units of ~6 ns: D^3 for
# the two companion eigenvalue solves of degree D, and D^4 / 16 for Yun's
# split of an integer f of four or more terms, whose Euclid over Z runs
# dense (measured 4.7-5.2 s for the solves at D = 900, and 2.6 s for the
# split of a dense row with coefficients below 10 at D = 300, 5.5 s at
# 340; a trinomial's first pseudo-remainder is a binomial, so its split
# stays sparse: 0.18 s at D = 4 000; numpy 2.4, one core of a 2-vCPU x86
# VM).  It admits a trinomial of degree 928 and a dense integer row of
# degree 332, and refuses degrees 929 and 333.
EXACT_1VAR_CAP = 8 * 10 ** 8


def _jensen_1var(f: MultiPoly) -> tuple[float, float]:
    """Exact integral of log |f| for a nonzero univariate f, with its
    error.  More work than ``EXACT_1VAR_CAP`` is refused with
    ``SizeCapExceeded`` before any gcd or solve."""
    ints = _integer_poly(f)
    D = f.deg(0)
    work = D ** 3 + (D ** 4 // 16 if ints is not None and len(f.coeffs) > 3 else 0)
    if work > EXACT_1VAR_CAP:
        raise SizeCapExceeded(
            f"an exact one-variable integral of {work:.3g} units (degree^3, and degree^4 / 16 "
            f"for the squarefree split of 4 or more integer terms) exceeds the cap "
            f"{EXACT_1VAR_CAP:.0e}; lower the degree")
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
    return {j: MultiPoly._build(1, d) for j, d in out.items()}


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
    return c, MultiPoly._build(2, g)


def _squarefree_in_z2(g: MultiPoly) -> bool:
    """Certify an integer bivariate g squarefree in z2 over Q(z1)."""
    d, D = g.deg(1), g.deg(0)
    if d < 2:
        return True
    slices = _slices(g, 1)
    for k in range((2 * d - 1) * D + 1):
        r = (k + 1) // 2 if k % 2 else -(k // 2)  # 0, 1, -1, 2, -2, ...
        p = MultiPoly._build(1, {(j,): a(r) for j, a in slices.items()})
        if p.deg(0) == d and _univ_poly_gcd([p, _derivative(p)]).deg(0) == 0:
            return True
    return False


_BLOCK = 1 << 20  # complex entries per block of inner integrals in _outer
# Work the exact two-variable route may take: the 5 n^2 / 4 folded z1
# nodes of the outer integral (at n and n / 2) x (z2-degree)^3, summed
# over rows; a unit is one node's share of the two companion eigenvalue
# solves.  About
# 4.5 s at 55-70 ns a unit (measured 2.9 s for one random polynomial of
# z2-degree 20 at 64 nodes, 4.4 s at degree 25; numpy 2.4, one core of a
# 2-vCPU x86 VM).  At 64 nodes it admits z2-degree 25 and refuses 26.
EXACT_CAP = 8 * 10 ** 7


@lru_cache(maxsize=16)
def _outer_tables(nodes, n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """z^i, i < width along the columns, at the inner half z of the node
    set ``nodes(n)``, and the potential 1/2 log(1 + |z|^2) there, repeated
    for the outer half (whose nodes 1/z take the reversal at z)."""
    z = nodes(n)[0]
    z = z[:len(z) // 2]
    return _frozen(z[:, None] ** np.arange(width)[None, :],
                   np.tile(0.5 * np.log1p(np.abs(z) ** 2), 2))


def _drop_negligible_ends(A: np.ndarray) -> None:
    """Set to 0, in place, the coefficients at either end of each row of A,
    if wider than 2, below 2^-1022 of the row's largest modulus.

    A companion matrix divides by an end coefficient, and a complex
    quotient a_i / a_end is below 2 |a_i| / |a_end|, so only such an end
    can put an entry past the float range into it.  Such ends arise where
    |w|^D underflows, or nearly, on the inner rings of the outer
    z1-integral (past D ~ 180 at 64 nodes).  Dropping one changes the row
    by less than 2^-1022 of its size; a row with a zero end takes
    ``_jensen_rows``, which integrates its span.
    """
    # every |A_j| < 2^509 (the shift in ``_jensen_2var``), so only an end
    # below 2^-513 can be dropped; a row of width 2 takes no companion
    if A.shape[1] <= 2 or np.abs(A[:, [0, -1]]).min() >= 2.0 ** -513:
        return
    mod = np.abs(A)
    small = mod < mod.max(axis=1, keepdims=True) * 2.0 ** -1022
    A[np.logical_and.accumulate(small, axis=1)
      | np.logical_and.accumulate(small[:, ::-1], axis=1)[:, ::-1]] = 0


def _outer(G: np.ndarray, Grev: np.ndarray, D: np.ndarray, n: int):
    """Outer z1-integrals over exact inner z2-integrals, with errors.

    G[r, i, j] is the coefficient of z1^i z2^j of row r, D[r] its
    z1-degree and Grev[r, D[r] - i, j] = G[r, i, j] its reversal in z1.
    Runs on n and on n // 2 nodes, the 1/w half on the reversal at w
    (module docstring).
    """
    # rows sharing the span of z2-powers present get inner polynomials
    # whose end coefficients vanish at no node (but at isolated zeros)
    groups = _span_groups((G != 0).any(axis=1))
    # for real g, conjugating z2 too gives I(conj z1) = I(z1): fold z1
    nodes = plane_nodes if G.imag.any() else _folded_nodes
    results = []
    for m in (n, n // 2):
        w = nodes(m)[1]  # the weights of the inner half repeat on the outer one
        powers, potential = _outer_tables(nodes, m, G.shape[1])
        value, inner_err = np.empty(len(G)), np.empty(len(G))
        for span, group in groups:
            step = max(1, _BLOCK // (len(w) * (span.stop - span.start)))
            for start in range(0, len(group), step):
                rows = group[start:start + step]
                # coefficients in z2 at every z1 node: (rows, nodes, span)
                A = np.concatenate([powers @ G[rows, :, span], powers @ Grev[rows, :, span]],
                                   axis=1).reshape(-1, span.stop - span.start)
                _drop_negligible_ends(A)
                v, e = (_jensen_span if A[:, [0, -1]].all() else _jensen_rows)(A)
                v = v.reshape(len(rows), -1) - D[rows, None] * potential
                value[rows] = v @ w + 0.5 * D[rows]
                inner_err[rows] = e.reshape(len(rows), -1) @ w
        results.append((value, inner_err))
    (fine, inner_err), (coarse, _) = results
    return fine, np.abs(fine - coarse) + inner_err


def _jensen_2var(polys, n: int):
    """Exact route for nonzero bivariate polynomials.

    Returns (values, errors, certified); rows that are not certified
    squarefree in z2 carry no value and must take the grid.  More work
    than ``EXACT_CAP``, or power tables of the z1 nodes larger than
    ``TABLE_CAP``, is refused with ``SizeCapExceeded`` before any solve.
    """
    rows = len(polys)
    work = 5 * n * n // 4 * sum(f.deg(1) ** 3 for f in polys if len(f.coeffs) > 1)
    if work > EXACT_CAP:
        raise SizeCapExceeded(f"an exact two-variable integral of {work:.3g} units (z1 nodes x "
                              f"z2-degree^3) exceeds the cap {EXACT_CAP:.0e}; lower the degree")
    width1 = 1 + max(f.deg(0) for f in polys)
    # _outer_tables' complex z1^i, i < width1, at the inner nodes at n and
    # n / 2: 5 n^2 / 8 of them folded, 5 n^2 / 4 on the plane
    plane = any(isinstance(c, complex) and c.imag for f in polys for c in f.coeffs.values())
    table = 2 * (5 * n * n // (4 if plane else 8)) * width1
    if table > TABLE_CAP:
        raise SizeCapExceeded(f"an exact two-variable integral of z1-width {width1} needs tables "
                              f"of {table:.3g} floats, past the cap {TABLE_CAP:.3g}")
    values, errors = np.zeros(rows), np.zeros(rows)
    certified = np.ones(rows, dtype=bool)
    outer = np.zeros(rows, dtype=bool)
    width2 = 1 + max(f.deg(1) for f in polys)
    G, Grev = np.zeros((2, rows, width1, width2), dtype=complex)  # and its z1-reversal
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
        # |A_j(w)| <= sum_i |c_ij| at the nodes |w| <= 1: scaled by 2^-s,
        # each z2-polynomial keeps its roots and log |A| gains s log 2
        (coeffs,), (s,) = _shifted([list(f.coeffs.values())], width1.bit_length())
        values[r] += s * math.log(2.0)
        # f = z1^low * g, and z1^low integrates to 0: g has a z1-constant
        # term, so no inner row underflows to 0 (the integer content did this)
        low = min(i for i, _ in f.coeffs)
        for (i, j), c in zip(f.coeffs, coeffs):
            G[r, i - low, j] = Grev[r, f.deg(0) - i, j] = c
    D = (_span_keys((G != 0).any(axis=2)) % width1).astype(float)  # z1-degrees
    v, e = _outer(G[outer], Grev[outer], D[outer], n)
    values[outer] += v
    errors[outer] += e
    errors += _ROUNDING * (1 + np.abs(values))
    return values, errors, certified


# ---------------------------------------------------------------------------
# grid route
# ---------------------------------------------------------------------------

# Work one grid integral may take: evaluated points (rows x functions x
# grid nodes) times the coefficient width max(d1, d2) of the rows, the
# powers each point sums.  About 5 s at 2-3 ns a unit (measured 2.9 ns on
# real one-variable rows of width 2 at 512 nodes, 2.1 ns on a
# two-variable tuple of width 3 at 96; numpy 2.4, one core of a 2-vCPU
# x86 VM).  It admits a one-variable census box up to its search cap (at
# most 1e5 rows of width 2 on 4 096 folded nodes) and refuses a
# two-variable box of 3.7e3 sign classes on 3.4e7 nodes, or a row of
# width 10^7, before anything is allocated.
GRID_CAP = 2 * 10 ** 9
# Floats of the dense tables one integral builds, and their caches keep,
# however sparse its rows: radius powers, cos and sin and z2 powers on the
# grid, z1 powers on the exact route.  2^24 are 128 MB: radius powers of
# width 131 072 at n = 64 took 0.83 s and 192 MB of peak RSS, the outer
# tables of z1-width 3 276 2.1 s and 128 MB.  It admits (1 : z1^100000)
# and z1^2000 z2 + 1, and refuses ten times those widths.
TABLE_CAP = 1 << 24
_TILE = 1 << 15  # float64 entries per work buffer of the grid (module docstring)
# the z2 axis of a one-variable grid: one node z2 = 1 of weight 1, its
# power table z2^0, nothing lifted (log |w|^-2D = 0) and a mass of 1
_ONE_NODE = _frozen(np.ones(1), np.ones(1))
_ONE_NODE_TABLES = (*_frozen(np.ones((1, 1)), np.zeros(1)), 0.0, 1.0)


@lru_cache(maxsize=16)
def _angle_table(n: int, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(a t) and sin(a t), a < width down the rows, at the first
    ``count`` midpoint angles t = (k + 1/2) 2 pi / n: those of the plane
    nodes (count n) or of the folded nodes (count ceil(n / 2))."""
    at = np.arange(width)[:, None] * ((np.arange(count) + 0.5) * (2.0 * np.pi / n))
    return _frozen(np.cos(at), np.sin(at))


@lru_cache(maxsize=16)
def _radius_powers(n: int, width: int) -> tuple[np.ndarray, np.ndarray, float]:
    """rho^a, a < width down the rows, at the 2 n radii of the node sets at
    n: r^a at the radii r < 1, and r^(width - 1 - a) of the reversal at the
    radii 1/r.  With them the lift log r^-2(width - 1) of the reversal at
    each radius (0 at r < 1), and its integral over the radial weights."""
    u, w = _radial_rule(n)
    powers = np.sqrt(u)[None, :] ** np.arange(width)[:, None]
    lift = (width - 1) * np.concatenate([np.zeros(n), -np.log(u)])
    return (*_frozen(np.concatenate([powers, powers[::-1]], axis=1), lift), lift[n:] @ w)


def _grid(C: np.ndarray, exponents, nvars: int, n: int, floor: float) -> np.ndarray:
    """Integral of log max(floor, max_i |f_ri|) on the grid, one per row r.

    ``C[r, i, j]`` is the coefficient of z^exponents[j] in function i of
    row r.  One variable is the case of a single z2 node of weight 1.
    Each row runs shifted, and reversed at the nodes 1/w (module
    docstring).
    """
    if nvars > 2:
        raise DomainError(
            "tensor grids are limited to 2 complex variables; use monte_carlo"
        )
    E = [tuple(e) + (0,) * (2 - nvars) for e in exponents]
    d1, d2 = (1 + max(col) for col in zip(*E))
    C, shift = _shifted(C, len(E).bit_length(), floor)
    rows, k, _ = C.shape
    supports = [[e for e, used in zip(exponents, mask) if used]
                for mask in (C != 0).any(axis=0).tolist()]
    real = C.dtype.kind != "c" or not C.imag.any()
    (z1, w1), (z2, w2) = _axis_nodes(supports, nvars, n, real) + [_ONE_NODE] * (2 - nvars)
    points, width = rows * k * len(z1) * len(z2), max(d1, d2)
    if points * width > GRID_CAP:
        raise SizeCapExceeded(
            f"a grid integral of {points:.3g} points of coefficient width {width} exceeds "
            f"the cap {GRID_CAP:.0e} on their product; lower nodes_per_dim or use monte_carlo"
        )
    radii, count = 2 * n, len(z1) // (2 * n)  # radial nodes: one angle, 0
    table = d1 * (radii + 2 * count * (count > 1)) + 2 * d2 * len(z2) * (nvars == 2)
    if table > TABLE_CAP:
        raise SizeCapExceeded(f"a grid integral of coefficient width {width} needs tables of "
                              f"{table:.3g} floats, past the cap {TABLE_CAP:.3g}")
    G = np.zeros((d1, k, rows, d2), dtype=float if real else complex)
    for j, (a, b) in enumerate(E):
        G[a, :, :, b] += (C[:, :, j].real if real else C[:, :, j]).T
    # at the nodes 1/w, |f|^2 is |w|^-2D times that of the reversal at w,
    # D = d - 1: log |w|^-2D on each half and radius (0 on the inner one)
    powers, lw1, lift1 = _radius_powers(n, d1)
    P2, lw2, lift2, mass2 = _ONE_NODE_TABLES  # z2^b and log |w|^-2D at one node z2 = 1
    if nvars == 2:
        half = z2[:len(z2) // 2]
        P2 = np.hstack([half ** np.arange(d2)[:, None], half ** np.arange(d2)[::-1, None]])
        lw2 = (d2 - 1) * -np.log(np.abs(np.hstack([half ** 0, half])) ** 2)
        lift2, mass2 = w2 @ lw2, w2.sum()
    tables = _angle_table(n, count, d1) if count > 1 else None
    W1 = w1.reshape(radii, count)  # node sets are radius-major
    # log max(floor^2, |f|^2) = lift + log max(floor^2 e^-lift, |f 2^-s w^D|^2)
    # with lift = 2 s log 2 + log |w|^-2D, floored at the smallest normal float
    # and integrated apart from the grid values
    scaled = shift.any()
    shift2 = shift * (2.0 * math.log(2.0)) if scaled else 0.0
    floor2 = max(floor * floor, sys.float_info.min)
    lift = (lift2 + shift2 * mass2) * W1.sum() + lift1 * mass2  # weights sum to ~1
    least = shift2.min(initial=0.0) if scaled else 0.0
    binds = 2.0 * math.log(floor) - least > math.log(sys.float_info.min)
    # a tile holds X at t (function, column, radius) triples, a column
    # being a row at one z2 node, and |f_i|^2 at their t * count nodes; the
    # radial nodes need no X, but larger tiles there only fault in fresh
    # pages (a first 2-variable height call took 99 page faults, not 3)
    tile = max(1, _TILE // (k * max(count, d1)))
    # a grid that fills more than one tile takes its radii by halves, so that
    # a chunk below 1 lifts nothing
    rc = min(radii if rows * len(z2) * radii <= tile else n, tile)
    gm = min(len(z2), max(1, tile // rc))
    gr = max(1, tile // (rc * len(z2)))
    size = k * min(gr, rows) * gm * rc
    parts = 2 if not real or z2.dtype.kind == "c" else 1  # Re X, and Im X
    X = np.empty((parts, d1 * size)) if tables else None
    work = np.empty((1 + parts, size * count))
    out = np.zeros(rows)
    for r0 in range(0, rows, gr):
        lifted = scaled and shift[r0:r0 + gr].any()
        for m0 in range(0, len(z2), gm):
            # B[a, i, row, node] = sum_b G[a, i, row, b] z2^b
            B = np.matmul(G[:, :, r0:r0 + gr], P2[:, m0:m0 + gm])
            cols = B.shape[2:]
            for j0 in range(0, radii, rc):
                j1 = min(j0 + rc, radii)
                t = B[0].size * (j1 - j0)
                re, im, *tmp = (v[:t * count].reshape(t, count) for v in work)
                _abs2(B.reshape(d1, -1), powers[:, j0:j1], tables,
                      X, re, im, *tmp)
                if k > 1:  # max_i |f_i|^2, into the spare buffer
                    re = np.maximum.reduce(re.reshape(k, -1, count), axis=0,
                                           out=im[:len(re) // k])
                # the floor in the units of each node: floor^2 where nothing is
                # lifted (lw1 > 0 at the radii past n, lw2 at the z2 nodes past half)
                plain = not (lifted or d1 > 1 and j1 > n or d2 > 1 and m0 + gm > len(z2) // 2)
                nodes = re.reshape(*cols, j1 - j0, count)
                np.maximum(nodes, floor2 if plain else np.exp(np.maximum(
                    2.0 * math.log(floor) - lw1[j0:j1] - lw2[m0:m0 + gm, None]
                    - (shift2[r0:r0 + gr, None, None] if scaled else 0.0),
                    math.log(sys.float_info.min)))[..., None]
                    if binds else sys.float_info.min, out=nodes)
                np.log(re, out=re)
                s = re.reshape(*cols, -1) @ W1[j0:j1].ravel()
                out[r0:r0 + cols[0]] += s @ w2[m0:m0 + gm]
    return 0.5 * (out + lift)


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
    rc = powers.shape[1]
    cplx = B.dtype.kind == "c"
    if tables is None:
        np.matmul(B.real.T, powers, out=re.reshape(m, rc))
        if cplx:
            np.matmul(B.imag.T, powers, out=im.reshape(m, rc))
    else:
        cos, sin = tables
        x, *y = (np.multiply(part[:, :, None], powers[:, None, :],
                             out=buf[:d1 * m * rc].reshape(d1, m, rc)).reshape(d1, -1).T
                 for part, buf in zip((B.real, B.imag) if cplx else (B,), X))
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


# Monte Carlo samples summed over the rows of one batched integral, such
# as those of an sh-set box.  The rows share one sample stream, drawn
# once per batch, and each row costs its Horner steps and one log per
# sample: at the cap, the 421 rows of d = 1, a = 0.25, h = 4 at 95 000
# samples take 0.46-0.55 s as a CLI process (1.5-2.1 s when each row drew
# its own copy of the stream), and the 14 281 rows of d = 2, a = 0.24,
# h = 4.2 at 2 500 take 1.1-1.3 s (3.4-3.5 s); 2-vCPU x86 VM, Python 3.11,
# numpy 2.4.
MC_WORK_CAP = 4 * 10 ** 7


def _round(need: int) -> int:
    """Candidates one rejection round reads for ``need`` points: 4 / pi
    candidates a point, plus a margin."""
    return need * 13 // 10 + 64


class _OmegaSampler:
    """Seeded points of C drawn from omega, written into arrays the caller
    owns (module docstring).  ``w[lo:hi]`` holds the candidates drawn and
    not yet read, already mapped to z, and ``s`` their |w|^2 (accepted
    below 1/4); the buffers hold the first rounds of ``nvars`` axes."""

    def __init__(self, seed: int, batch: int, nvars: int = 1):
        self.rng = np.random.default_rng(seed)
        m = nvars * _round(batch)
        self.w = np.empty(m, dtype=complex)
        self.s, self.t = np.empty((2, m))
        self.batch, self.lo, self.hi, self.ahead = batch, 0, 0, 0

    def _read(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The next m candidates and their s; when fewer are left, the
        rest move to the front and at least ``ahead`` more are drawn."""
        keep = self.hi - self.lo
        if keep < m:
            new = max(m, self.ahead) - keep
            self.ahead = 0
            self.w[:keep], self.s[:keep] = self.w[self.lo:self.hi], self.s[self.lo:self.hi]
            w, s, t = self.w[keep:keep + new], self.s[keep:keep + new], self.t[:new]
            self.rng.random(out=w.view(float))
            w -= 0.5 + 0.5j
            np.multiply(w.real, w.real, out=s)
            np.multiply(w.imag, w.imag, out=t)
            s += t
            with np.errstate(invalid="ignore", divide="ignore"):  # NaN where rejected
                np.subtract(0.25, s, out=t)
                np.sqrt(t, out=t)
                np.divide(1.0, t, out=t)
                w *= t
            self.lo, self.hi = 0, keep + new
        self.lo += m
        return self.w[self.lo - m:self.lo], self.s[self.lo - m:self.lo]

    def draw(self, out: np.ndarray) -> None:
        """Fill each row of the complex 2-d array ``out`` with independent
        points, row by row in rounds, the first rounds of all rows drawn
        at once."""
        self.ahead = len(out) * _round(min(out.shape[1], self.batch))
        for z in out:
            filled = 0
            while filled < len(z):
                need = min(len(z) - filled, self.batch)
                w, s = self._read(_round(need))
                idx = (s < 0.25).nonzero()[0][:need]
                w.take(idx, out=z[filled:filled + len(idx)])
                filled += len(idx)


def _monte_carlo(C, exponents, nvars: int, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of log max(_TINY, max_i |f_ri|) and three standard
    errors, one per row r, all on the same samples; ``C`` and
    ``exponents`` are read as by ``_grid``.

    Each row takes one shift (at most 2^20 terms a function) and each
    nonzero f_ri its ``horner_steps``, a constant f_ri only raising the
    floor; the powers of the axes they use are formed once per batch, and
    every f_ri runs in the same ``nvars`` registers.
    """
    C, shift = _shifted(C, 20)
    programs, operands = [], set()
    for row in C.tolist():
        steps = [horner_steps(MultiPoly(nvars, dict(zip(exponents, coeffs))))
                 for coeffs in row if any(coeffs)]
        # |c| of a constant f_i as np.abs takes it on an array
        top = max([float(np.abs(np.full(1, c))[0]) for _, (k, c) in steps if k == "c"] + [_TINY])
        programs.append(([run for run in steps if run[1][0] == "r"], top))
        operands.update(o for run, _ in steps for step in run for o in step[1:] if o[0] in "pr")
    count, batch = cfg.sample_count, min(_MC_BATCH, cfg.sample_count)
    sampler = _OmegaSampler(cfg.seed, batch, nvars)
    points = np.empty((nvars, batch), dtype=complex)
    buffers = {o: np.empty(batch, dtype=complex) for o in operands}
    vals, tmp = np.empty((2, batch))
    sums = np.zeros((len(programs), 2))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for start in range(0, count, batch):
            m = min(batch, count - start)
            sampler.draw(points[:, :m])
            views = {o: buf[:m] for o, buf in buffers.items()}
            values = {o: power(points[o[1], :m], o[2], out=buf)
                      for o, buf in views.items() if o[0] == "p"}
            values.update((("x", i), z) for i, z in enumerate(points[:, :m]))
            v, t = vals[:m], tmp[:m]
            for r, (evals, top) in enumerate(programs):
                for i, (steps, result) in enumerate(evals):
                    np.abs(run_steps(steps, result, values, views), out=t if i else v)
                    if i:
                        np.maximum(v, t, out=v)
                if evals:
                    np.maximum(v, top, out=v)
                else:
                    v.fill(top)
                np.log(v, out=v)
                sums[r, 0] += float(v.sum())
                sums[r, 1] += float(v @ v)
            if not np.isfinite(sums[:, 1]).all():  # |f| far out passed the float range
                raise SizeCapExceeded("a Monte Carlo sample passes the float range")
    mean = sums[:, 0] / count
    var = np.maximum(sums[:, 1] / count - mean * mean, 0.0)
    return mean + shift * math.log(2.0), 3.0 * np.sqrt(var / count)


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
    n = cfg.nodes_per_dim
    if cfg.scheme == "tensor_gauss" and len(polys) == 1 and nvars == 1:
        return _jensen_1var(polys[0])
    if cfg.scheme == "tensor_gauss" and len(polys) == 1 and nvars == 2:
        values, errors, certified = _jensen_2var(polys, n)
        if certified[0]:
            return float(values[0]), float(errors[0])
    exponents = sorted({e for f in polys for e in f.coeffs})
    C = np.array([[[f.coeffs.get(e, 0) for e in exponents] for f in polys]], dtype=object)
    if cfg.scheme == "monte_carlo":
        value, error = _monte_carlo(C, exponents, nvars, cfg)
    elif grid_error:
        value, error = _grid_with_error(C, exponents, nvars, n, _TINY)
    else:
        return float(_grid(C, exponents, nvars, n, _TINY)[0]), math.nan
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
    and runs on the grid or Monte Carlo; log |f| takes the exact route of
    ``batched_log_integrals_with_error``.  Rows that are identically zero
    integrate to -inf (or 0 when floored).
    """
    if floor_at_one and cfg.scheme == "tensor_gauss":
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
    difference.  On ``monte_carlo``, log max(1, |f|) is log max |f_i| of
    the tuple (1, f), every row on the same samples with three standard
    errors, after ``MC_WORK_CAP``; log |f| is refused there.  Zero rows
    integrate to -inf with error 0.  Plain rows in more than two
    variables are refused with ``DomainError`` before any integral.
    """
    coeff_matrix = np.asarray(coeff_matrix)
    n = cfg.nodes_per_dim
    if floor_at_one and cfg.scheme == "monte_carlo":
        work = len(coeff_matrix) * cfg.sample_count
        if work > MC_WORK_CAP:
            raise SizeCapExceeded(
                f"{len(coeff_matrix)} rows x {cfg.sample_count} samples exceed the Monte Carlo "
                f"cap {MC_WORK_CAP:.0e}; lower sample_count (--mc-samples)"
            )
        # function 0 of each row is the constant 1, at the exponent 0
        exponents, zero = [tuple(e) for e in exponents], (0,) * nvars
        if zero not in exponents:
            exponents.append(zero)
            coeff_matrix = np.hstack([coeff_matrix, np.zeros_like(coeff_matrix[:, :1])])
        C = np.stack([np.zeros_like(coeff_matrix), coeff_matrix], axis=1)
        C[:, 0, exponents.index(zero)] = 1
        return _monte_carlo(C, exponents, nvars, cfg)
    if floor_at_one:
        return _grid_with_error(coeff_matrix[:, None], exponents, nvars, n, 1.0)
    if nvars > 2:
        raise DomainError("batched integrals are limited to 2 complex variables")
    if cfg.scheme != "tensor_gauss":
        raise DomainError("batched integrals support the tensor scheme only")
    if nvars == 1:
        C = np.zeros((len(coeff_matrix), 1 + max(e[0] for e in exponents)), coeff_matrix.dtype)
        for k, e in enumerate(exponents):
            C[:, e[0]] += coeff_matrix[:, k]
        values, errors = _jensen_rows(C)  # zero rows: -inf, error 0
        live = values != -np.inf
        return values, np.where(live, errors + _ROUNDING * (1 + np.abs(values)), errors)
    values = np.full(len(coeff_matrix), -np.inf)
    errors = np.zeros(len(coeff_matrix))
    grid = live = np.flatnonzero(np.any(coeff_matrix != 0, axis=1))
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
