"""The Fubini-Study integrals against independent references: mpmath
roots at 50 digits, closed forms, one-dimensional mpmath quadrature, and
the full plane grid that the exact route, the radial nodes and the
folded nodes replace."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta import quadrature
from cyclezeta.errors import DomainError, SizeCapExceeded
from cyclezeta.fs_norms import (
    BAND_FLOOR,
    count_arith_divisors_bounded,
    delta_lambda_with_error,
    v_measure_with_error,
)
from cyclezeta.height_lab import RationalFunctionPoint, height_nv, height_nv_with_error
from cyclezeta.multipoly import (
    MultiPoly,
    _squarefree_parts,
    parse_affine_polynomial,
    parse_integer_form,
)
from cyclezeta.quadrature import (
    QuadratureConfig,
    _squarefree_in_z2,
    batched_log_integrals,
    batched_log_integrals_with_error,
    integrate_log_max,
    integrate_log_max_with_error,
    plane_nodes,
)

CFG = QuadratureConfig()


def poly(text, nvars=None):
    return parse_affine_polynomial(text, nvars=nvars)


def assert_honest(f, truth, tol, cfg=CFG):
    """The value is within tol of the truth and within its own error."""
    value, err = integrate_log_max_with_error([f], cfg)
    assert abs(value - truth) <= tol, (f, value, truth)
    assert abs(value - truth) <= err, (f, value, truth, err)
    return value, err


def _mp_log_integral(coeffs):
    """log |lead| + 1/2 sum log(1 + |c|^2) from 50-digit mpmath roots."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=500, extraprec=200)
        return mpmath.log(abs(coeffs[-1])) + sum(
            mpmath.log(1 + abs(c) ** 2) for c in roots
        ) / 2


def _from_coeffs(coeffs):
    return MultiPoly(1, {(i,): c for i, c in enumerate(coeffs)})


def test_one_variable_against_mpmath_roots():
    # products of seeded integer factors with multiplicities; the
    # reference integrates each factor once from its own 50-digit roots
    rng = np.random.default_rng(2024)
    cases = [([[-1, 1]], [20], 10 * math.log(2)), ([[1, 0, 1]], [3], 3 * math.log(2))]
    while len(cases) < 52:
        count = int(rng.integers(1, 4))
        factors = []
        for _ in range(count):
            degree = int(rng.integers(1, 4))
            c = [int(x) for x in rng.integers(-5, 6, degree + 1)]
            c[-1] = c[-1] or 1
            factors.append(c)
        mults = [int(m) for m in rng.integers(1, 4, count)]
        if max(mults) == 1:
            mults[0] = 2  # at least one repeated factor
        cases.append((factors, mults, None))
    for factors, mults, truth in cases:
        f = MultiPoly.constant(1, 1)
        ref = 0.0
        for c, m in zip(factors, mults):
            f = f * _from_coeffs(c) ** m
            ref += m * float(_mp_log_integral(c))
        if truth is not None:
            assert ref == pytest.approx(truth, abs=1e-12)
        assert_honest(f, ref, 1e-10)


def test_squarefree_parts_rebuild_the_polynomial():
    for text in ("(z1 - 1)^20", "5*(z1^2 + 1)^3*(z1 - 2)", "z1^3", "7",
                 "2*z1^2*(z1 + 3)^2*(3*z1 - 1)"):
        f = poly(text)
        parts = _squarefree_parts(f)
        product = MultiPoly.constant(1, 1)
        for m, a in parts:
            product = product * a ** m
        # f is a rational multiple of the product, with equal degree
        assert product.deg(0) == f.deg(0)
        ratio = f.coeffs[(f.deg(0),)] / product.coeffs[(product.deg(0),)]
        assert all(abs(c - ratio * product.coeffs.get(e, 0)) < 1e-9
                   for e, c in f.coeffs.items())
        assert len({m for m, _ in parts}) == len(parts)
    assert [m for m, _ in _squarefree_parts(poly("(z1 - 1)^20"))] == [20]


def test_ill_conditioned_roots_show_in_the_error():
    # the roots 1..16 of a squarefree polynomial: its reversal's roots
    # 1/k crowd together, so the two root sums differ, and the
    # difference covers the error of their mean
    f = MultiPoly.constant(1, 1)
    for k in range(1, 17):
        f = f * poly(f"z1 - {k}")
    value, err = assert_honest(f, sum(0.5 * math.log(1 + k * k) for k in range(1, 17)),
                               1e-4)
    assert err > 1e-8


def test_roots_past_2_to_500_integrate_in_the_log_domain():
    # |c|^2 of the roots 10^151 and 2 10^151 passes the float range, so
    # 1/2 log(1 + |c|^2) is taken as log |c| + 1/2 log(1 + |c|^-2)
    f = poly("(z1 + 10^151)*(z1 + 2*10^151)")
    assert_honest(f, 302 * math.log(10) + math.log(2), 1e-9)


def test_float_and_complex_coefficients_go_to_the_roots():
    c = 0.5 + 2j
    f = MultiPoly(1, {(1,): 2.5, (0,): -2.5 * c})
    assert_honest(f, math.log(2.5) + 0.5 * math.log(1 + abs(c) ** 2), 1e-12)


def _linear_form_integral(c):
    a = abs(c) ** 2
    return 0.5 if a == 1 else 0.5 * a * math.log(a) / (a - 1)


@pytest.mark.parametrize("c", [1, 2, 5, 1j])
def test_two_variables_linear_forms(c):
    f = MultiPoly(2, {(1, 0): 1, (0, 1): -c})
    assert_honest(f, _linear_form_integral(c), 1e-12)


def test_two_variables_closed_forms():
    a = 9 / 16
    assert_honest(poly("3*z1*z2 - 4"), math.log(4) + _linear_form_integral(math.sqrt(a)),
                  1e-12)
    # contents in either variable split off exactly
    assert_honest(poly("(z1^2 + 1)*(z2 - 3)^2"), math.log(2) + math.log(10), 1e-12)
    assert_honest(poly("(z1 - 1)^20*(z1 - z2)"), 10 * math.log(2) + 0.5, 1e-12)
    # z2^2 = z1: the roots +-sqrt(z1) give log(1 + |z1|), which
    # integrates to pi/4
    with mpmath.workdps(30):
        ref = float(mpmath.quad(lambda u: mpmath.log(1 + mpmath.sqrt(u)) / (1 + u) ** 2,
                                [0, 1, mpmath.inf]))
    assert_honest(poly("z2^2 - z1"), ref, 1e-4)


def test_inner_ends_that_underflow_on_the_inner_rings():
    # z1^400 underflows to 0 on the innermost rings and is subnormal on
    # the next ones, where its companion would overflow; the inner Jensen
    # sum is log(1 + |z1|^400), which integrates over u = |z1|^2
    with mpmath.workdps(30):
        ref = float(mpmath.quad(lambda u: mpmath.log(1 + u ** 200) / (1 + u) ** 2,
                                [0, 1, 2, 10, mpmath.inf]))
    assert_honest(poly("z1^400*z2^2 + 1"), ref, 1e-6)
    # a common z1^400 of float coefficients is divided out, as the integer
    # content is: log 1/2 + 0 + log 2, where every inner row was 0
    assert_honest(MultiPoly(2, {(400, 2): 0.5, (400, 0): 0.5}), 0.0, 1e-12)
    # no closed form: it answers within a finite error
    value, err = integrate_log_max_with_error([poly("z1^200*z2^3 + z2 + 1")], CFG)
    assert math.isfinite(value) and math.isfinite(err)


def test_two_variables_converge_with_honest_errors():
    # no closed form: a 256-node run is the reference
    fine = QuadratureConfig(nodes_per_dim=256)
    for text in ("z1*z2 + z2^3 + 7", "(z1^2 + 1)*z2^2 + z1 - 5"):
        f = poly(text)
        ref, ref_err = integrate_log_max_with_error([f], fine)
        assert ref_err < 1e-6
        for nodes in (32, 64):
            value, err = integrate_log_max_with_error(
                [f], QuadratureConfig(nodes_per_dim=nodes))
            assert abs(value - ref) + ref_err <= err < 1e-3


def test_delta_of_the_diagonal_form():
    value, err = delta_lambda_with_error(parse_integer_form("X1*Y2 - Y1*X2"), 1.0, CFG)
    assert abs(value - 2.5) <= min(err, 1e-4)


def test_monomials_are_exact_in_any_dimension():
    form = parse_integer_form("3*X1*X2^2*Y3")
    assert delta_lambda_with_error(form, 0.5, CFG) == (0.5 * 4 + math.log(3), 0.0)
    mc = QuadratureConfig(scheme="monte_carlo", seed=1, sample_count=10)
    assert integrate_log_max([poly("-7*z1^3*z2", 2)], mc) == math.log(7)


def test_uncertified_polynomials_take_the_grid():
    assert _squarefree_in_z2(poly("z2^2 - z1"))
    assert not _squarefree_in_z2(poly("(z2 - z1)^2*(z2 + 1)"))
    # at z1 = 0 the z2-degree drops and 1 is squarefree; that r must not count
    assert not _squarefree_in_z2(poly("(z1*z2 + 1)^2"))
    # a square in z2 goes to the grid, which reports its node-doubling
    # difference; the truth is 2 * 1/2
    cfg = QuadratureConfig(nodes_per_dim=32)
    value, err = integrate_log_max_with_error([poly("(z1 - z2)^2")], cfg)
    assert 1e-2 < abs(value - 1.0) <= err


def test_monte_carlo_reports_its_standard_error():
    mc = QuadratureConfig(scheme="monte_carlo", seed=5, sample_count=200_000)
    v, err = v_measure_with_error(poly("z1 + 1"), mc)
    assert 0 < err < 0.05
    assert abs(v - math.sqrt(2)) <= err


def test_monte_carlo_needs_two_samples_for_an_error():
    # one sample has no spread: its standard error would read 0
    with pytest.raises(DomainError, match="sample_count must be >= 2"):
        QuadratureConfig(scheme="monte_carlo", seed=1, sample_count=1)
    mc = QuadratureConfig(scheme="monte_carlo", seed=1, sample_count=2)
    value, err = integrate_log_max_with_error([poly("(z1 + 1)*(z2 + 3)*(z3 + 4)")], mc)
    assert math.isfinite(value) and err > 0


def _omega_points(seed, count):
    points = np.full(count, np.nan, dtype=complex)
    quadrature._OmegaSampler(seed, quadrature._MC_BATCH).draw(points[None])
    return points


@pytest.mark.parametrize("count", [1, 10, 8193])
def test_sampler_fills_exactly_count_points(count):
    points = _omega_points(3, count)
    assert points.shape == (count,) and np.isfinite(points).all()
    assert np.array_equal(points, _omega_points(3, count))  # the seed fixes them


def test_sampler_draws_the_fubini_study_measure():
    z = _omega_points(11, 200_000)
    n = len(z)
    # |z|^2 <= t has mass t / (1 + t), so u = |z|^2 / (1 + |z|^2) is uniform
    u = np.sort(np.abs(z) ** 2 / (1 + np.abs(z) ** 2))
    ranks = np.arange(1, n + 1) / n
    ks = max(np.max(ranks - u), np.max(u - (ranks - 1 / n)))
    assert ks <= 1.63 / math.sqrt(n)  # the 1 % Kolmogorov-Smirnov distance
    # and the angle is uniform
    assert abs(np.mean(z / np.abs(z))) <= 4 / math.sqrt(n)


def _per_axis_rounds(seed, axes, count, batch=quadrature._MC_BATCH):
    """The points of ``axes`` variables, a batch at a time, each axis in
    rounds of ``_round(need)`` fresh candidates of its own: the sampler's
    stream written out with no cursor and no shared draw."""
    rng = np.random.default_rng(seed)
    points = np.empty((axes, count), dtype=complex)
    for start in range(0, count, batch):
        for z in points[:, start:start + batch]:
            filled = 0
            while filled < len(z):
                need = len(z) - filled
                w = rng.random(2 * quadrature._round(need)).view(complex) - (0.5 + 0.5j)
                s = w.real * w.real + w.imag * w.imag
                idx = np.flatnonzero(s < 0.25)[:need]
                z[filled:filled + len(idx)] = w[idx] * (1.0 / np.sqrt(0.25 - s[idx]))
                filled += len(idx)
    return points


def _batched_draw(seed, axes, count, batch=quadrature._MC_BATCH):
    """The points of one multi-axis draw per batch, and those of ``axes``
    sequential one-axis draws per batch."""
    drawn, filled = np.empty((2, axes, count), dtype=complex)
    shared = quadrature._OmegaSampler(seed, batch, axes)
    single = quadrature._OmegaSampler(seed, batch)
    for start in range(0, count, batch):
        shared.draw(drawn[:, start:start + batch])
        for z in filled[:, start:start + batch]:
            single.draw(z[None])
    return drawn, filled


@pytest.mark.parametrize("count", [2, quadrature._MC_BATCH - 1, quadrature._MC_BATCH,
                                   quadrature._MC_BATCH + 1, 10 ** 5 + 1])
def test_one_draw_for_all_axes_gives_the_points_of_one_fill_per_axis(count):
    drawn, filled = _batched_draw(5, 3, count)
    assert np.array_equal(drawn, filled)
    assert np.array_equal(drawn, _per_axis_rounds(5, 3, count))


@pytest.mark.parametrize("count", [2, 37, 300])
def test_a_short_round_reads_on_from_the_cursor(monkeypatch, count):
    # with no margin most rounds accept fewer points than they need, so
    # every axis reads further rounds past its first, into the
    # candidates drawn for the next axis and past the end of the batch
    needs = []

    def no_margin(need):
        needs.append(need)
        return need

    monkeypatch.setattr(quadrature, "_round", no_margin)
    drawn, filled = _batched_draw(2, 3, count, batch=64)
    assert any(need < min(count, 64) for need in needs)  # a round was short
    assert np.array_equal(drawn, filled)
    assert np.array_equal(drawn, _per_axis_rounds(2, 3, count, batch=64))


def test_census_rows_on_shared_samples_equal_single_integrals():
    # log max(1, |f|) of each row on one stream is the integral of the
    # tuple (1, f) on its own; the zero row is the monomial 1 there, and
    # the exponent list lacks z^0, which the batch supplies
    exponents = [(1, 1), (0, 1), (2, 0), (3, 0), (1, 0)]
    texts = ["3*z1*z2 - z2", "0", "-5*z1^2", "z1^2 - 4*z2", "(10^300)*z1^3 + z2"]
    rows = np.array([[poly(t, 2).coeffs.get(e, 0) for e in exponents] for t in texts],
                    dtype=object)
    one = MultiPoly.constant(1, 2)
    for count in (2, quadrature._MC_BATCH + 1, 20_000):
        mc = QuadratureConfig(scheme="monte_carlo", seed=4, sample_count=count)
        values, errors = batched_log_integrals_with_error(rows, exponents, 2, mc,
                                                          floor_at_one=True)
        assert list(zip(values.tolist(), errors.tolist())) == [
            integrate_log_max_with_error([one, poly(t, 2)], mc) for t in texts]
        assert (values[1], errors[1]) == (0.0, 0.0)
        assert np.array_equal(values, batched_log_integrals(rows, exponents, 2, mc,
                                                            floor_at_one=True))


def test_plain_monte_carlo_rows_are_refused():
    # log |f| in batches takes the exact route, which is the tensor scheme's
    mc = QuadratureConfig(scheme="monte_carlo", seed=1, sample_count=10)
    with pytest.raises(DomainError, match="^batched integrals support the tensor scheme only$"):
        batched_log_integrals_with_error(np.array([[1.0, 2.0]]), [(0,), (1,)], 1, mc)


@pytest.mark.parametrize("texts", [["z1 + 1", "z1^2 - 3"], ["(10^300)*z1^10 + z1", "1"]])
def test_monte_carlo_repeats_its_value_for_one_seed(texts):
    mc = QuadratureConfig(scheme="monte_carlo", seed=9, sample_count=10_000)
    polys = [poly(t, nvars=1) for t in texts]
    first = integrate_log_max_with_error(polys, mc)
    assert first == integrate_log_max_with_error(polys, mc)
    assert all(math.isfinite(x) for x in first)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_monte_carlo_three_variables_within_its_error(seed):
    mc = QuadratureConfig(scheme="monte_carlo", seed=seed, sample_count=200_000)
    f = poly("(z1 + 1)*(z2 + 3)*(z3 + 4)")
    value, err = integrate_log_max_with_error([f], mc)
    assert abs(value - 0.5 * math.log(340)) <= err  # Jensen: 1/2 log(2 * 10 * 17)


def test_batched_rows_match_single_polynomials():
    rng = np.random.default_rng(7)
    for nvars, exponents in ((1, [(0,), (1,), (2,), (3,)]),
                             (2, [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)])):
        rows = rng.integers(-4, 5, (20, len(exponents))).astype(float)
        rows[0] = 0
        values, errors = batched_log_integrals_with_error(rows, exponents, nvars, CFG)
        assert values[0] == -np.inf and errors[0] == 0
        assert np.array_equal(values, batched_log_integrals(rows, exponents, nvars, CFG))
        for row, value, err in zip(rows[1:], values[1:], errors[1:]):
            f = MultiPoly(nvars, dict(zip(exponents, row.tolist())))
            single, single_err = integrate_log_max_with_error([f], CFG)
            assert abs(value - single) <= err + single_err
            assert err < 1e-4


def test_census_band_is_the_measured_error():
    # X + Y has delta = 1 + log(2)/2; a bound 1e-6 above it is far
    # outside the measured band, so X + Y and X - Y are counted
    h = 1 + 0.5 * math.log(2)
    below = count_arith_divisors_bounded(1, 1.0, h + 1e-6, CFG)
    at = count_arith_divisors_bounded(1, 1.0, h, CFG)
    assert below.borderline == ()
    assert below.count == at.count + 2
    assert BAND_FLOOR >= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda c: c[-1]),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda c: c[-1]),
)
def test_log_integral_is_additive(f_coeffs, g_coeffs):
    f, g = _from_coeffs(f_coeffs), _from_coeffs(g_coeffs)
    lhs = integrate_log_max([f * g], CFG)
    rhs = integrate_log_max([f], CFG) + integrate_log_max([g], CFG)
    assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# grid route: variables the integrand sees only through |z_j|
# ---------------------------------------------------------------------------

def _direct_grid(polys, nvars, axes, floor=0.0):
    """log max(floor, max_i |f_i|) by complex Horner evaluation and np.abs,
    on the (z, w) node sets given one per axis."""
    (z1, w1), (z2, w2) = list(axes) + [(np.ones(1), np.ones(1))] * (2 - nvars)
    vals = np.full(len(z1) * len(z2), floor)
    for f in polys:
        points = [z1[:, None], z2[None, :]][:nvars]
        vals = np.maximum(vals, np.abs(f.eval_grid(points)).ravel())
    return float(np.outer(w1, w2).ravel() @ np.log(vals))


def _full_grid(polys, nvars, n, floor_at_one=False):
    """log max_i |f_i| (and 1 when floored) on the full plane grid per axis."""
    return _direct_grid(polys, nvars, [plane_nodes(n)] * nvars, float(floor_at_one))


_monomials = st.tuples(
    st.integers(-9, 9).filter(bool),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.lists(_monomials, min_size=1, max_size=3))
def test_radial_nodes_equal_the_full_grid_on_monomial_tuples(nvars, monos):
    polys = [MultiPoly(nvars, {e[:nvars]: c}) for c, e in monos]
    cfg = QuadratureConfig(nodes_per_dim=16)
    value = integrate_log_max(polys, cfg)
    assert abs(value - _full_grid(polys, nvars, 16)) <= 1e-12 * (1 + abs(value))


@pytest.mark.parametrize("texts", [
    ("1 + z1", "3*z1*z2^2"),  # only z2 is angle-free
    ("z1^2*(z2 + 1)", "1"),  # only z1
    ("2*z2 - z1*z2", "5", "z1^3*z2"),  # only z2
    ("z1 + z2", "7"),  # neither
])
def test_radial_nodes_equal_the_full_grid_on_mixed_tuples(texts):
    polys = [poly(t, 2) for t in texts]
    cfg = QuadratureConfig(nodes_per_dim=16)
    value = integrate_log_max(polys, cfg)
    assert abs(value - _full_grid(polys, 2, 16)) <= 1e-12 * (1 + abs(value))


def test_radial_nodes_equal_the_full_grid_on_batched_rows():
    # log max(1, |f|) for rows on z1 * (a + b z2^2): z1 is angle-free
    exponents = [(1, 0), (1, 2)]
    rows = np.array([[1.0, 2.0], [-3.0, 1.0], [0.0, 5.0], [0.0, 0.0]])
    cfg = QuadratureConfig(nodes_per_dim=16)
    values = batched_log_integrals(rows, exponents, 2, cfg, floor_at_one=True)
    for row, value in zip(rows, values):
        f = MultiPoly(2, dict(zip(exponents, row.tolist())))
        full = _full_grid([f], 2, 16, floor_at_one=True)
        assert abs(value - full) <= 1e-12 * (1 + abs(value))


def _logistic_truth(a, c, j, k):
    """log |a| + E[max(0, log|c/a| + j/2 X + k/2 Y)], X and Y standard
    logistic (log |z|^2 is logistic under the Fubini-Study measure)."""
    s = math.log(abs(c) / abs(a))
    if k == 0:  # E[max(0, s + b X)] = b log(1 + e^(s/b))
        return math.log(abs(a)) + 0.5 * j * math.log1p(math.exp(2 * s / j))
    with mpmath.workdps(30):
        def inner(u):  # the X-expectation at Y = logit(u)
            t = s + 0.5 * k * mpmath.log(u / (1 - u))
            return 0.5 * j * mpmath.log1p(mpmath.exp(2 * t / j))
        return math.log(abs(a)) + float(mpmath.quad(inner, [0, 0.5, 1]))


@pytest.mark.parametrize("a, c, j, k", [
    (1, 1, 1, 0), (2, 3, 1, 0), (5, -1, 2, 0), (1, 9, 3, 0), (7, 2, 4, 0),
    (6, 9, 1, 2), (1, 1, 1, 1), (2, -5, 2, 1), (9, 1, 3, 2),
])
def test_angle_free_tuples_match_closed_forms(a, c, j, k):
    # (a : c z^j) integrates to log|a| + j/2 log(1 + |c/a|^(2/j))
    mono = f"{c}*z1^{j}" + (f"*z2^{k}" if k else "")
    nvars = 2 if k else 1
    truth = _logistic_truth(a, c, j, k)
    if k == 0:
        assert truth == pytest.approx(
            math.log(a) + 0.5 * j * math.log1p((abs(c) / a) ** (2 / j)), abs=1e-14)
    value, err = integrate_log_max_with_error([poly(str(a), nvars), poly(mono, nvars)], CFG)
    assert abs(value - truth) <= err < 1e-2, (value, truth, err)


def test_two_variable_height_matches_the_logistic_closed_form():
    # (6 : 9 z1 z2^2) normalizes to (2 : 3 z1 z2^2), degree term 1 + 2
    x = RationalFunctionPoint.make(2, [poly("6", 2), poly("9*z1*z2^2", 2)])
    truth = 3 + _logistic_truth(2, 3, 1, 2)
    assert truth == pytest.approx(4.698837, abs=1e-6)
    value, err = height_nv_with_error(x, CFG)
    assert value == height_nv(x, CFG)
    assert abs(value - truth) <= err < 1e-3


def test_angle_free_tuples_stay_on_radial_nodes(monkeypatch):
    # a fallback to the full grid (2 n^2 plane nodes per axis, 4 n^4
    # points) fails here: no node set may exceed 2 n nodes, so no grid
    # exceeds (2 n)^2 points
    n = CFG.nodes_per_dim
    sizes, points = [], []
    for name in ("plane_nodes", "_radial_nodes"):
        original = getattr(quadrature, name)

        def recording(m, original=original):
            nodes = original(m)
            sizes.append(len(nodes[0]))
            return nodes
        monkeypatch.setattr(quadrature, name, recording)
    axis_nodes = quadrature._axis_nodes

    def counting(*args):
        axes = axis_nodes(*args)
        points.append(math.prod(len(z) for z, _ in axes))
        return axes
    monkeypatch.setattr(quadrature, "_axis_nodes", counting)
    for d, mono in ((1, "5*z1^3"), (2, "9*z1*z2^2"), (2, "-4*z1^3*z2")):
        x = RationalFunctionPoint.make(d, [poly("6", d), poly(mono, d)])
        height_nv_with_error(x, CFG)
    assert sizes and max(sizes) <= 2 * n
    assert points and max(points) <= (2 * n) ** 2


# ---------------------------------------------------------------------------
# grid route: the conjugation fold of real integrands
# ---------------------------------------------------------------------------

def _rows_poly(nvars, exponents, row):
    return MultiPoly(nvars, {e: c for e, c in zip(exponents, row) if c})


_EXPONENTS = {1: [(0,), (1,), (2,), (3,)],
              2: [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]}
# the full grid in two variables at n = 64 has 6.7e7 points; stay small
_FOLD_NODES = {1: [8, 9, 18, 64], 2: [8, 9, 18]}


@st.composite
def _real_rows(draw):
    nvars = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from(_FOLD_NODES[nvars]))
    m = len(_EXPONENTS[nvars])
    coeffs = st.one_of(st.integers(-9, 9), st.floats(-5, 5, allow_nan=False))
    # a zero row would leave a constant, integrated exactly, not on a grid
    row = st.lists(coeffs, min_size=m, max_size=m).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    return nvars, n, np.array(rows, dtype=float)


@settings(max_examples=30, deadline=None)
@given(_real_rows())
def test_folded_grid_equals_the_full_grid_on_floored_rows(case):
    # log max(1, |f|) never sees a zero of f
    nvars, n, rows = case
    exponents = _EXPONENTS[nvars]
    cfg = QuadratureConfig(nodes_per_dim=n)
    values = batched_log_integrals(rows, exponents, nvars, cfg, floor_at_one=True)
    for row, value in zip(rows, values):
        full = _full_grid([_rows_poly(nvars, exponents, row)], nvars, n, floor_at_one=True)
        assert abs(value - full) <= 1e-12 * (1 + abs(value))


@settings(max_examples=30, deadline=None)
@given(_real_rows())
def test_folded_grid_equals_the_full_grid_on_tuples(case):
    # a constant member keeps log max |f_i| off the zeros of the others
    nvars, n, rows = case
    polys = [_rows_poly(nvars, _EXPONENTS[nvars], row) for row in rows]
    polys.append(MultiPoly.constant(0.25, nvars))
    value = integrate_log_max(polys, QuadratureConfig(nodes_per_dim=n))
    assert abs(value - _full_grid(polys, nvars, n)) <= 1e-12 * (1 + abs(value))


@pytest.mark.parametrize("n", [16, 18])
def test_folded_grid_equals_the_full_grid_on_uncertified_rows(n):
    # squares are not squarefree in z2, so these rows take the grid, on n
    # and on n / 2 nodes (9 is odd: its angle pi pairs with itself)
    exponents = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    rows = np.array([[9.0, 6, 12, 1, 4, 4],  # (z1 + 2 z2 + 3)^2
                     [1.0, 4, -4, 4, -8, 4]])  # (2 z1 - 2 z2 + 1)^2
    cfg = QuadratureConfig(nodes_per_dim=n)
    values, errors = batched_log_integrals_with_error(rows, exponents, 2, cfg)
    for row, value, err in zip(rows, values, errors):
        f = _rows_poly(2, exponents, row)
        assert not _squarefree_in_z2(f)
        fine, coarse = _full_grid([f], 2, n), _full_grid([f], 2, n // 2)
        assert abs(value - fine) <= 1e-12 * (1 + abs(value))
        assert abs(err - abs(fine - coarse)) <= 1e-12 * (1 + abs(value))


@pytest.mark.parametrize("text", [
    "3*z1*z2 - 4", "z1^2*z2 - z2^2 + 2*z1 + 1", "z1^3 + z2^3 - 5*z1*z2 + 1",
])
def test_folded_outer_integral_equals_the_unfolded_one(monkeypatch, text):
    # the outer z1 integral of the exact route, with the fold turned off
    f = poly(text, 2)
    value, err = integrate_log_max_with_error([f], CFG)
    monkeypatch.setattr(quadrature, "_folded_nodes", plane_nodes)
    ref, ref_err = integrate_log_max_with_error([f], CFG)
    assert abs(value - ref) <= 1e-12 * (1 + abs(ref))
    assert abs(err - ref_err) <= 1e-12 * (1 + abs(ref))


def test_cached_tables_are_read_only():
    # every lru_cache hands the same arrays to every call: a write in place
    # would corrupt each later integral on those nodes
    f = parse_affine_polynomial("3*z1*z2 - 4", 2)
    before = integrate_log_max_with_error([f], CFG)
    n = CFG.nodes_per_dim
    tables = [*quadrature._radial_rule(n), *plane_nodes(n), *quadrature._folded_nodes(n),
              *quadrature._radial_nodes(n), *quadrature._angle_table(n, n // 2, 3),
              *quadrature._radius_powers(n, 3)[:2],
              *quadrature._outer_tables(quadrature._folded_nodes, n, 2)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2
    assert integrate_log_max_with_error([f], CFG) == before


def test_outer_tables_are_cached_per_node_set_and_width():
    # a linear two-variable row builds its z1-powers and potential once,
    # and the fold turned off takes its own entry (never the folded one)
    quadrature._outer_tables.cache_clear()
    f = parse_affine_polynomial("z1 - 3*z2", 2)
    first = integrate_log_max_with_error([f], CFG)
    assert quadrature._outer_tables.cache_info().misses == 2  # n and n / 2
    assert integrate_log_max_with_error([f], CFG) == first
    assert quadrature._outer_tables.cache_info()[:2] == (2, 2)
    powers, potential = quadrature._outer_tables(quadrature._folded_nodes, 64, 2)
    z = quadrature._folded_nodes(64)[0][:len(powers)]
    assert np.array_equal(powers, z[:, None] ** np.arange(2)[None, :])
    assert np.array_equal(potential, np.tile(0.5 * np.log1p(np.abs(z) ** 2), 2))


def _record_folds(monkeypatch):
    folded = []
    original = quadrature._folded_nodes

    def recording(m):
        folded.append(m)
        return original(m)
    monkeypatch.setattr(quadrature, "_folded_nodes", recording)
    return folded


@pytest.mark.parametrize("supports, nvars, grid", [
    ([{(1,): 1, (0,): -1j}, {(0,): 0.5}], 1, True),  # log max(1/2, |z - i|)
    ([{(1, 0): 1, (0, 1): -1j}, {(0, 0): 1, (0, 1): 1}], 2, True),
    ([{(1, 1): 1, (1, 0): -1j, (0, 0): 2}], 2, False),  # the exact route
])
def test_complex_coefficients_keep_the_plane_nodes(monkeypatch, supports, nvars, grid):
    # |f(conj z)| != |f(z)| here, so no axis may fold
    folded = _record_folds(monkeypatch)
    polys = [MultiPoly(nvars, coeffs) for coeffs in supports]
    n = 64 if nvars == 1 else 16
    value = integrate_log_max(polys, QuadratureConfig(nodes_per_dim=n))
    assert folded == []
    if grid:
        assert abs(value - _full_grid(polys, nvars, n)) <= 1e-12 * (1 + abs(value))


def test_complex_rows_keep_the_plane_nodes(monkeypatch):
    folded = _record_folds(monkeypatch)
    exponents = [(1,), (0,)]
    rows = np.array([[1, -1j], [2j, 3]])  # z - i and 2i z + 3
    values = batched_log_integrals(rows, exponents, 1, CFG, floor_at_one=True)
    assert folded == []
    for row, value in zip(rows, values):
        full = _full_grid([_rows_poly(1, exponents, row)], 1, 64, floor_at_one=True)
        assert abs(value - full) <= 1e-12 * (1 + abs(value))


# ---------------------------------------------------------------------------
# grid route: one evaluator for tuples and rows
# ---------------------------------------------------------------------------

_SQUARE = [(i, j) for i in range(3) for j in range(3)]
_coeffs = st.one_of(st.integers(-9, 9), st.floats(-5, 5, allow_nan=False))


@st.composite
def _complex_rows(draw, count):
    """Rows of coefficients on _SQUARE, complex unless ``real`` is drawn."""
    real = draw(st.booleans())
    parts = 1 if real else 2
    row = st.lists(_coeffs, min_size=parts * len(_SQUARE), max_size=parts * len(_SQUARE))
    rows = np.array(draw(st.lists(row.filter(any), min_size=count[0], max_size=count[1])))
    return rows if real else rows[:, ::2] + 1j * rows[:, 1::2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 9]), _complex_rows((2, 3)))
def test_grid_equals_the_full_grid_on_two_variable_tuples(n, rows):
    polys = [_rows_poly(2, _SQUARE, row) for row in rows]
    value = integrate_log_max(polys, QuadratureConfig(nodes_per_dim=n))
    assert abs(value - _full_grid(polys, 2, n)) <= 1e-12 * (1 + abs(value))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([8, 9]), _complex_rows((1, 6)))
def test_grid_equals_the_full_grid_on_two_variable_floored_rows(n, rows):
    cfg = QuadratureConfig(nodes_per_dim=n)
    values = batched_log_integrals(rows, _SQUARE, 2, cfg, floor_at_one=True)
    for row, value in zip(rows, values):
        full = _full_grid([_rows_poly(2, _SQUARE, row)], 2, n, floor_at_one=True)
        assert abs(value - full) <= 1e-12 * (1 + abs(value))


def test_grid_blocks_do_not_change_the_integrals(monkeypatch):
    # tiny tiles split the rows into groups, the z2 nodes into chunks and
    # the radii of one column into pieces: only the rounding may change
    rng = np.random.default_rng(11)
    rows = rng.integers(-5, 6, (7, len(_SQUARE))) + 1j * rng.integers(-2, 3, (7, len(_SQUARE)))
    polys = [_rows_poly(2, _SQUARE, row) for row in rows[:3]]
    real = rng.integers(-5, 6, (10, 4)).astype(float)
    cfg = QuadratureConfig(nodes_per_dim=9)

    def integrals():
        return (batched_log_integrals(rows, _SQUARE, 2, cfg, floor_at_one=True),
                integrate_log_max(polys, cfg),
                batched_log_integrals(real, _EXPONENTS[1], 1, cfg, floor_at_one=True))
    whole = integrals()
    for tile in (1, 40, 700):
        monkeypatch.setattr(quadrature, "_TILE", tile)
        for tiled, value in zip(integrals(), whole):
            assert np.allclose(tiled, value, rtol=1e-13, atol=1e-13), tile


# supports: every function on all exponents, or each on its own slice so
# that an axis is angle-free (a single exponent of that variable each)
_KERNEL_CASES = [(1, "full", n) for n in (8, 9, 15, 64)] + [
    (1, "angle-free", n) for n in (8, 9, 15, 64)] + [
    (2, shape, n) for shape in ("full", "z1 angle-free", "z2 angle-free")
    for n in (8, 9, 15)]


@pytest.mark.parametrize("nvars, shape, n", _KERNEL_CASES)
def test_grid_kernel_equals_direct_complex_evaluation(monkeypatch, nvars, shape, n):
    # the real-arithmetic kernel against |f| evaluated in complex
    # arithmetic on the very node sets it chose
    chosen = []
    axis_nodes = quadrature._axis_nodes

    def recording(*args):
        chosen.append(axis_nodes(*args))
        return chosen[-1]
    monkeypatch.setattr(quadrature, "_axis_nodes", recording)
    exponents = _EXPONENTS[1] if nvars == 1 else _SQUARE
    rng = np.random.default_rng(n)
    for real in (True, False):
        for k in (1, 2, 3):
            C = rng.normal(size=(2, k, len(exponents)))
            if not real:
                C = C + 1j * rng.normal(size=C.shape)
            for i in range(k):
                if shape == "angle-free":  # function i is a monomial in z1
                    C[:, i, [j for j in range(len(exponents)) if j != i]] = 0
                elif shape != "full":  # function i has z_axis-exponent i
                    axis = int(shape[1]) - 1
                    C[:, i, [j for j, e in enumerate(exponents) if e[axis] != i]] = 0
            for floor in (1.0, quadrature._TINY):
                value = quadrature._grid(C, exponents, nvars, n, floor)
                ref = np.array([_direct_grid(
                    [_rows_poly(nvars, exponents, coeffs) for coeffs in row],
                    nvars, chosen[-1], floor) for row in C])
                assert np.all(np.abs(value - ref) <= 1e-12 * (1 + np.abs(ref))), (
                    real, k, floor, value, ref)
                if shape != "full":
                    assert any(len(z) == 2 * n for z, _ in chosen[-1])


def test_grid_scales_rows_whose_squared_modulus_would_overflow():
    # |f| reaches 1e250 (a coefficient) and 1e155 (z^90 at the outermost
    # radius, about 53 at n = 64): past 1e154, |f|^2 is no float
    exponents = [(0,), (1,), (2,), (90,)]
    C = np.array([[[1e250, 3.0, 1e-5, 0.0]], [[0.0, 1.0, 0.0, 1.0]],
                  [[1.0, 2.0, 3.0, 0.0]]])
    nodes = [quadrature._folded_nodes(64)]
    for floor in (1.0, quadrature._TINY):
        value = quadrature._grid(C, exponents, 1, 64, floor)
        ref = [_direct_grid([_rows_poly(1, exponents, row[0])], 1, nodes, floor)
               for row in C]
        assert np.allclose(value, ref, rtol=1e-12, atol=1e-12)


def test_grid_shifts_each_row_by_its_own_power_of_two():
    # |1e152 + z + z^10| keeps its shift 0 and its bits next to a row that
    # takes a shift: 1e300 z^10 answers log 1e300 (Jensen)
    exponents = [(0,), (1,), (10,)]
    finite = np.array([[[1e152, 1.0, 1.0]]])
    big = np.array([[[1.0, 0.0, 1e300]]])
    alone = quadrature._grid(finite, exponents, 1, 64, 1.0)
    both = quadrature._grid(np.concatenate([finite, big]), exponents, 1, 64, 1.0)
    assert both[0] == alone[0]
    assert math.isclose(both[1], 300 * math.log(10), rel_tol=1e-13)
    # the grid refused these (a scale 2^-1072, and values below the float
    # range at the inner radii); within its error 1 + 1e150 z^100 answers
    # Jensen's log 1e150 + 50 log(1 + 1e-3), plus 8e-6 where |f| < 1 when
    # floored at 1 (a one-dimensional mpmath quadrature over the radius of
    # the angle means), and 1e300 z^100 integrates log 1e300 at every node
    # of 64 (|1e300 z^100| > 1 there)
    exponents = [(0,), (100,)]
    jensen = 150 * math.log(10) + 50 * math.log1p(1e-3)
    for floor, ref in ((1.0, jensen + 8.0e-6), (quadrature._TINY, jensen)):
        value, error = quadrature._grid_with_error(np.array([[[1.0, 1e150]]]), exponents,
                                                   1, 64, floor)
        assert abs(value[0] - ref) <= error[0] < 0.1, floor
        value = quadrature._grid(np.array([[[0.0, 1e300]]]), exponents, 1, 64, floor)[0]
        assert math.isclose(value, 300 * math.log(10), rel_tol=1e-13)


def test_grid_refuses_oversized_integrals():
    # real tuples at 128 nodes: 2 functions on 16 384 x 32 768 nodes
    polys = [poly("z1 + z2"), poly("7", 2)]
    with pytest.raises(SizeCapExceeded):
        integrate_log_max(polys, QuadratureConfig(nodes_per_dim=128))
    rows = np.ones((quadrature.GRID_CAP // (64 * 64) + 1, 2))
    with pytest.raises(SizeCapExceeded):
        batched_log_integrals(rows, [(0,), (1,)], 1, CFG, floor_at_one=True)
    with pytest.raises(DomainError):
        integrate_log_max([poly("z1 + z2 + z3"), poly("1", 3)], CFG)


def test_one_variable_exact_route_is_capped_before_any_gcd_or_solve(monkeypatch):
    # Yun's split of a dense integer row of degree 700 took some 90 s, and
    # the eigensolves of z1^3000 + z1 + 1 as long; a row the cap admits
    # reaches the split (integer coefficients) or the solves (floats)
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached
    for name in ("_squarefree_parts", "_jensen_rows"):
        monkeypatch.setattr(quadrature, name, reached)
    rng = np.random.default_rng(7)

    def dense(degree):
        return MultiPoly(1, {(i,): int(c) for i, c in enumerate(rng.integers(1, 10, degree + 1))})
    cases = [(dense(700), False), (dense(333), False), (dense(332), True),
             (poly("z1^3000 + z1 + 1"), False), (poly("z1^929 + z1 + 1"), False),
             (poly("z1^928 + z1 + 1"), True), (poly("z1^928 + z1^2 + z1 + 1"), False),
             (MultiPoly(1, {(929,): 0.5, (0,): 1}), False),
             (MultiPoly(1, {(928,): 0.5, (1,): 1, (0,): 1, (7,): 3}), True)]
    for f, admitted in cases:
        with pytest.raises(Reached if admitted else SizeCapExceeded):
            integrate_log_max_with_error([f], CFG)


@pytest.mark.parametrize("call", [
    'v_measure(parse_affine_polynomial("z1*z2 + 3*z1 - z2^2 + 2"), QuadratureConfig())',
    "count_arith_divisors_bounded(1, 1.0, 2.0, QuadratureConfig())",
    "sh_set_census(1, 0.25, 4.0, QuadratureConfig())",
])
def test_integrals_leave_numpy_ma_unimported(call):
    # np.unique without index outputs imports numpy.ma (~15 ms), more than
    # the whole of a small integral
    code = ("import sys\n"
            "from cyclezeta.fs_norms import count_arith_divisors_bounded, v_measure\n"
            "from cyclezeta.height_lab import sh_set_census\n"
            "from cyclezeta.multipoly import parse_affine_polynomial\n"
            "from cyclezeta.quadrature import QuadratureConfig\n"
            f"{call}\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# one overflow policy on every route: exact powers of two and the reversal
# ---------------------------------------------------------------------------

def _times_pow2(f, k):
    """2^k f, with exact integer coefficients (floats for k < 0)."""
    return MultiPoly(f.nvars, {e: c << k if k >= 0 else math.ldexp(c, k)
                               for e, c in f.coeffs.items()})


def _reversal(f, degrees):
    """z^D f(1/z) in every variable, with the given degrees D."""
    return MultiPoly(f.nvars, {tuple(d - a for d, a in zip(degrees, e)): c
                               for e, c in f.coeffs.items()})


_ROUTES = {
    "1-var exact": ([poly("3*z1^3 - 5*z1 + 2")], CFG),
    "2-var exact": ([poly("z1*z2 + 3*z1 - z2^2 + 2")], CFG),
    "1-var grid tuple with floor": ([poly("2*z1 + 1"), poly("z1^3 - z1 + 4")], CFG),
    "2-var grid tuple with floor": ([poly("1", 2), poly("z1*z2 - 3*z2^2 + 2")],
                                    QuadratureConfig(nodes_per_dim=16)),
    "Monte Carlo": ([poly("(z1 + 2)*(z2 - 3) + z1*z2^2")],
                    QuadratureConfig(scheme="monte_carlo", seed=3, sample_count=20000)),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_every_route_takes_exact_powers_of_two(route):
    # I(2^k f) = I(f) + k log 2 within the printed errors; past k = 1023 the
    # coefficients are no floats, which every route refused before; at
    # k = -700, still above the floor 1e-300, |f|^2 needs a shift up
    polys, cfg = _ROUTES[route]
    base, base_err = integrate_log_max_with_error(polys, cfg)
    for k in (0, 600, 1100, 2000, -700):
        value, err = integrate_log_max_with_error([_times_pow2(f, k) for f in polys], cfg)
        assert abs(value - (base + k * math.log(2))) <= err + base_err, (route, k)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_every_route_is_invariant_under_reversal(route):
    # omega is invariant under z -> 1/z, so I(z^D f(1/z)) = I(f)
    polys, cfg = _ROUTES[route]
    degrees = [max(f.deg(i) for f in polys) for i in range(polys[0].nvars)]
    base, base_err = integrate_log_max_with_error(polys, cfg)
    value, err = integrate_log_max_with_error([_reversal(f, degrees) for f in polys], cfg)
    assert abs(value - base) <= err + base_err, route


@pytest.mark.parametrize("nvars", [1, 2])
def test_batched_rows_take_exact_powers_of_two_and_reversal(nvars):
    exponents = _EXPONENTS[nvars]
    rows = [[2, -3, 1, 4, 0, 0], [1, 0, 5, 0, 2, -1], [0, 7, 0, 0, 0, 0],
            [3, 1, 1, 1, 0, 0]]
    rows = [row[:len(exponents)] for row in rows]
    base, base_err = batched_log_integrals_with_error(
        np.array(rows, dtype=object), exponents, nvars, CFG)
    for k in (0, 600, 1100, 2000):
        values, errors = batched_log_integrals_with_error(
            np.array([[c << k for c in row] for row in rows], dtype=object),
            exponents, nvars, CFG)
        assert np.all(np.abs(values - (base + k * math.log(2))) <= errors + base_err), k
    # reversed with the degrees of the shared support, row by row
    degrees = [max(e[i] for e in exponents) for i in range(nvars)]
    flipped = [tuple(d - a for d, a in zip(degrees, e)) for e in exponents]
    values, errors = batched_log_integrals_with_error(
        np.array(rows, dtype=object), flipped, nvars, CFG)
    assert np.all(np.abs(values - base) <= errors + base_err)
    if nvars == 1:  # no live row at all: nothing to shift
        values, errors = batched_log_integrals_with_error(np.zeros((2, 4)), exponents, 1, CFG)
        assert values.tolist() == [-math.inf] * 2 and errors.tolist() == [0.0] * 2
