import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta import fs_norms, quadrature
from cyclezeta.errors import (
    AllZero,
    BandAmbiguity,
    DomainError,
    SizeCapExceeded,
    ZeroPolynomial,
)
from cyclezeta.fs_norms import (
    BAND_FLOOR,
    SEARCH_CAP,
    CheckRecord,
    NormSampleSpec,
    count_arith_divisors_bounded,
    delta_lambda,
    delta_lambda_with_error,
    lc_sigma_max,
    norms,
    v_measure,
    verify_norm_props,
)
from cyclezeta.multipoly import (
    IntegerForm,
    MultiPoly,
    monomial_grid,
    parse_affine_polynomial,
    parse_integer_form,
)
from cyclezeta.quadrature import QuadratureConfig, integrate_log_max, plane_nodes

CFG = QuadratureConfig(nodes_per_dim=128)
CFG_FINE = QuadratureConfig(nodes_per_dim=256)


def poly(text, nvars=None):
    return parse_affine_polynomial(text, nvars=nvars)


def test_norms_examples():
    assert norms(poly("z1 + 1")) == (1, pytest.approx(math.sqrt(2)))
    assert norms(poly("3*z1*z2 - 4")) == (4, 5.0)
    assert norms(MultiPoly(2)) == (0, 0)


def test_plane_nodes_are_a_probability_measure():
    for n in (8, 32, 64):
        z, w = plane_nodes(n)
        # the radial weight is analytic, so even 8 nodes are near-exact
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w > 0)
        # node set is closed under inversion (multiset of radii matches)
        radii = np.sort(np.abs(z))
        assert np.allclose(radii, np.sort(1.0 / np.abs(z)), rtol=1e-12)


def test_v_measure_closed_forms():
    assert v_measure(poly("z1 + 1"), CFG) == pytest.approx(math.sqrt(2), abs=1e-4)
    assert v_measure(poly("7"), CFG) == pytest.approx(7.0, abs=1e-12)
    one, z = poly("1"), poly("z1")
    assert v_measure([one, z], CFG) == pytest.approx(math.sqrt(2), abs=1e-4)
    # invariance of the measure under inversion: v(z - c) = v(1 - c z)
    for c in (0.5, 2.0):
        a = v_measure(poly(f"2*z1 - {int(2*c)}") * 1, CFG)  # 2(z - c)
        b = v_measure(MultiPoly(1, {(0,): 2, (1,): -2 * c}), CFG)
        assert a == pytest.approx(b, rel=1e-6)


def test_v_measure_linear_factor_products():
    # Gaussian-integer roots, a non-real one with its conjugate, so that
    # every coefficient is an integer
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = MultiPoly(1, {(0,): 1})
        expected = 1.0
        for a, b in rng.integers(-2, 3, (3, 2)).tolist():
            if b:
                f = f * MultiPoly(1, {(2,): 1, (1,): -2 * a, (0,): a * a + b * b})
            else:
                f = f * MultiPoly(1, {(1,): 1, (0,): -a})
            expected *= (1 + a * a + b * b) ** (1 if b else 0.5)
        assert math.exp(integrate_log_max([f], CFG_FINE)) == pytest.approx(
            expected, rel=5e-4
        )


def test_v_measure_scaling_and_multiplicativity():
    f = poly("z1^2 + 3*z1 - 1")
    g = poly("2*z1 - 5")
    vf = v_measure(f, CFG)
    assert v_measure(f * 4, CFG) == pytest.approx(4 * vf, rel=1e-9)
    assert math.log(v_measure(f * g, CFG)) == pytest.approx(
        math.log(vf) + math.log(v_measure(g, CFG)), abs=1e-9
    )


def test_v_measure_all_zero():
    with pytest.raises(AllZero):
        v_measure([MultiPoly(1), MultiPoly(1)], CFG)


def test_quadrature_convergence_on_closed_forms():
    # doubling the nodes moves the value by less than 1e-3
    f = poly("z1^2 - 2*z1 + 2")
    coarse = v_measure(f, QuadratureConfig(nodes_per_dim=64))
    fine = v_measure(f, QuadratureConfig(nodes_per_dim=128))
    assert abs(coarse - fine) < 1e-3


def test_monte_carlo_agrees_with_tensor():
    f = poly("z1 + 1")
    mc = QuadratureConfig(scheme="monte_carlo", sample_count=200_000, seed=5)
    assert v_measure(f, mc) == pytest.approx(math.sqrt(2), rel=5e-3)
    with pytest.raises(DomainError):
        QuadratureConfig(scheme="monte_carlo")  # seed required


def test_monte_carlo_is_reproducible():
    f = poly("z1*z2 + 3", nvars=2)
    mc = QuadratureConfig(scheme="monte_carlo", sample_count=50_000, seed=42)
    assert v_measure(f, mc) == v_measure(f, mc)


def test_lc_sigma_max_examples():
    assert lc_sigma_max(poly("5*z1^2 + 1")) == 5
    assert lc_sigma_max(poly("z1*z2 + z1 + 1")) == 1
    assert lc_sigma_max(poly("7")) == 7
    # order matters: pick the larger route
    f = MultiPoly(2, {(2, 0): 3, (0, 1): 2})
    assert lc_sigma_max(f) == 3
    with pytest.raises(ZeroPolynomial):
        lc_sigma_max(MultiPoly(2))


def test_delta_lambda_examples():
    for m in (1, 2, 5, 100):
        assert delta_lambda(IntegerForm.constant(m), 1.0, CFG) == pytest.approx(
            math.log(m), abs=1e-12
        )
    assert delta_lambda(parse_integer_form("X1"), 1.0, CFG) == pytest.approx(1.0)
    assert delta_lambda(parse_integer_form("X1 - Y1"), 1.0, CFG) == pytest.approx(
        1 + 0.5 * math.log(2), abs=1e-4
    )
    assert delta_lambda(parse_integer_form("X1"), 0.25, CFG) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        delta_lambda(parse_integer_form("X1"), 0.0, CFG)


def test_delta_lambda_additive_on_products():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c1 = rng.integers(-5, 6, 3)
        c2 = rng.integers(-5, 6, 2)
        if not c1.any() or not c2.any():
            continue
        P = IntegerForm.make(1, (2,), {(i,): int(c) for i, c in enumerate(c1) if c})
        Q = IntegerForm.make(1, (1,), {(i,): int(c) for i, c in enumerate(c2) if c})
        lhs = delta_lambda(P * Q, 1.0, CFG)
        rhs = delta_lambda(P, 1.0, CFG) + delta_lambda(Q, 1.0, CFG)
        assert lhs == pytest.approx(rhs, abs=2e-3)


def test_delta_lambda_dominates_degree_term():
    cfg2 = QuadratureConfig(nodes_per_dim=16)
    rng = np.random.default_rng(9)
    for _ in range(10):
        coeffs = rng.integers(-9, 10, (2, 2))
        if not coeffs.any():
            continue
        form = IntegerForm.make(
            2, (1, 1),
            {(i, j): int(coeffs[i, j]) for i in range(2) for j in range(2)
             if coeffs[i, j]},
        )
        assert delta_lambda(form, 0.7, cfg2) >= 0.7 * sum(form.multidegree) - 1e-3


def test_count_arith_divisors_examples():
    census = count_arith_divisors_bounded(1, 1.0, 0.5, CFG)
    assert census.count == 1
    census = count_arith_divisors_bounded(1, 1.0, 0.0, CFG)
    assert census.count == 1
    census = count_arith_divisors_bounded(1, 1.0, math.log(3), CFG)
    assert census.count == 5
    assert census.borderline == ()
    census.raise_if_ambiguous()  # no-op when the band is empty


def test_count_arith_divisors_members():
    # h = log 5 adds div(4), div(5), div(2)+div(X) and friends
    census = count_arith_divisors_bounded(1, 1.0, math.log(5), CFG)
    # constants 1..5, X, Y, 2X, 2Y, and X+Y-type forms with delta = 1 + log
    # sqrt(a^2+b^2) <= log 5: sqrt(a^2+b^2) <= 5/e ~ 1.84: (1,1) and sign
    expected = 5 + 2 * math.floor(5 / math.e) + 2  # constants + aX/aY + (X+-Y)
    assert census.count == expected


def test_count_arith_divisors_band_reporting():
    # an artificial h exactly at a quadrature value: X1 + Y1 has
    # delta = 1 + log(sqrt(2)); the band must catch it
    h = 1 + 0.5 * math.log(2)
    census = count_arith_divisors_bounded(1, 1.0, h, CFG)
    assert census.count == 5
    assert [str(f) for f in census.borderline] == ["X1 - Y1", "X1 + Y1"]
    with pytest.raises(BandAmbiguity):
        census.raise_if_ambiguous()


def test_count_arith_divisors_cap():
    # sized before any form is built: refused at once
    with pytest.raises(SizeCapExceeded, match=f"search region exceeds cap {SEARCH_CAP} "):
        count_arith_divisors_bounded(2, 0.1, 3.0, CFG)
    # g(h, lam) = 2^(h / lam) overflows a float here
    with pytest.raises(SizeCapExceeded):
        count_arith_divisors_bounded(1, 1e-4, 1.0, CFG)


@pytest.mark.parametrize("n, lam, h", [(1, 1.0, 5.5), (20, 1.0, 3.0)])
def test_count_arith_divisors_refuses_before_integrating(monkeypatch, n, lam, h):
    # the region of (1, 1.0, 5.5) passes the default cap only at degree 3;
    # the refusal must come before degrees 0-2 are integrated
    calls = []
    monkeypatch.setattr(fs_norms, "batched_log_integrals_with_error",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(SizeCapExceeded):
        count_arith_divisors_bounded(n, lam, h, CFG)
    assert calls == []


@pytest.mark.parametrize("cfg", [CFG, QuadratureConfig(scheme="monte_carlo", seed=1)])
def test_count_arith_divisors_beyond_two_variables_refused_before_integrating(
        monkeypatch, cfg):
    # no scheme integrates these rows, so the one message names none
    for name in ("_jensen_rows", "_jensen_2var", "_grid"):
        monkeypatch.setattr(quadrature, name, None)
    with pytest.raises(DomainError, match="limited to 2 complex variables") as info:
        count_arith_divisors_bounded(3, 1.0, 1.5, cfg)
    assert "monte_carlo" not in str(info.value) and "tensor" not in str(info.value)
    # below h = lam only monomials qualify, and they need no integral
    assert count_arith_divisors_bounded(3, 1.0, 0.5, cfg).count == 1


@st.composite
def _integer_forms(draw):
    n = draw(st.sampled_from([1, 2]))
    multidegree = tuple(draw(st.integers(0, 4 if n == 1 else 2)) for _ in range(n))
    monos = monomial_grid(multidegree)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(monos),
                           max_size=len(monos)).filter(any))
    return IntegerForm.make(n, multidegree, dict(zip(monos, coeffs)))


@settings(max_examples=80, deadline=None)
@given(_integer_forms(), st.sampled_from([0.3, 1.0, 1.7]))
def test_mahler_caps_hold_below_the_measured_degree(form, lam):
    # Mahler's |a_J| <= prod C(k_i, j_i) M(p) and log M(p) <= the
    # Fubini-Study integral of log |p|: the census's coefficient caps
    value, err = delta_lambda_with_error(form, lam, QuadratureConfig())
    k = form.multidegree
    for J, a in form.coeffs:
        binom = math.prod(math.comb(ki, ji) for ki, ji in zip(k, J))
        assert value + err >= lam * sum(k) + math.log(abs(a) / binom)


def _uniform_box_census(lam, h):
    """Census on P^1 over the uniform box |a_j| <= floor(g(h, lam)), by
    Jensen's formula per row: (count, borderline coefficient vectors)."""
    g = math.exp(h * math.log(2) / lam) if lam <= math.log(2) else math.exp(h)
    box = math.floor(g + 1e-9)
    count, borderline = 0, []
    for k in range(math.floor(h / lam + 1e-9) + 1):
        for vec in itertools.product(range(-box, box + 1), repeat=k + 1):
            nonzero = [c for c in vec if c]
            if not nonzero or nonzero[-1] < 0:
                continue
            top = max(j for j, c in enumerate(vec) if c)
            roots = np.roots(vec[top::-1]) if top else []
            value = lam * k + math.log(nonzero[-1]) + 0.5 * math.fsum(
                math.log1p(abs(r) ** 2) for r in roots)
            if len(nonzero) == 1:  # monomials are classified exactly
                count += value <= h
            elif value <= h - BAND_FLOOR:
                count += 1
            elif value <= h + BAND_FLOOR:
                borderline.append(vec)
    return count, borderline


@pytest.mark.parametrize("lam, h", [
    (1.0, 2.0), (0.7, 2.04), (0.9, 1.99), (1.0, 1 + 0.5 * math.log(2)),
])
def test_census_matches_the_uniform_box_on_p1(lam, h):
    census = count_arith_divisors_bounded(1, lam, h, CFG)
    count, borderline = _uniform_box_census(lam, h)
    assert census.count == count
    assert [tuple(dict(f.coeffs).get((j,), 0) for j in range(f.multidegree[0] + 1))
            for f in census.borderline] == borderline


@pytest.mark.parametrize("lam, h, count", [
    (1.0, 2.0, 37), (0.9, 1.8, 36), (0.7, 1.5, 26), (1.0, 1.7, 17),
])
def test_census_on_p1_squared(lam, h, count):
    # counts pinned from the uniform-box search over |a_J| <= floor(g)
    census = count_arith_divisors_bounded(2, lam, h, QuadratureConfig())
    assert census.count == count
    assert census.borderline == ()


@pytest.mark.parametrize("h, count", [(2.5, 53), (3.0, 138), (4.0, 1396)])
def test_census_reaches_past_the_uniform_box(h, count):
    # the uniform box refuses h = 3 and h = 4 at the default cap
    census = count_arith_divisors_bounded(1, 1.0, h, CFG)
    assert census.count == count
    assert census.borderline == ()
    assert census.max_inf_norm == math.floor(math.exp(h))


def test_verify_norm_props_clean_run():
    spec = NormSampleSpec(samples=25, seed=7, nvars=2, max_degree=3)
    records = verify_norm_props(spec, QuadratureConfig(nodes_per_dim=24))
    assert len(records) == 25 * 5
    assert {r.status for r in records} <= {"pass", "warn"}


def test_check_status_reads_the_measured_error():
    # slack rhs - lhs: pass when >= 0, warn within the error, fail below it
    assert CheckRecord(0, "x", 1.0, 1.0, 0.0).status == "pass"
    assert CheckRecord(0, "x", 1.0, 0.99, 0.02).status == "warn"
    assert CheckRecord(0, "x", 1.0, 0.99, 0.005).status == "fail"
    assert CheckRecord(0, "x", 1.0, 0.99, 0.0).status == "fail"


def test_verify_norm_props_univariate():
    spec = NormSampleSpec(samples=10, seed=1, nvars=1, max_degree=4)
    assert all(r.status != "fail" for r in verify_norm_props(spec, CFG))


@pytest.mark.parametrize("nvars, max_degree", [(8, 1), (9, 1), (50, 3), (1, 10 ** 6),
                                               (10 ** 9, 0)])
def test_verify_norm_props_refuses_oversized_samples(monkeypatch, nvars, max_degree):
    # refused on the shape alone, before a generator is made or a sample drawn
    monkeypatch.setattr(fs_norms.np.random, "default_rng", None)
    with pytest.raises(SizeCapExceeded, match=f"cap {fs_norms.SAMPLE_CAP} "):
        verify_norm_props(NormSampleSpec(1, 1, nvars, max_degree), CFG)


def test_sample_cap_counts_coefficients_times_variable_orders(monkeypatch):
    # 2 variables of degree 3: 4^2 coefficients x 2! orders = 32
    spec = NormSampleSpec(samples=1, seed=1, nvars=2, max_degree=3)
    cfg = QuadratureConfig(nodes_per_dim=16)
    monkeypatch.setattr(fs_norms, "SAMPLE_CAP", 32)
    assert len(verify_norm_props(spec, cfg)) == 5
    monkeypatch.setattr(fs_norms, "SAMPLE_CAP", 31)
    with pytest.raises(SizeCapExceeded):
        verify_norm_props(spec, cfg)


def test_sample_cap_counts_every_sample(monkeypatch):
    # samples x 32 units: 10^9 samples would keep 5 * 10^9 records; both
    # refusals come before a generator is made
    cfg = QuadratureConfig(nodes_per_dim=16)
    monkeypatch.setattr(fs_norms, "SAMPLE_CAP", 64)
    assert len(verify_norm_props(NormSampleSpec(2, 1, 2, 3), cfg)) == 10
    monkeypatch.setattr(fs_norms.np.random, "default_rng", None)
    for samples in (3, 10 ** 9):
        with pytest.raises(SizeCapExceeded, match="samples of 32 units each"):
            verify_norm_props(NormSampleSpec(samples, 1, 2, 3), cfg)


def test_norm_inequality_pinned_instances():
    f = poly("z1 + 1")
    g = poly("z1 - 1")
    v = v_measure(f, CFG)
    assert f.norm_inf() <= 2 ** 1 * v + 1e-9
    assert v <= math.sqrt(2) * f.norm_two() + 1e-9
    fg = f * g  # z^2 - 1
    assert fg.norm_inf() == 1
    assert fg.norm_inf() <= f.norm_inf() * g.norm_inf() * (1 + 1)
    # integer lower bound with equality witness: a bare monomial
    mono = poly("3*z1^2")
    assert math.log(v_measure(mono, CFG)) == pytest.approx(math.log(3), abs=1e-9)
