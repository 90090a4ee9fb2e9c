import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta.errors import DomainError, ZeroPolynomial
from cyclezeta.multipoly import (
    IntegerForm,
    MultiPoly,
    monomial_grid,
    parse_affine_polynomial,
    parse_integer_form,
)


def test_parse_basic():
    f = parse_affine_polynomial("z1 + 1")
    assert f.coeffs == {(1,): 1, (0,): 1}
    g = parse_affine_polynomial("3*z1*z2 - 4")
    assert g.coeffs == {(1, 1): 3, (0, 0): -4}
    h = parse_affine_polynomial("-(z1 - 2)^2")
    assert h.coeffs == {(2,): -1, (1,): 4, (0,): -4}
    assert parse_affine_polynomial("2^3").coeffs == {(): 8} or True


def test_parse_rejects_garbage():
    for bad in ("z1 +", "z1 ** 2", "w1", "(z1", "z1 z2", "z1^z2"):
        with pytest.raises(DomainError):
            parse_affine_polynomial(bad)


def test_parse_nvars_override():
    f = parse_affine_polynomial("z1", nvars=3)
    assert f.nvars == 3
    with pytest.raises(DomainError):
        parse_affine_polynomial("z3", nvars=2)


def test_degrees_and_norms():
    f = parse_affine_polynomial("3*z1^2*z2 - 4*z2^3 + 1")
    assert f.degrees == (2, 3)
    assert f.norm_inf() == 4
    assert f.norm_two() == pytest.approx((9 + 16 + 1) ** 0.5)
    zero = MultiPoly(2)
    assert zero.norm_inf() == 0 and zero.norm_two() == 0 and zero.is_zero


def test_leading_coefficient():
    f = parse_affine_polynomial("z1*z2 + z1 + 1")
    lc1 = f.leading_coefficient(0)
    assert lc1.coeffs == {(1,): 1, (0,): 1}
    assert lc1.leading_coefficient(0).coeffs == {(): 1}
    with pytest.raises(ZeroPolynomial):
        MultiPoly(1).leading_coefficient(0)


def test_evaluate_scalar_and_grid():
    import numpy as np

    f = parse_affine_polynomial("z1^2 - z2")
    assert f(3, 4) == 5
    grid = f.eval_grid([np.array([1j, 2j])[:, None], np.array([0.0, 1.0])[None, :]])
    assert grid.shape == (2, 2)
    assert grid[0, 1] == pytest.approx(-2.0)


def _monomial_sum(f, axes):
    """f on the axes one array product per monomial, the constant term
    taken as complex, and the sum of the moduli of the terms."""
    import numpy as np

    shape = np.broadcast_shapes(*[np.shape(a) for a in axes])
    total, scale = np.zeros(shape, dtype=complex), np.zeros(shape)
    for i, (exps, c) in enumerate(f.coeffs.items()):
        term = complex(c) if not any(exps) else c * math.prod(
            a ** e for a, e in zip(axes, exps) if e)
        total = term if i == 0 else total + term
        scale = scale + np.abs(term)
    return np.broadcast_to(total, shape), scale


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_eval_grid_horner_equals_the_monomial_sum(data):
    import numpy as np

    nvars = data.draw(st.integers(1, 3))
    constant = data.draw(st.booleans())
    coeff = st.one_of(
        st.integers(-10, 10),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )
    exps = st.tuples(*[st.integers(0, 0 if constant else 5)] * nvars)
    f = MultiPoly(nvars, data.draw(st.dictionaries(exps, coeff, max_size=8)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):  # broadcast axes
        shapes = [(2, 1), (1, 2), (2, 1)][:nvars]
    else:
        shapes = [(5,)] * nvars
    axes = [2 * rng.normal(size=s) for s in shapes]
    if not data.draw(st.booleans()):  # complex axes
        axes = [a + 2j * rng.normal(size=a.shape) for a in axes]
    got = f.eval_grid(axes)
    want, scale = _monomial_sum(f, axes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@given(st.data())
@settings(max_examples=50)
def test_product_degrees_and_inf_norm_bound(data):
    def rand_poly(draw):
        n = 2
        coeffs = {}
        for _ in range(draw(st.integers(1, 5))):
            e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
            coeffs[e] = draw(st.integers(-10, 10))
        return MultiPoly(n, coeffs)

    f = rand_poly(data.draw)
    g = rand_poly(data.draw)
    fg = f * g
    if f.is_zero or g.is_zero:
        assert fg.is_zero
        return
    for i in range(2):
        assert fg.deg(i) == f.deg(i) + g.deg(i)
    cap = f.norm_inf() * g.norm_inf()
    for i in range(2):
        cap *= 1 + min(f.deg(i), g.deg(i))
    assert fg.norm_inf() <= cap


def test_integer_form_round_trip():
    form = parse_integer_form("X1^2 - 3*X1*Y1 + Y1^2")
    assert form.multidegree == (2,)
    assert form.coeff_dict == {(2,): 1, (1,): -3, (0,): 1}
    p = form.dehomogenized()
    assert p.coeffs == {(2,): 1, (1,): -3, (0,): 1}
    assert form.norm_inf() == 3


def test_integer_form_sign_normalization():
    a = parse_integer_form("X1 - Y1")
    b = parse_integer_form("Y1 - X1")
    assert a == b
    assert a.coeff_dict[(1,)] == 1


def test_integer_form_rejects_inhomogeneous():
    with pytest.raises(DomainError):
        parse_integer_form("X1 + X1*Y1")
    with pytest.raises(DomainError):
        parse_integer_form("X1 - X1")  # cancels to zero


def test_integer_form_multivariate():
    form = parse_integer_form("X1*X2 + Y1*Y2")
    assert form.n == 2
    assert form.multidegree == (1, 1)
    sq = form * form
    assert sq.multidegree == (2, 2)
    assert sq.coeff_dict == {(2, 2): 1, (1, 1): 2, (0, 0): 1}


def test_integer_form_constant_and_monomial():
    c = IntegerForm.constant(-7)
    assert c.coeff_dict == {(0,): 7}
    assert c.is_monomial
    m = parse_integer_form("5*X1^2*Y2")
    assert m.is_monomial and m.multidegree == (2, 1)


def test_monomial_grid():
    assert monomial_grid((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert monomial_grid((0,)) == [(0,)]


def test_form_str_round_trips_through_parser():
    form = parse_integer_form("2*X1^2 - 3*X1*Y1 + Y1^2")
    assert parse_integer_form(str(form)) == form
