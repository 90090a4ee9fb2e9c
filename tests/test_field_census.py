import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta.errors import DomainError
from cyclezeta.field_census import (
    closed_point_census,
    divisors,
    mobius,
    point_count,
)
from cyclezeta.spaces import P1Power, PrimePower, Product, ProjSpace

Q2 = PrimePower(2)
Q3 = PrimePower(3)

SPACES = [
    ProjSpace(1),
    ProjSpace(2),
    P1Power(1),
    P1Power(2),
    Product(ProjSpace(1), ProjSpace(1)),
    Product(ProjSpace(2), P1Power(1)),
]

PRIME_POWERS = [PrimePower(2), PrimePower(3), PrimePower(2, 2), PrimePower(5)]


def test_point_count_examples():
    assert point_count(ProjSpace(1), Q2, 1) == 3
    assert point_count(ProjSpace(2), Q2, 2) == 21
    assert point_count(P1Power(2), Q3, 1) == 16


def test_point_count_p2_f4_by_direct_enumeration():
    # normalized coordinate tuples over F_4 = {0,1,a,a+1}
    elements = range(4)
    pts = set()
    for lead in range(3):
        import itertools

        for tail in itertools.product(elements, repeat=2 - lead):
            pts.add((0,) * lead + (1,) + tail)
    assert len(pts) == point_count(ProjSpace(2), Q2, 2)


def test_product_multiplies():
    prod = Product(ProjSpace(2), P1Power(2))
    for m in (1, 2, 3):
        assert point_count(prod, Q2, m) == point_count(
            ProjSpace(2), Q2, m
        ) * point_count(P1Power(2), Q2, m)


def test_census_examples():
    census = closed_point_census(ProjSpace(1), Q2, 2)
    assert census.b == (3, 1)
    assert closed_point_census(ProjSpace(1), Q3, 1).b == (4,)
    assert closed_point_census(ProjSpace(2), Q2, 2).count(2) == 7


def _irreducible_count(q, d):
    # monic irreducibles of degree d over F_q, by the necklace formula
    total = sum(mobius(e) * q.q ** (d // e) for e in divisors(d))
    assert total % d == 0
    return total // d


def test_irreducible_examples():
    # a closed point of P^1 of degree d >= 2 is a monic irreducible of
    # degree d; degree 1 adds the point at infinity
    assert closed_point_census(ProjSpace(1), Q2, 3).b == (3, 1, 2)
    for q in PRIME_POWERS:
        assert closed_point_census(ProjSpace(1), q, 1).b == (q.q + 1,)


def test_irreducible_by_exhaustive_listing():
    # monic quadratics and cubics over F_2, factored by hand
    def is_irred(coeffs):  # coeffs low..high over F_2, monic
        # no roots and (for cubics) that is enough; quadratics likewise
        import itertools

        def ev(x):
            return sum(c * x ** i for i, c in enumerate(coeffs)) % 2

        return ev(0) != 0 and ev(1) != 0

    quads = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)]
    cubics = [(c0, c1, c2, 1) for c0 in (0, 1) for c1 in (0, 1) for c2 in (0, 1)]
    census = closed_point_census(ProjSpace(1), Q2, 3)
    assert sum(is_irred(c) for c in quads) == census.count(2)
    assert sum(is_irred(c) for c in cubics) == census.count(3)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("q", PRIME_POWERS)
def test_census_inverts_point_counts(space, q):
    dmax = 6
    census = closed_point_census(space, q, dmax)
    for m in range(1, dmax + 1):
        total = sum(d * census.count(d) for d in range(1, m + 1) if m % d == 0)
        assert total == point_count(space, q, m)
    assert all(b >= 0 for b in census.b)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_p1_census_is_irreducible_count_plus_infinity(q):
    census = closed_point_census(ProjSpace(1), q, 5)
    assert census.count(1) == q.q + 1
    for d in range(2, 6):
        assert census.count(d) == _irreducible_count(q, d)


def test_mobius_small():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=50)
def test_mobius_sum_over_divisors(n):
    total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
    assert total == (1 if n == 1 else 0)


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        PrimePower(6)
    with pytest.raises(DomainError):
        PrimePower(2, 0)
    with pytest.raises(DomainError):
        point_count(ProjSpace(1), Q2, 0)
    with pytest.raises(DomainError):
        closed_point_census(ProjSpace(1), Q2, 0)
