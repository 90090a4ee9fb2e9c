import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta import exact_counts, field_census
from cyclezeta.errors import DomainError, SizeCapExceeded, UnsupportedDimension
from cyclezeta.exact_counts import (
    BIT_CAP,
    cycle_count,
    cycle_counts,
    cycle_family,
    divisor_count,
    divisor_count_by_degree,
    polarization_multidegrees,
    top_cycle_count,
    zero_cycle_count,
)
from cyclezeta.field_census import point_count
from cyclezeta.spaces import P1Power, PrimePower, Product, ProjSpace
from cyclezeta.zeta_series import local_zeta_series

Q2 = PrimePower(2)
Q3 = PrimePower(3)
P1 = ProjSpace(1)
P2 = ProjSpace(2)


def test_divisor_multidegree_examples():
    assert divisor_count(P1Power(2), Q2, (1, 1)) == 15
    assert divisor_count(P1, Q3, (2,)) == 13
    for q in (Q2, Q3):
        assert divisor_count(P1Power(3), q, (0, 0, 0)) == 1


def test_divisor_pn_examples():
    assert divisor_count_by_degree(P2, Q2, 1) == 7
    for k in range(8):
        assert divisor_count_by_degree(P1, Q2, k) == 2 ** (k + 1) - 1
        assert divisor_count_by_degree(P2, Q3, 0) == 1
    with pytest.raises(DomainError):
        divisor_count_by_degree(P2, Q2, -1)


def test_divisor_count_general_spaces():
    assert divisor_count(P1Power(2), Q2, (1, 1)) == 15
    assert divisor_count(P2, Q2, (1,)) == 7
    # P2 x P1 with bidegree (1,1): forms live in a 3*2 = 6 dim space
    prod = Product(P2, P1Power(1))
    assert divisor_count(prod, Q2, (1, 1)) == (2 ** 6 - 1) // 1


def test_zero_cycle_examples():
    assert zero_cycle_count(P1, Q2, 2) == 7
    assert zero_cycle_count(P1Power(2), Q2, 2) == 53
    for space in (P1, P2, P1Power(2)):
        assert zero_cycle_count(space, Q2, 0) == 1


def test_zero_cycle_p1_closed_form():
    # the 0-cycle series of the projective line is 1/((1-T)(1-qT))
    for q in (Q2, Q3):
        for k in range(21):
            assert zero_cycle_count(P1, q, k) == (q.q ** (k + 1) - 1) // (q.q - 1)


def test_zero_cycle_census_cross_check():
    # degree-2 cycles on (P1)^2 over F2: pairs of rational points plus
    # the degree-2 closed points
    from cyclezeta.field_census import closed_point_census

    census = closed_point_census(P1Power(2), Q2, 2)
    b1, b2 = census.b
    assert zero_cycle_count(P1Power(2), Q2, 2) == math.comb(b1 + 1, 2) + b2


def test_top_cycle_examples():
    for k in range(6):
        assert top_cycle_count(P2, k) == 1
    assert top_cycle_count(P1Power(2), 2) == 1
    assert top_cycle_count(P1Power(2), 3) == 0


def test_divisor_count_by_degree_p1_power():
    # on (P1)^2 the polarization degree of a multidegree-(a,b) divisor is a+b
    assert divisor_count_by_degree(P1Power(2), Q2, 1) == 2 * divisor_count(
        P1Power(2), Q2, (1, 0)
    )
    expected = (
        divisor_count(P1Power(2), Q2, (2, 0)) * 2
        + divisor_count(P1Power(2), Q2, (1, 1))
    )
    assert divisor_count_by_degree(P1Power(2), Q2, 2) == expected
    with pytest.raises(UnsupportedDimension):
        divisor_count_by_degree(Product(P2, P2), Q2, 1)


def test_polarization_multidegrees():
    assert polarization_multidegrees(P2, 3) == [(3,)]
    assert polarization_multidegrees(P1Power(1), 3) == [(3,)]
    assert polarization_multidegrees(P1Power(2), 2) == [(0, 2), (1, 1), (2, 0)]
    # (P1)^3 has polarization degree 2 * (sum of the multidegrees)
    assert polarization_multidegrees(P1Power(3), 3) == []
    assert sorted(polarization_multidegrees(P1Power(3), 2)) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)
    ]
    assert polarization_multidegrees(Product(P1, P1), 1) == [(0, 1), (1, 0)]
    with pytest.raises(UnsupportedDimension):
        polarization_multidegrees(Product(P2, P1), 1)
    with pytest.raises(DomainError):
        polarization_multidegrees(P2, -1)


def test_bounded_multidegree_sum_bound():
    # sum over e <= k componentwise is at most prod(k_i+1) times the top term
    for q in (Q2, Q3):
        for kvec in [(1, 1), (2, 1), (2, 2), (3,)]:
            space = P1Power(len(kvec))
            total = sum(
                divisor_count(space, q, e)
                for e in itertools.product(*[range(k + 1) for k in kvec])
            )
            cap = math.prod(k + 1 for k in kvec) * divisor_count(space, q, kvec)
            assert total <= cap


def test_cycle_count_dispatch():
    assert cycle_count(P2, Q2, 0, 2) == zero_cycle_count(P2, Q2, 2)
    assert cycle_count(P2, Q2, 1, 2) == divisor_count(P2, Q2, (2,))
    assert cycle_count(P2, Q2, 2, 5) == 1
    with pytest.raises(UnsupportedDimension):
        cycle_count(ProjSpace(3), Q2, 1, 2)
    with pytest.raises(DomainError):
        cycle_count(P2, Q2, 3, 1)
    with pytest.raises(DomainError):
        cycle_count(P2, Q2, 1, -1)


ONE_PASS_SPACES = [
    ProjSpace(0), P1, P2, ProjSpace(3),
    P1Power(1), P1Power(2), P1Power(3),
    Product(P1, P1), Product(P2, P1),
]


@pytest.mark.parametrize("space", ONE_PASS_SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("q", [Q2, Q3, PrimePower(2, 2)], ids=str)
def test_cycle_counts_equal_per_degree_counts(space, q):
    # the one-pass sequence agrees with cycle_count degree by degree, for
    # every family with a closed form and every kmax up to 12
    for l in range(space.dim + 1):
        try:
            expected = [cycle_count(space, q, l, k) for k in range(13)]
        except UnsupportedDimension:
            with pytest.raises(UnsupportedDimension):
                cycle_counts(space, q, l, 12)
            continue
        for kmax in (0, 1, 5, 12):
            assert cycle_counts(space, q, l, kmax) == tuple(expected[:kmax + 1])
    with pytest.raises(DomainError):
        cycle_counts(space, q, 0, -1)


def _point_count_series(space, q, kmax):
    # c_0..c_kmax of exp(sum_m N_m T^m / m) by the derivative recurrence
    # k*c_k = sum_{m=1}^{k} N_m c_{k-m}, with N_m the point counts over
    # the extensions; each division must be exact
    counts = [point_count(space, q, m) for m in range(1, kmax + 1)]
    c = [1]
    for k in range(1, kmax + 1):
        total = sum(counts[m - 1] * c[k - m] for m in range(1, k + 1))
        assert total % k == 0, (space, q, k)
        c.append(total // k)
    return tuple(c)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [Q2, Q3, PrimePower(2, 2), PrimePower(5)], ids=str)
def test_zero_cycle_recurrence_equals_the_cellular_product(n, q):
    # the series from the cell counts against the exponential of the
    # point-count series, an independent derivation of the same zeta, on
    # P^n, (P^1)^n, (P^1)^(n+5), (P^1)^n x P^2 and P^2 x (P^1)^n; cell
    # counts above kmax (up to 70 on (P^1)^8) cut (1 - T)^b at T^kmax
    for space in (ProjSpace(n), P1Power(n), P1Power(n + 5), Product(P1Power(n), P2),
                  Product(P2, P1Power(n))):
        expected = _point_count_series(space, q, 30)
        assert cycle_counts(space, q, 0, 30) == expected
        assert cycle_counts(space, q, 0, 2) == expected[:3]


def test_zero_cycle_series_is_one_pass(monkeypatch):
    # the series reads the cells, takes no point count and keeps nothing
    # between calls
    calls = []

    def counting(space, q, m):
        calls.append(m)
        return point_count(space, q, m)

    monkeypatch.setattr(field_census, "point_count", counting)
    assert not hasattr(exact_counts, "point_count")
    for _ in range(2):
        assert cycle_counts(P2, Q3, 0, 40)[2] == zero_cycle_count(P2, Q3, 2)
    assert calls == []
    assert not hasattr(exact_counts._zero_cycle_counts, "cache_info")


def test_huge_spaces_are_refused_at_once():
    # the cells of (P^1)^n take about n^2/2 bits and those of P^n n + 1
    # ints, so neither is built here, whatever kmax
    for space in (ProjSpace(10 ** 6), P1Power(10 ** 5)):
        for kmax in (0, 1):
            start = time.perf_counter()
            with pytest.raises(SizeCapExceeded):
                cycle_counts(space, Q2, 0, kmax)
            assert time.perf_counter() - start < 1.0


def test_top_cycle_sequences_of_large_spaces_are_fast():
    # the top degree is taken once per sequence, not once per degree
    start = time.perf_counter()
    assert cycle_counts(ProjSpace(10 ** 6), Q2, 10 ** 6, 2000) == (1,) * 2001
    assert cycle_counts(P1Power(3000), Q2, 3000, 2000) == (1,) + (0,) * 2000
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, last", [(12, 574), (16, 376), (1000, 16)])
def test_p1_power_series_stop_at_the_caps(n, last):
    # (P^1)^12 stops where its size does; with more factors the work of
    # the cell product stops it first, since each cell dimension with more
    # than kmax cells costs a kmax^2/2-term product of large integers
    space = P1Power(n)
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        cycle_counts(space, Q2, 0, last + 1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert len(cycle_counts(space, Q2, 0, last)) == last + 1
    assert time.perf_counter() - start < 20.0


def test_product_with_a_point_factor_has_no_divisor_closed_form():
    # P^0 x (P^1)^2 has three slots, one of them zero-dimensional: it is
    # not a power of P^1, so its divisors are refused like those of P^1 x P^2
    space = Product(ProjSpace(0), P1Power(2))
    for refused in (space, Product(P1, P2)):
        with pytest.raises(UnsupportedDimension):
            cycle_counts(refused, Q2, refused.dim - 1, 3)
        with pytest.raises(UnsupportedDimension):
            polarization_multidegrees(refused, 2)
    assert cycle_counts(space, Q2, 0, 3) == cycle_counts(P1Power(2), Q2, 0, 3)
    assert cycle_counts(space, Q2, 2, 3) == (1, 0, 1, 0)


def test_closed_forms_refuse_above_bit_cap():
    # q^C(40,20) would take about 17 GB
    with pytest.raises(SizeCapExceeded):
        divisor_count(ProjSpace(20), Q3, (20,))
    with pytest.raises(SizeCapExceeded):
        divisor_count(P1Power(1), Q2, (BIT_CAP,))
    assert divisor_count(P1Power(1), Q2, (BIT_CAP // 2,)).bit_length() == BIT_CAP // 2 + 1
    # c_k >= q^(dim k): the series to degree 1200 on P^2 is over 2^21 bits
    with pytest.raises(SizeCapExceeded):
        cycle_counts(P2, Q3, 0, 1200)
    with pytest.raises(SizeCapExceeded):
        zero_cycle_count(ProjSpace(0), Q2, 10 ** 30)
    assert len(cycle_counts(P2, Q3, 0, 300)) == 301
    # every divisor count passes its own check, but the sequence to degree
    # 2000 on P^2 over F_2 (n_k >= 2^(C(k+2, 2) - 1)) would hold ~170 MB
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        local_zeta_series(P2, Q2, 1, 2000)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(SizeCapExceeded):
        cycle_counts(P1Power(2), Q2, 1, 300)
    assert cycle_counts(P2, Q2, 1, 200)[-1] == divisor_count(P2, Q2, (200,))
    # the series the benchmark, the command-line examples and CI run
    P1SQ, P3 = P1Power(2), ProjSpace(3)
    for space, q, l, kmax in [
        (P2, Q3, 0, 200), (P1, Q2, 0, 150), (P1SQ, Q2, 0, 120), (P2, Q2, 1, 10),
        (P1, Q3, 0, 100), (P1SQ, Q3, 1, 8), (P2, Q2, 0, 100), (P1, PrimePower(5), 1, 60),
        (P2, Q3, 0, 60), (P1, PrimePower(2, 2), 0, 80), (P1SQ, Q2, 1, 8),
        (P1SQ, Q3, 0, 50), (P1SQ, Q2, 1, 6), (P3, PrimePower(5), 0, 3),
        (P2, Q3, 0, 1000),
    ]:
        assert len(cycle_counts(space, q, l, kmax)) == kmax + 1


def test_cycle_family_order():
    # l = 0 is checked first, then dim, then dim - 1
    assert cycle_family(P1, 0) == "zero-cycles"
    assert cycle_family(ProjSpace(0), 0) == "zero-cycles"
    assert cycle_family(P1, 1) == "top-cycles"
    assert cycle_family(P2, 1) == "divisors"
    assert cycle_family(P1Power(3), 2) == "divisors"
    with pytest.raises(UnsupportedDimension):
        cycle_family(ProjSpace(3), 1)
    for l in (-1, 3):
        with pytest.raises(DomainError):
            cycle_family(P2, l)


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=30)
def test_p1_divisors_equal_zero_cycles(k):
    # divisors and 0-cycles agree on a curve
    assert divisor_count_by_degree(P1, Q2, k) == zero_cycle_count(P1, Q2, k)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    st.sampled_from([Q2, Q3]),
)
@settings(max_examples=40)
def test_multidegree_count_positive_and_monotone(e, q):
    space = P1Power(len(e))
    count = divisor_count(space, q, tuple(e))
    assert count >= 1
    bumped = list(e)
    bumped[0] += 1
    assert divisor_count(space, q, tuple(bumped)) > count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_largest_form_dimension_is_the_balanced_composition(n):
    # brute force over every multidegree of sum s <= 12, and no divisors
    # in the degrees that (n-1)! does not divide
    step = math.factorial(n - 1)
    for s in range(13):
        dims = [math.prod(e + 1 for e in es)
                for es in itertools.product(range(s + 1), repeat=n) if sum(es) == s]
        assert exact_counts._largest_form_dimension(P1Power(n), s * step) == max(dims)
        for k in range(s * step + 1, (s + 1) * step):
            assert exact_counts._largest_form_dimension(P1Power(n), k) is None


def test_long_divisor_sequences_are_refused_fast(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        cycle_counts(P1Power(3), Q2, 2, 1000)
    assert time.perf_counter() - start < 0.05
    # the largest accepted kmax is the one found by listing every
    # multidegree; the counts themselves are not built here
    monkeypatch.setattr(exact_counts, "divisor_count_by_degree", lambda *args: 0)
    for space, q, l, last in [(P1Power(2), Q2, 1, 287), (P1Power(2), PrimePower(5), 1, 217),
                              (P1Power(3), Q2, 2, 237), (P2, Q2, 1, 228)]:
        assert len(cycle_counts(space, q, l, last)) == last + 1
        with pytest.raises(SizeCapExceeded):
            cycle_counts(space, q, l, last + 1)


def test_top_cycle_sequences_refuse_above_bit_cap():
    # one int header per degree: 10 922 of them fill 2^21 bits
    last = BIT_CAP // exact_counts._INT_HEADER_BITS - 1
    assert cycle_counts(P1, Q2, 1, last) == (1,) * (last + 1)
    for kmax in (last + 1, 10 ** 6, 10 ** 30):
        with pytest.raises(SizeCapExceeded):
            cycle_counts(P1, Q2, 1, kmax)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [Q2, PrimePower(3), PrimePower(2, 2)])
def test_divisor_counts_by_multiset_equal_the_composition_sum(n, q):
    space = P1Power(n)
    for k in range(25):
        expected = sum(divisor_count(space, q, e)
                       for e in polarization_multidegrees(space, k))
        assert divisor_count_by_degree(space, q, k) == expected, k


def test_long_p1_power_divisor_sequences_are_fast():
    # every composition took its own big power: kmax 237 ran 19 s
    start = time.perf_counter()
    counts = cycle_counts(P1Power(3), Q2, 2, 237)
    assert time.perf_counter() - start < 5.0
    # degree 4: multidegrees (2,0,0) and (1,1,0), three orderings each
    assert counts[4] == divisor_count_by_degree(P1Power(3), Q2, 4) == 3 * 7 + 3 * 15
