import hashlib
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, repeat

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta import spaces, zeta_series
from cyclezeta.errors import (
    AuditMismatch,
    DomainError,
    RadiusError,
    SizeCapExceeded,
    UnsupportedDimension,
)
from cyclezeta.exact_counts import cycle_count, cycle_counts, cycle_family, zero_cycle_count
from cyclezeta.spaces import P1Power, PrimePower, ProjSpace
from cyclezeta.zeta_series import (
    _spec_z_norms,
    abscissa_sequence,
    l_function_partial_with_error,
    local_zeta_series,
    spec_z_zeta_partial,
)

Q2 = PrimePower(2)
Q3 = PrimePower(3)
P1 = ProjSpace(1)
P2 = ProjSpace(2)


def test_series_examples():
    s = local_zeta_series(P1, Q2, 0, 3)
    assert s.coefficients == (1, 3, 7, 15)
    assert [s.exponent(k) for k in range(4)] == [0, 1, 2, 3]
    s2 = local_zeta_series(P2, Q2, 1, 2)
    assert s2.coefficients == (1, 7, 63)
    assert [s2.exponent(k) for k in range(3)] == [0, 1, 4]
    s3 = local_zeta_series(P1, Q2, 1, 2)
    assert s3.coefficients == (1, 1, 1)
    assert [s3.exponent(k) for k in range(3)] == [0, 1, 4]


def test_series_refuses_intermediate_dimension():
    with pytest.raises(UnsupportedDimension):
        local_zeta_series(ProjSpace(3), Q2, 1, 2)


def _truncated_rational_p1(q, kmax):
    # polynomial long division of 1/((1-T)(1-qT)) up to order kmax
    coeffs = []
    for k in range(kmax + 1):
        coeffs.append((q ** (k + 1) - 1) // (q - 1))
    return tuple(coeffs)


@pytest.mark.parametrize("q", [Q2, Q3])
@pytest.mark.parametrize("kmax", [0, 3, 8])
def test_p1_series_matches_rational_function_truncation(q, kmax):
    s = local_zeta_series(P1, q, 0, kmax)
    assert s.coefficients == _truncated_rational_p1(q.q, kmax)


def test_exp_series_reproduces_counts():
    for space in (P1, P2, P1Power(2)):
        for k in range(7):
            s = local_zeta_series(space, Q2, 0, k)
            assert s.coefficients[k] == zero_cycle_count(space, Q2, k)


def test_eval_handles_huge_coefficients():
    # the terms that the series Euler product sums; at kmax 45 the top
    # coefficient has 1081 bits, more than a float holds
    for kmax in (40, 45):
        s = local_zeta_series(P2, Q2, 1, kmax)
        terms = [zeta_series._term_value(c, 1e-30, s.exponent(k))
                 for k, c in enumerate(s.coefficients)]
        assert terms[0] == 1.0 and math.isfinite(math.fsum(terms))
    top, e = s.coefficients[-1], s.exponent(45)
    assert top.bit_length() > 1024 and e % 2 == 1
    exact = float(Fraction(top, 2 ** e))
    assert math.isclose(zeta_series._term_value(top, 0.5, e), exact, rel_tol=1e-12)
    assert math.isclose(zeta_series._term_value(top, -0.5, e), -exact, rel_tol=1e-12)


def test_default_cprime_is_valid_growth_constant():
    # the growth constants the top-cycle and divisor Euler products read
    for n, l in [(1, 1), (2, 2), (3, 3), (2, 1), (3, 2)]:
        space = ProjSpace(n)
        c = zeta_series._CPRIME_PN[cycle_family(space, l)](n)
        for k in range(1, 12):
            n_k = cycle_count(space, Q3, l, k)
            if n_k:
                assert math.log(n_k, Q3.q) <= c * k ** (l + 1) + 1e-9


def test_l_function_degenerate_point():
    # the local factor of a point is 1/(1 - p^{-s}): the Riemann product
    value = l_function_partial_with_error(0, 0, 2.0, 10 ** 4)[0]
    assert abs(value.real - math.pi ** 2 / 6) < 1e-4
    assert abs(value.imag) < 1e-15


def test_l_function_p1_small_product_manual():
    # check against explicitly multiplied local factors for p <= 7
    s = 4.0
    manual = 1.0
    for p in (2, 3, 5, 7):
        manual *= 1.0 / ((1 - p ** -s) * (1 - p ** (1 - s)))
    value = l_function_partial_with_error(1, 0, s, 7)[0]
    assert math.isclose(value.real, manual, rel_tol=1e-10)


def test_l_function_error_accounting():
    # on P^n the 0-cycle Euler product over all primes is
    # prod_{i=0}^{n} zeta(s - i); the error must cover the whole distance,
    # the primes above pmax included, also just above the abscissa n + 1
    for n, s in [(0, 2.5), (1, 4.5), (2, 6.1), (1, 2.5), (2, 3.5)]:
        exact = math.prod(float(mpmath.zeta(s - i)) for i in range(n + 1))
        for pmax in (1, 10, 100, 1000):
            value, err = l_function_partial_with_error(n, 0, s, pmax)
            assert abs(value - exact) <= err
            assert value.imag == 0.0
    # sigma <= n + 1 leaves the primes above pmax unbounded
    for n, s in [(0, 1.0), (1, 2.0), (1, 1.5), (2, 3.0)]:
        with pytest.raises(RadiusError):
            l_function_partial_with_error(n, 0, s, 10)


def _zeta_product(n, s):
    with mpmath.workdps(40):
        return mpmath.fprod(mpmath.zeta(s - j) for j in range(n + 1))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("pmax", [100, 10 ** 4, 10 ** 5])
def test_l_function_answers_in_the_strip_above_the_abscissa(n, pmax):
    # sigma = n + 1.5 lies in n + 1 < sigma <= 2n + 1, which the growth
    # constant C' = 2n of the truncated series could not certify
    s = n + 1.5
    value, err = l_function_partial_with_error(n, 0, s, pmax)
    assert abs(value - _zeta_product(n, s)) <= err
    assert value.imag == 0.0


@pytest.mark.parametrize("n, s, pmax", [(1, 4.0, 10 ** 5), (2, 6.1, 2 * 10 ** 5)])
def test_l_function_error_is_small_where_the_tail_is_small(n, s, pmax):
    # the tail of the exact factors is about pmax^(n + 1 - s), not the
    # pmax^(2n + 1 - s) of the growth constant C' = 2n
    value, err = l_function_partial_with_error(n, 0, s, pmax)
    assert abs(value - _zeta_product(n, s)) <= err < 1e-9


def test_l_function_refuses_an_error_bound_that_overflows():
    # sigma = 1.0001 is above the abscissa 1 of zeta(s), but the bound on
    # the primes above pmax is exp(10^4): refused, not a float overflow
    with pytest.raises(RadiusError, match="finite error bound"):
        l_function_partial_with_error(0, 0, 1.0001, 10 ** 4)


def test_l_function_complex_s_matches_the_zeta_product():
    s = complex(3.5, 2.0)
    value, err = l_function_partial_with_error(1, 0, s, 10 ** 4)
    assert abs(value - complex(_zeta_product(1, s))) <= err
    assert value.imag != 0.0
    with pytest.raises(DomainError):
        l_function_partial_with_error(1, 0, complex(3.5, 1e15), 10)


def _series_value(n_k, t, l):
    return mpmath.fsum(c * t ** (k ** (l + 1)) for k, c in enumerate(n_k))


@pytest.mark.parametrize("n, l, s, pmax", [
    (1, 1, 2.05, 200), (2, 2, 1.7, 100), (3, 3, 2.5, 50),  # top cycles
    (2, 1, 4.5, 100), (3, 2, 6.2, 50),  # divisors
])
def test_l_function_top_cycles_and_divisors_match_the_exact_local_series(n, l, s, pmax):
    # the product over p <= pmax of the local series, summed in mpmath
    # from the exact counts to a degree far past the truncation
    with mpmath.workdps(40):
        partial = mpmath.mpf(1)
        for p in spaces.primes_upto(pmax):
            counts = [cycle_count(ProjSpace(n), PrimePower(p), l, k) for k in range(12)]
            partial *= _series_value(counts, mpmath.mpf(p) ** -s, l)
    value, err = l_function_partial_with_error(n, l, s, pmax)
    assert abs(value - complex(partial)) <= 1e-12 * abs(partial) <= err
    assert value.imag == 0.0


def test_l_function_builds_cycle_counts_at_most_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return cycle_counts(*args)

    monkeypatch.setattr(zeta_series, "cycle_counts", counting)
    for n in (0, 1, 2):
        l_function_partial_with_error(n, 0, n + 2.5, 1000)
    assert calls == []  # exact cellular factors need no series
    for n, l, s in [(1, 1, 2.5), (2, 2, 2.5), (2, 1, 5.5)]:
        calls.clear()
        l_function_partial_with_error(n, l, s, 1000)
        # top-cycle counts do not depend on p: built once; divisor counts
        # read form dimensions listed once
        assert len(calls) == (1 if l == n else 0)


def _complex_cellular_value(n, s, pmax):
    # the 0-cycle Euler product in complex arithmetic throughout: the
    # reference that the float path for real s must match bit for bit
    primes = spaces.primes_upto(pmax)
    one = complex(1.0)
    denominator = one
    for j in range(n + 1):
        denominator *= math.prod(map(one.__sub__, map(pow, primes, repeat(j - s))))
    return 1.0 / denominator


def _arithmetic(s):
    # the (one, t) of the product: floats for a real s that is not an integer
    return (1.0, s) if not float(s).is_integer() else (complex(1.0), complex(s))


@pytest.mark.parametrize("n", range(5))
def test_cellular_euler_product_is_the_complex_formula_bit_for_bit(n):
    # n + 200.5 makes every factor one, n + 2.5 + 3j is never cut, and
    # integral sigma multiplies in complex arithmetic
    cases = [(s, pmax)
             for s in (n + 1.5, n + 2.0, n + 2.718281828, n + 3.0, n + 6.1, n + 40.0,
                       n + 200.5, complex(n + 2.5, 3.0))
             for pmax in (0, 2, 3, 1000, 2 * 10 ** 5)]
    cases += [(n + 2.0, 10 ** 6), (n + 3.0, 10 ** 6)]
    # pmax just below and at each cut that lies inside 2 * 10^5
    for s in (n + 2.0, n + 2.718281828, n + 6.1):
        cuts = zeta_series._unit_cuts(*_arithmetic(s), n, 2 * 10 ** 5)
        cases += [(s, pmax) for cut in cuts if cut <= 2 * 10 ** 5 for pmax in (cut - 1, cut)]
    for s, pmax in cases:
        value, err = l_function_partial_with_error(n, 0, s, pmax)
        expected = _complex_cellular_value(n, complex(s), pmax)
        # repr round-trips every float, the sign of a zero imaginary part too
        assert type(value) is complex and repr(value) == repr(expected), (s, pmax)


@pytest.mark.parametrize("n, s, pmax, expected", [
    (0, 2.5, 10 ** 5, [100_001]),  # no cut inside pmax
    (1, 4.0, 10 ** 6, [11_586, 262_144]),  # 2^18: x^-3 = 2^-54, a tie that rounds to 1
    (2, 6.1, 2 * 10 ** 5, [463, 1_540, 9_222]),
    (2, 6.5, 10 ** 6, [317, 903, 4_096]),
    (1, 2.5, 10 ** 7, [3_178_689, 10 ** 7 + 1]),  # c_1 lies past pmax
    (3, 203.5, 1000, [2, 2, 2, 2]),  # every factor is one
])
def test_every_factor_from_each_cut_on_is_exactly_one(n, s, pmax, expected):
    one, t = _arithmetic(s)
    primes = spaces.primes_upto(pmax)
    cuts = zeta_series._unit_cuts(one, t, n, pmax)
    assert cuts == expected
    for j, cut in enumerate(cuts):
        def factor(x):
            return one - pow(x, j - t)

        # the least such integer: one at the cut, not one just below it
        assert cut > pmax or factor(cut) == one
        assert cut == 2 or factor(cut - 1) != one
        k = bisect_left(primes, cut)
        if k < len(primes):  # the first and the last skipped prime
            assert factor(primes[k]) == one and factor(primes[-1]) == one
        if k:  # the largest prime multiplied
            assert factor(primes[k - 1]) != one


def test_prime_count_reads_the_sieve_flags():
    # len(primes_upto(m)) for every m, read off one list
    primes = spaces.primes_upto(2 * 10 ** 4)
    assert all(spaces.prime_count(spaces.sieve(m)) == bisect_right(primes, m)
               for m in range(-2, 2 * 10 ** 4 + 1))
    assert spaces.prime_count(spaces.sieve(10 ** 7)) == len(spaces.primes_upto(10 ** 7)) == 664_579


def test_is_prime_reads_the_table_of_the_euler_product_sieve(monkeypatch):
    # the product lists only the primes below its cuts (4 096 here), but
    # its sieve reaches pmax and replaces the table that is_prime reads
    spaces.primes_upto(10)
    l_function_partial_with_error(2, 0, 6.5, 100_003)
    assert 2 * len(spaces._sieve_flags) == 100_004
    # with no Miller-Rabin bases left, only the table can answer
    monkeypatch.setattr(spaces, "_MR_BASES", ())
    around = range(99_900, 100_004)
    assert [spaces.is_prime(m) for m in around] == [
        m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1)) for m in around]


def test_negative_pmax_is_refused_before_the_sieve(block_sieves):
    empty = {pmax: l_function_partial_with_error(1, 0, 3.5, pmax) for pmax in (0, 1)}
    assert empty[0] == empty[1] and empty[0][0] == 1.0  # the empty product
    block_sieves()
    for l, s in [(0, 3.5), (1, 2.5)]:
        with pytest.raises(DomainError, match="pmax must be >= 0"):
            l_function_partial_with_error(1, l, s, -5)


def test_ranges_above_the_cap_are_refused_before_they_start(block_sieves):
    block_sieves()
    for l, s in [(0, 4.0), (1, 2.5)]:
        with pytest.raises(SizeCapExceeded):
            l_function_partial_with_error(1, l, s, zeta_series.RANGE_CAP + 1)
    with pytest.raises(SizeCapExceeded):
        spec_z_zeta_partial(2.0, zeta_series.RANGE_CAP + 1)


@pytest.mark.parametrize("s, cutoff, audit", [(2.0, 10 ** 4, True), (1.5, 10 ** 5, False),
                                              (3.25, 97, False), (1.01, 1000, True)])
def test_spec_z_error_bounds_the_exact_partial_sum(s, cutoff, audit):
    value, err = zeta_series.spec_z_zeta_partial_with_error(s, cutoff, audit)
    with mpmath.workdps(40):
        exact = mpmath.zeta(s) - mpmath.zeta(s, cutoff + 1)
    assert abs(value - exact) <= err
    assert 0 < err <= 1e-15 * value


def test_l_function_large_s_tends_to_one():
    value = l_function_partial_with_error(1, 0, 40.0, 1000)[0]
    assert abs(value - 1.0) < 1e-9


def test_spec_z_partial_sums():
    # fsum inside vs the test's naive sum: agreement to a few ulps
    assert math.isclose(
        spec_z_zeta_partial(2.0, 10 ** 4),
        sum(m ** -2.0 for m in range(1, 10 ** 4 + 1)),
        rel_tol=1e-13,
    )
    assert spec_z_zeta_partial(50.0, 100) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        spec_z_zeta_partial(1.0, 10)


def test_spec_z_audit_bijection():
    # each norm of the cycle walk once: the norm map hits 1..50
    assert sorted(chain.from_iterable(_spec_z_norms(50))) == list(range(1, 51))
    assert spec_z_zeta_partial(2.0, 50, audit=True) == spec_z_zeta_partial(2.0, 50)


def test_spec_z_cycles_are_the_factorizations():
    # a nondecreasing prime sequence per integer, so every norm once
    for cutoff in (1, 50, 3000):
        assert sorted(chain.from_iterable(_spec_z_norms(cutoff))) == list(range(1, cutoff + 1))
    with pytest.raises(DomainError):
        spec_z_zeta_partial(2.0, 0, audit=True)
    with pytest.raises(SizeCapExceeded):
        spec_z_zeta_partial(2.0, zeta_series.SPEC_Z_AUDIT_CAP + 1, audit=True)


@pytest.mark.parametrize("s", [1.5, 2.0, 2.718281828, 3.25])
def test_spec_z_audit_equals_fast_mode_bit_for_bit(s):
    for cutoff in (1, 2, 97, 1000, 100_000):
        assert spec_z_zeta_partial(s, cutoff, audit=True) == spec_z_zeta_partial(s, cutoff)


@pytest.mark.parametrize("mangle", [
    lambda primes: [p for p in primes if p != 7],  # 7 and its multiples missing
    lambda primes: primes + [primes[-1]],  # the largest prime twice
    lambda primes: primes + [primes[-1] + 1],  # a composite passed as a prime
    lambda primes: [2 * primes[-1]] + primes,  # a "prime" above the limit: a norm past it
    lambda primes: [-1] + primes,  # a negative index would wrap in the byte table
])
def test_spec_z_audit_fails_on_a_broken_enumeration(monkeypatch, mangle):
    monkeypatch.setattr(zeta_series, "primes_upto",
                        lambda limit: mangle(spaces.primes_upto(limit)))
    with pytest.raises(AuditMismatch):
        spec_z_zeta_partial(2.0, 1000, audit=True)
    assert spec_z_zeta_partial(2.0, 1000) > 0  # fast mode does not enumerate


def test_spec_z_walk_lists_are_short_and_nonempty(monkeypatch):
    # a leaf slice longer than the chunk is split (a node has at most
    # pi(54) = 16 branches); the audit reads the lists
    monkeypatch.setattr(zeta_series, "_NORM_CHUNK", 20)
    lists = list(_spec_z_norms(3000))
    assert all(1 <= len(norms) <= 20 for norms in lists)
    assert sorted(chain.from_iterable(lists)) == list(range(1, 3001))
    assert spec_z_zeta_partial(2.5, 3000, audit=True) == spec_z_zeta_partial(2.5, 3000)


@pytest.mark.parametrize("cutoff, cap_mib", [(10 ** 5, 2.0), (10 ** 6, 6.0)])
def test_spec_z_audit_memory_stays_bounded(cutoff, cap_mib):
    # the primes, the sieve's and the check's byte tables, and one list of
    # at most _NORM_CHUNK norms: never the whole list of norms
    tracemalloc.start()
    try:
        spec_z_zeta_partial(2.0, cutoff, audit=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap_mib * 2 ** 20


def test_abscissa_examples():
    rep = abscissa_sequence(P1, Q2, 0, 20)
    assert rep.predicted_limit == 1.0
    assert math.isclose(rep.value(20), math.log2(2 ** 21 - 1) / 20, rel_tol=1e-12)
    rep2 = abscissa_sequence(P2, Q2, 1, 20)
    assert rep2.predicted_limit == 0.5
    assert math.isclose(rep2.value(20), math.log2(2 ** 231 - 1) / 400, rel_tol=1e-12)
    rep3 = abscissa_sequence(P1, Q2, 1, 5)
    assert rep3.predicted_limit is None


@given(st.integers(min_value=5, max_value=20))
@settings(max_examples=20)
def test_abscissa_convergence_rate(k):
    for rep in (
        abscissa_sequence(P1, Q2, 0, k),
        abscissa_sequence(P2, Q2, 1, k),
    ):
        assert abs(rep.value(k) - rep.predicted_limit) <= 2.0 / k


def test_first_term_at_least_one():
    for q in (Q2, Q3):
        rep = abscissa_sequence(P1, q, 0, 1)
        assert rep.value(1) >= 1.0


# sha256 of the comma-joined decimal coefficients of each series the
# benchmark's series workload computes, recorded from the per-degree
# computation that the one-pass sequence replaced
SERIES_DIGESTS = [
    (P2, 3, 0, 200, "d6f76a5181d4d22b57123b615e4433e4988083a5258a2d5292ec5e9e38a68bad"),
    (P1, 2, 0, 150, "f18dc6a9842ba7c6848ead1c9f4dcf046ebc4bc094f7a0b760a6c84a57dbc014"),
    (P1Power(2), 2, 0, 120, "d2131a76fceb74c86bb746e1a744eb70e91c79a66711124032108f43439e275b"),
    (P2, 2, 1, 10, "5568388b12d9d9b729d21c968ca729ac13534ac5a6e07a52e8feb698512cbbe3"),
    (P1, 3, 0, 100, "19523172b640cc103280d02db33383f03fb3195db3097ae414b77602e14f794e"),
    (P1Power(2), 3, 1, 8, "7ad17e3392c457e31748029e6cd964dda0f91d443a34044eed237b95d1814ff7"),
    (P2, 2, 0, 100, "fab07d2f9e9805d0c34deb2a588a8f9260750fc8abe5eec9a1f08247f17fd98c"),
    (P1, 5, 1, 60, "09c3697f4db816692847ec4cca630a4b94c44663de261fdab9a68e8713172619"),
]


@pytest.mark.parametrize("space, q, l, kmax, digest", SERIES_DIGESTS)
def test_series_coefficients_pinned(space, q, l, kmax, digest):
    coeffs = local_zeta_series(space, PrimePower(q), l, kmax).coefficients
    assert len(coeffs) == kmax + 1
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == digest


@pytest.mark.parametrize("space, q, l, kmax", [
    (P2, Q3, 0, 60), (P1, PrimePower(2, 2), 0, 80),
    (P1Power(2), Q2, 1, 8), (P1Power(2), Q3, 0, 50),
])
def test_abscissa_values_unchanged_by_one_pass(space, q, l, kmax):
    # bit-identical to the per-degree formula the sequence replaced
    logq = math.log(q.q)
    expected = tuple(
        math.log(n_k) / (k ** (l + 1) * logq) if n_k > 0 else -math.inf
        for k, n_k in ((k, cycle_count(space, q, l, k)) for k in range(1, kmax + 1))
    )
    assert abscissa_sequence(space, q, l, kmax).values == expected
