import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta.bound_engine import (
    CountingSystemSpec,
    arithmetic_divisor_tower_spec,
    counting_system_log_bound,
    divisor_tower_spec,
    explicit_constant_pn,
    prime_constant_p1_power,
    product_cycle_bound,
    pushforward_bound,
)
from cyclezeta.cycle_oracle import enum_divisors, enum_zero_cycles, fiber_count
from cyclezeta.errors import DomainError, SizeCapExceeded
from cyclezeta.spaces import P1Power, PrimePower, ProjSpace

Q2 = PrimePower(2)
Q3 = PrimePower(3)


def test_combinator_examples():
    spec = CountingSystemSpec(n0=1, n=3, log_B=lambda h: math.log(2.0),
                              log_A=lambda s, t: math.log(3.0))
    assert math.isclose(counting_system_log_bound(spec, 1.0), math.log(72.0),
                        rel_tol=1e-15)
    base = CountingSystemSpec(n0=2, n=2, log_B=lambda h: math.log(5.0),
                              log_A=lambda s, t: math.log(9.0))
    assert counting_system_log_bound(base, 0.0) == math.log(5.0)


def test_combinator_divisor_instantiation():
    spec = divisor_tower_spec(Q2, 3, 1)
    log2_bound = counting_system_log_bound(spec, 2.0) / math.log(2)
    assert math.isclose(log2_bound, 4 * math.log2(3) + 2 * 9 + 4, rel_tol=1e-12)


def test_combinator_threshold():
    spec = CountingSystemSpec(n0=1, n=2, log_B=lambda h: 1.0, log_A=lambda s, t: 1.0,
                              t0=1.0)
    for h in (0.5, math.nan):
        with pytest.raises(DomainError):
            counting_system_log_bound(spec, h)
    with pytest.raises(DomainError):
        CountingSystemSpec(n0=3, n=2, log_B=lambda h: 0.0, log_A=lambda s, t: 0.0)


def test_combinator_log_bound_is_finite_past_float_overflow():
    spec = CountingSystemSpec(
        n0=1, n=4, log_B=lambda h: math.log(1e300), log_A=lambda s, t: math.log(1e300)
    )
    # the bound itself, 1e300^7, overflows a float
    assert math.isclose(counting_system_log_bound(spec, 1.0), 7 * math.log(1e300),
                        rel_tol=1e-15)
    # at h = 40 the base bound B(h) = 41^2 2^1681 alone overflows a float
    log2_bound = counting_system_log_bound(divisor_tower_spec(Q2, 3, 1), 40.0) / math.log(2)
    assert math.isclose(log2_bound, 2 * (2 * math.log2(41) + 41 ** 2) + 40 ** 2,
                        rel_tol=1e-12)
    with pytest.raises(SizeCapExceeded):  # even the log overflows
        counting_system_log_bound(divisor_tower_spec(Q2, 3, 1), 1e200)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=50)
def test_combinator_monotone_for_monotone_inputs(h1, h2):
    spec = CountingSystemSpec(
        n0=1, n=3, log_B=math.log1p, log_A=lambda s, t: math.log1p(s * t)
    )
    lo, hi = sorted((h1, h2))
    assert counting_system_log_bound(spec, lo) <= counting_system_log_bound(spec, hi)


def test_product_cycle_bound_examples():
    assert product_cycle_bound(6, 6, 2, 1, 1) == 3.0
    assert product_cycle_bound(4, 9, 3, 2, 2) == 4.0
    assert product_cycle_bound(5, 5, 1, 0, 3) == 0.0
    with pytest.raises(DomainError):
        product_cycle_bound(1, 1, 0, 1, 1)


def test_pushforward_bound_examples():
    assert pushforward_bound(2, (1, 2)) == 6
    assert pushforward_bound(1, (1,)) == 1
    assert pushforward_bound(3, ()) == 0
    with pytest.raises(DomainError):
        pushforward_bound(0, (1,))
    with pytest.raises(DomainError):
        pushforward_bound(1, (0,))


def test_explicit_constants():
    assert explicit_constant_pn(1, 0).value == 4
    assert explicit_constant_pn(2, 1).value == 37
    for l in range(4):
        assert explicit_constant_pn(l, l).value == 1
    assert prime_constant_p1_power(2, 1) == 9
    assert prime_constant_p1_power(2, 0) == 6
    with pytest.raises(DomainError):
        explicit_constant_pn(1, 2)


def test_explicit_constant_derivation_trail():
    const = explicit_constant_pn(3, 1)
    assert len(const.derivation) == 3
    assert const.value == explicit_constant_pn(2, 1).value + 3 ** 2 * (
        3 + 2 * (4 + 3)
    )


def test_constants_monotone_in_n():
    for l in (0, 1):
        values = [explicit_constant_pn(n, l).value for n in range(l, 5)]
        assert values == sorted(values)


# -- the pinned constants really are upper bounds at small scale -------------

def test_p2_divisor_counts_below_pinned_constant():
    c = explicit_constant_pn(2, 1).value
    for h in (1, 2, 3):
        total = sum(
            len(enum_divisors(ProjSpace(2), Q2, (k,))) for k in range(h + 1)
        )
        assert math.log2(total) <= c * h ** 2


def test_p1_power_zero_cycles_below_prime_constant():
    for q in (Q2, Q3):
        for n in (1, 2):
            space = P1Power(n)
            for h in (1, 2, 3, 4):
                total = sum(
                    len(enum_zero_cycles(space, q, k)) for k in range(h + 1)
                )
                assert total <= q.q ** (3 * n * h)


def test_fiber_counts_below_product_cycle_bound():
    P1 = ProjSpace(1)
    cycles = [z for k in range(5) for z in enum_zero_cycles(P1, Q2, k)]
    for x in cycles:
        for y in cycles:
            if x.degree == 0 or y.degree == 0:
                continue
            bound = product_cycle_bound(
                x.degree, y.degree, 1, x.support_size(), y.support_size()
            )
            assert fiber_count(x, y, Q2) <= 2.0 ** bound * (1 + 1e-9)


def test_arithmetic_tower_expressible():
    spec = arithmetic_divisor_tower_spec(1.0, 3, 1, base_constant=2.0,
                                         pairing_degree=1.0)
    val = counting_system_log_bound(spec, 2.0)
    # (n - n0 + 1) * C h^2 + (n - n0) * h^2
    assert math.isclose(val, 3 * 2.0 * 4 + 2 * 4, rel_tol=1e-12)
