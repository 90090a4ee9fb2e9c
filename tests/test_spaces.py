import math
import time

import pytest

from cyclezeta import spaces
from cyclezeta.errors import DomainError, SizeCapExceeded
from cyclezeta.field_census import point_count
from cyclezeta.spaces import (
    PRIME_CAP,
    P1Power,
    PrimePower,
    Product,
    ProjSpace,
    as_p1_power,
    cell_counts,
    is_prime,
    primes_upto,
    top_degree,
)

PSI_4 = 3_215_031_751
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def _sieve_flags(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit, i)))
    return flags


def test_is_prime_agrees_with_sieve():
    flags = _sieve_flags(10 ** 5)
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if flags[n]
    ]
    assert not any(is_prime(n) for n in (-7, -2, -1))


@pytest.mark.parametrize("n", [
    561,  # Carmichael
    2047,  # strong pseudoprime to base 2
    1_373_653,  # strong pseudoprime to bases 2, 3
    25_326_001,  # strong pseudoprime to bases 2, 3, 5
    PSI_4,  # least strong pseudoprime to bases 2, 3, 5, 7
    PSI_12,  # least strong pseudoprime to the primes 2..37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)
    with pytest.raises(DomainError):
        PrimePower(n)


def test_is_prime_large_primes_are_fast():
    start = time.perf_counter()
    assert is_prime(2 ** 61 - 1)
    # the largest primes below psi_4 and psi_12, and one above psi_12
    # (2^79 - 67), which takes the 13-base set
    assert is_prime(3_215_031_749)
    assert is_prime(318_665_857_834_031_151_167_441)
    assert is_prime(2 ** 79 - 67)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n", [PSI_13, PSI_13 + 1, 2 * PSI_13, 2 ** 89 - 1, 10 ** 5000],
    ids=["psi_13", "psi_13+1", "2psi_13", "2^89-1", "10^5000"],
)
def test_is_prime_refuses_beyond_proven_bases(n):
    assert PRIME_CAP == PSI_13
    with pytest.raises(SizeCapExceeded):
        is_prime(n)
    with pytest.raises(SizeCapExceeded):
        PrimePower(n)


@pytest.mark.parametrize("p", [1, 4, 0, -3, 91])
def test_prime_power_refuses_non_primes(p):
    with pytest.raises(DomainError):
        PrimePower(p)
    assert PrimePower(2, 2).q == 4


def _trial_division_flags(limit):
    small = [p for p in range(2, math.isqrt(limit) + 1)
             if all(p % d for d in range(2, math.isqrt(p) + 1))]
    flags = []
    for n in range(limit):
        flags.append(n >= 2 and all(n % p for p in small if p * p <= n))
    return flags


@pytest.mark.parametrize("edge", [10 ** 5, 100_003])  # a composite and a prime edge
def test_is_prime_reads_the_sieve_and_beyond(edge):
    expected = _trial_division_flags(2 * 10 ** 5)
    assert primes_upto(edge) == [n for n in range(edge + 1) if expected[n]]
    # the table covers every n < edge, and no n past edge
    assert edge <= 2 * len(spaces._sieve_flags) <= edge + 1
    # inside the table, at its edge and past it (Miller-Rabin)
    assert [is_prime(n) for n in range(2 * 10 ** 5)] == expected
    assert not any(is_prime(n) for n in (-7, -2, -1))


@pytest.mark.parametrize("edge", [5, 6, 97, 98, 99, 100, 10 ** 4, 10 ** 4 + 7])
def test_is_prime_at_both_parities_of_the_table_edge(monkeypatch, edge):
    expected = _trial_division_flags(2 * edge + 50)
    primes_upto(edge)
    # 2 and 4, the even numbers the table does not flag, right after a sieve
    assert is_prime(2) and not is_prime(4)
    around = range(edge - 3, edge + 4)
    assert [is_prime(n) for n in around] == [expected[n] for n in around]
    # every n < edge is read from the table: with no Miller-Rabin bases
    # left, only n past the table (and past the small primes) would fail
    monkeypatch.setattr(spaces, "_MR_BASES", ())
    assert [is_prime(n) for n in range(edge)] == expected[:edge]


def test_prime_power_still_proves_user_input_after_a_sieve():
    primes_upto(10 ** 5)
    for n in (91, 1, 0, 10 ** 5, 2047):
        with pytest.raises(DomainError):
            PrimePower(n)
    assert PrimePower(99_991).q == 99_991
    assert PrimePower(100_003).q == 100_003  # just past the table


def test_primes_upto_small_limits():
    assert primes_upto(-5) == primes_upto(0) == primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


P1_SLOT = ("p1",)

# (space, dim, top degree, as_p1_power, slots, N_1 and N_2 over F_2, N_1
# over F_3); every column but as_p1_power is as the per-class formulas
# gave them.  Those counted a P^0 slot as zero lines, so P^0 was (P^1)^0
# and P^0 x (P^1)^2 was (P^1)^2 with three slots; both are now None.
SPACE_TABLE = [
    (ProjSpace(0), 0, 1, None, (("pn", 0),), (1, 1), 1),
    (ProjSpace(1), 1, 1, 1, (("pn", 1),), (3, 5), 4),
    (ProjSpace(3), 3, 1, None, (("pn", 3),), (15, 85), 40),
    (P1Power(0), 0, 1, 0, (), (1, 1), 1),
    (P1Power(3), 3, 6, 3, (P1_SLOT,) * 3, (27, 125), 64),
    (Product(ProjSpace(2), P1Power(1)), 3, 3, None, (("pn", 2), P1_SLOT),
     (21, 105), 52),
    (Product(P1Power(2), ProjSpace(2)), 4, 12, None,
     (P1_SLOT, P1_SLOT, ("pn", 2)), (63, 525), 208),
    (Product(Product(ProjSpace(1), ProjSpace(2)), Product(P1Power(2), ProjSpace(0))),
     5, 60, None, (("pn", 1), ("pn", 2), P1_SLOT, P1_SLOT, ("pn", 0)),
     (189, 2625), 832),
    (Product(ProjSpace(0), P1Power(2)), 2, 2, None, (("pn", 0), P1_SLOT, P1_SLOT),
     (9, 25), 16),
    (Product(ProjSpace(2), ProjSpace(0)), 2, 1, None, (("pn", 2), ("pn", 0)),
     (7, 21), 13),
]


@pytest.mark.parametrize("row", SPACE_TABLE, ids=lambda row: row[0].label())
def test_space_invariants_follow_from_the_slots(row):
    space, dim, degree, p1_power, slots, counts_f2, count_f3 = row
    assert space.slots == slots
    assert space.dim == dim
    assert top_degree(space) == degree
    assert as_p1_power(space) == p1_power
    q2, q3 = PrimePower(2), PrimePower(3)
    assert (point_count(space, q2, 1), point_count(space, q2, 2)) == counts_f2
    assert point_count(space, q3, 1) == count_f3


@pytest.mark.parametrize("row", SPACE_TABLE, ids=lambda row: row[0].label())
def test_cells_give_the_point_counts(row):
    # a cellular space has sum_j b_j Q^j points over F_Q
    space = row[0]
    cells = cell_counts(space)
    assert len(cells) == space.dim + 1 and cells[0] == cells[-1] == 1
    for q, m in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        qm = q ** m
        assert sum(b * qm ** j for j, b in enumerate(cells)) == point_count(
            space, PrimePower(q), m)


def test_top_degree_of_large_spaces_is_fast():
    # dim!/prod n_i! is never formed from dim! itself
    start = time.perf_counter()
    assert top_degree(ProjSpace(10 ** 7)) == 1
    assert top_degree(Product(ProjSpace(10 ** 6), P1Power(1))) == 10 ** 6 + 1
    assert top_degree(P1Power(10 ** 4)) == math.factorial(10 ** 4)
    assert time.perf_counter() - start < 1.0


def test_cell_counts_examples():
    assert cell_counts(ProjSpace(3)) == (1, 1, 1, 1)
    assert cell_counts(P1Power(3)) == (1, 3, 3, 1)
    assert cell_counts(Product(ProjSpace(2), P1Power(1))) == (1, 2, 2, 1)
    assert cell_counts(Product(ProjSpace(0), P1Power(0))) == (1,)
