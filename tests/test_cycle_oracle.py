import hashlib
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclezeta import cycle_oracle
from cyclezeta.cycle_oracle import (
    AUDITS,
    ClosedPoint,
    FormClass,
    ZeroCycle,
    _frobenius_permutation,
    _orbit,
    closed_points,
    enum_divisors,
    enum_zero_cycles,
    fiber_count,
    pushforward_zero_cycle,
)
from cyclezeta.errors import DomainError, SizeCapExceeded
from cyclezeta.exact_counts import (
    divisor_count,
    divisor_count_by_degree,
    zero_cycle_count,
)
from cyclezeta.field_census import closed_point_census, point_count
from cyclezeta.finite_fields import field
from cyclezeta.spaces import P1Power, PrimePower, Product, ProjSpace

Q2 = PrimePower(2)
Q3 = PrimePower(3)
P1 = ProjSpace(1)
P2 = ProjSpace(2)
P1XP1 = Product(P1, P1)


def test_closed_points_match_census():
    for space in (P1, P2, P1Power(2)):
        census = closed_point_census(space, Q2, 3)
        for d in (1, 2, 3):
            assert len(closed_points(space, Q2, d)) == census.count(d)


def test_closed_point_keys_are_canonical_and_sorted():
    pts = closed_points(P1, Q2, 2)
    assert [p.degree for p in pts] == [2]
    keys = [p.orbit_key for p in closed_points(P1Power(2), Q3, 1)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for space in (P1, P2, P1XP1):
        for q, d in ((Q2, 3), (PrimePower(2, 2), 2)):
            F = field(q.p, q.e * d)
            keys = [p.orbit_key for p in closed_points(space, q, d)]
            assert keys == sorted(keys) and len(keys) == len(set(keys))
            assert all(key == min(_orbit(key, F, q.q)) for key in keys)



_PIN_FIELDS = {2: PrimePower(2), 3: Q3, 4: PrimePower(2, 2), 5: PrimePower(5),
               7: PrimePower(7), 8: PrimePower(2, 3), 9: PrimePower(3, 2)}


# sha256 of the (degree, orbit_key) lists of every q above and every d with
# at most 6 * 10^4 points over F_(q^d), and the number of (q, d) cases
@pytest.mark.parametrize("space, digest, cases", [
    (P1, "2e0875d49c918a29ca532a5cfbad436ac12f98db360c3d1df1639fae34171cec", 53),
    (P2, "b813565a64f48200fa3b247f6c1aec91316f0273965aa14f31a4fedfca9cafd9", 24),
    (ProjSpace(3), "12de529c3047c0fd4fc4aa881a436b37939a1d58a5732dd3b588f63559053307", 15),
    (P1Power(2), "879146bc4aacb52fe39e1d5da89bea3c5feafc47519bad88a7ad35c840e3db50", 24),
    (P1Power(3), "f5d7bd9742b0078361eb4963cea957fdb2e12ded0e71de15788e339c5405770f", 15),
    (Product(P2, P1), "b3e969991e58daa61c4797720b02247e0c1a27ad8fd582284ac7df7a4a02e504", 15),
], ids=["P1", "P2", "P3", "(P1)^2", "(P1)^3", "P2xP1"])
def test_closed_point_keys_pinned(space, digest, cases):
    h = hashlib.sha256()
    seen = 0
    for q, pp in _PIN_FIELDS.items():
        d = 1
        while point_count(space, pp, d) <= 6 * 10 ** 4:
            # uncached, so the test keeps no point lists alive
            pts = closed_points.__wrapped__(space, pp, d)
            h.update(repr((q, d, [(p.degree, p.orbit_key) for p in pts])).encode())
            d += 1
            seen += 1
    assert (h.hexdigest(), seen) == (digest, cases)

def test_enum_divisors_examples():
    assert len(enum_divisors(P1, Q2, (1,))) == 3
    assert len(enum_divisors(P1Power(2), Q2, (1, 0))) == 3
    assert len(enum_divisors(P2, Q2, (1,))) == 7


def test_enum_divisors_respects_cap():
    with pytest.raises(SizeCapExceeded):
        enum_divisors(P1Power(3), Q3, (3, 3, 3))


def test_enum_divisors_canonical_unique():
    for space, q, e in [(P1Power(2), Q2, (2, 1)), (P1, Q3, (3,)), (P2, Q2, (2,)),
                        (P2, PrimePower(2, 2), (1,)), (P1XP1, PrimePower(5), (1, 1))]:
        forms = enum_divisors(space, q, e)
        assert len(forms) == len(set(forms))
        for f in forms:
            lead = next(c for c in f.coefficients if c)
            assert lead == 1
        assert [f.coefficients for f in forms] == sorted(f.coefficients for f in forms)


@pytest.mark.parametrize("q", [Q2, Q3, PrimePower(2, 2)])
@pytest.mark.parametrize("e", [(0,), (1,), (2,), (3,)])
def test_enum_divisors_p1_matches_formula(q, e):
    assert len(enum_divisors(P1, q, e)) == divisor_count(P1, q, e)


@pytest.mark.parametrize("e", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_enum_divisors_p1_power_matches_formula(e):
    for q in (Q2, Q3):
        assert len(enum_divisors(P1Power(2), q, e)) == divisor_count(
            P1Power(2), q, e
        )


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_enum_zero_cycles_matches_formula(k):
    for space in (P1, P2, P1XP1):
        cycles = enum_zero_cycles(space, Q2, k)
        assert len(cycles) == zero_cycle_count(space, Q2, k)
        assert len(set(cycles)) == len(cycles)
        assert all(z.degree == k for z in cycles) or k == 0


@pytest.mark.parametrize("q", [Q2, Q3, PrimePower(2, 2)])
@pytest.mark.parametrize("space", [P1, P2, P1XP1])
def test_enum_zero_cycles_come_out_in_canonical_order(space, q):
    for k in range(5):
        cycles = enum_zero_cycles(space, q, k)
        assert cycles == sorted(cycles, key=ZeroCycle.sort_key)
        assert len({z.sort_key() for z in cycles}) == len(cycles)


@pytest.mark.parametrize("space, q, k", [(P1, Q2, 5), (P2, Q2, 3), (P1XP1, Q2, 3),
                                         (P1Power(2), Q3, 2)])
def test_zero_cycle_cap_is_exact(monkeypatch, space, q, k):
    # the cap refuses exactly the degrees with more cycles than it allows
    count = zero_cycle_count(space, q, k)
    monkeypatch.setattr(cycle_oracle, "ENUM_CAP", count)
    assert len(enum_zero_cycles(space, q, k)) == count
    monkeypatch.setattr(cycle_oracle, "ENUM_CAP", count - 1)
    with pytest.raises(SizeCapExceeded, match=f"more than {count - 1} zero-cycles"):
        enum_zero_cycles(space, q, k)


def _fields(record):
    return [getattr(record, name) for name in type(record)._fields]


def test_enumerated_records_are_constructed_records():
    # the enumerators pack their records without calling the constructor;
    # each must still be of its class, and equal and hash like the record
    # the constructor builds (FrozenRecord.__eq__ refuses a plain tuple)
    cases = [
        (ClosedPoint, closed_points(P2, Q2, 3)),
        (ClosedPoint, closed_points(P2, Q3, 2)),
        (ClosedPoint, closed_points(P1Power(2), Q2, 3)),
        (ClosedPoint, closed_points(P1XP1, Q3, 2)),
        (ClosedPoint, closed_points(Product(P1, P2), Q2, 2)),
        (ClosedPoint, closed_points(P1Power(0), Q2, 1)),
        (ZeroCycle, enum_zero_cycles(P1XP1, Q2, 3)),
        (ZeroCycle, enum_zero_cycles(P2, Q3, 2)),
        (ZeroCycle, enum_zero_cycles(P2, Q2, 0)),
        (FormClass, enum_divisors(P2, Q2, (2,))),
        (FormClass, enum_divisors(P1XP1, Q2, (1, 2))),
    ]
    for cls, records in cases:
        assert records
        for x in records:
            built = cls(*_fields(x))
            assert type(x) is cls
            assert x == built and built == x and hash(x) == hash(built)
            assert x != tuple(built)
            if cls is ClosedPoint:
                assert len(x.orbit_key) == len(x.space.slots)
                assert all(type(block) is tuple for block in x.orbit_key)
            if cls is ZeroCycle:
                assert all(type(pt) is ClosedPoint and type(m) is int for pt, m in x.terms)
    assert closed_points(P1Power(0), Q2, 1)[0].orbit_key == ()
    assert closed_points(P1Power(2), Q2, 3)[0].degree == 3


@pytest.mark.parametrize("q, d", [(Q2, 3), (Q3, 2), (PrimePower(2, 2), 2),
                                  (PrimePower(2, 2), 3), (PrimePower(5), 2)])
def test_orbit_table_matches_repeated_pow(q, d):
    # Frobenius a -> a^q on F_(q^d): F_16 and F_64 for q = 4
    F = field(q.p, q.e * d)
    rng = random.Random(f"{q.q}:{d}")
    for space in (P2, P1XP1, Product(P1, P2)):
        blocks, perm = _frobenius_permutation(space, F, q.q)
        assert sorted(perm) == list(range(len(perm)))
        points = list(itertools.product(*blocks))  # lexicographic: index i is point i
        assert points == sorted(points)
        for i in rng.sample(range(len(perm)), 40):
            image = tuple(tuple(F.pow(c, q.q) for c in block) for block in points[i])
            assert points[perm[i]] == image


def test_divisor_oracle_by_degree_matches_closed_form():
    closed_form, oracle = AUDITS["divisors"]
    assert closed_form is divisor_count_by_degree
    for k in (0, 1, 2):
        assert oracle(P2, Q2, k) == divisor_count_by_degree(P2, Q2, k)
        assert oracle(P1Power(2), Q2, k) == divisor_count_by_degree(
            P1Power(2), Q2, k
        )


def test_pushforward_examples():
    rational = closed_points(P1XP1, Q2, 1)
    z = ZeroCycle.make(P1XP1, Q2, {rational[0]: 1})
    p = pushforward_zero_cycle(z, "first")
    assert p.degree == 1 and p.terms[0][1] == 1
    empty = ZeroCycle.make(P1XP1, Q2, {})
    assert pushforward_zero_cycle(empty, "second").terms == ()


def test_pushforward_degree_2_point_over_degree_1():
    found = False
    for pt in closed_points(P1XP1, Q2, 2):
        z = ZeroCycle.make(P1XP1, Q2, {pt: 1})
        p = pushforward_zero_cycle(z, "first")
        if p.terms[0][0].degree == 1:
            assert p.terms[0][1] == 2
            found = True
    assert found


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pushforward_preserves_degree(k):
    for z in enum_zero_cycles(P1XP1, Q2, k):
        for which in ("first", "second"):
            assert pushforward_zero_cycle(z, which).degree == z.degree


def test_pushforward_lands_on_enumerated_points():
    # images must be exactly the canonical closed points of the factor
    factor_pts = set(closed_points(P1, Q2, 1)) | set(closed_points(P1, Q2, 2))
    for z in enum_zero_cycles(P1XP1, Q2, 2):
        for pt, _ in pushforward_zero_cycle(z, "first").terms:
            assert pt in factor_pts


def test_fiber_count_examples():
    pts1 = closed_points(P1, Q2, 1)
    pts2 = closed_points(P1, Q2, 2)
    x = ZeroCycle.make(P1, Q2, {pts1[0]: 1})
    y = ZeroCycle.make(P1, Q2, {pts1[1]: 1})
    assert fiber_count(x, y, Q2) == 1
    assert fiber_count(ZeroCycle.make(P1, Q2, {pts1[0]: 2}), y, Q2) == 0
    d2 = ZeroCycle.make(P1, Q2, {pts2[0]: 1})
    assert fiber_count(d2, d2, Q2) == 2


def test_fiber_count_against_product_enumeration():
    # marginal-count identity: summing fiber counts over all pushforward
    # pairs of degree k recovers the number of degree-k cycles upstairs
    for k in (1, 2, 3):
        marginals = enum_zero_cycles(P1, Q2, k)
        total = sum(
            fiber_count(x, y, Q2)
            for x in marginals
            for y in marginals
        )
        assert total == zero_cycle_count(P1XP1, Q2, k)


def test_fiber_count_respects_bound():
    cycles = [
        z for k in range(5) for z in enum_zero_cycles(P1, Q2, k)
    ]
    for x, y in itertools.product(cycles, repeat=2):
        if x.degree == 0 or y.degree == 0:
            continue
        count = fiber_count(x, y, Q2)
        assert count <= 2 ** (x.alpha() * y.alpha()) * (1 + 1e-9)


def test_fiber_count_cap():
    pts1 = closed_points(P1, Q2, 1)
    big = ZeroCycle.make(P1, Q2, {pts1[0]: 9})
    with pytest.raises(SizeCapExceeded):
        fiber_count(big, big, Q2)


def test_pushforward_on_mixed_product():
    # factors of different kinds exercise the block slicing
    mixed = Product(ProjSpace(1), ProjSpace(2))
    for k in (1, 2):
        for z in enum_zero_cycles(mixed, Q2, k):
            left = pushforward_zero_cycle(z, "first")
            right = pushforward_zero_cycle(z, "second")
            assert left.degree == z.degree == right.degree
            left_pts = set(closed_points(P1, Q2, 1)) | set(closed_points(P1, Q2, 2))
            assert all(pt in left_pts for pt, _ in left.terms)
            right_pts = set(closed_points(P2, Q2, 1)) | set(closed_points(P2, Q2, 2))
            assert all(pt in right_pts for pt, _ in right.terms)


def test_pushforward_needs_a_product_and_a_factor():
    z = enum_zero_cycles(P1, Q2, 1)[0]
    with pytest.raises(DomainError, match="not a Product"):
        pushforward_zero_cycle(z, "first")
    z = enum_zero_cycles(P1XP1, Q2, 1)[0]
    with pytest.raises(DomainError, match="which must be"):
        pushforward_zero_cycle(z, "third")


def test_zero_cycle_make_validation():
    pts1 = closed_points(P1, Q2, 1)
    with pytest.raises(DomainError):
        ZeroCycle.make(P1, Q2, {pts1[0]: -1})
    z = ZeroCycle.make(P1, Q2, {pts1[0]: 0})
    assert z.terms == ()


def _single_point_cycle(degree: int, mult: int) -> ZeroCycle:
    # fiber_count reads only residue degrees and multiplicities
    pt = ClosedPoint(P1, Q2, degree, ((degree,),))
    return ZeroCycle.make(P1, Q2, {pt: mult})


def _residue_product_points(a: int, b: int) -> list[tuple[int, int]]:
    # (count, degree) of the closed points in the product of a degree-a and a
    # degree-b point: the lowest degree with cycles over (deg/a) x and
    # (deg/b) y, where those cycles are the points with multiplicity one
    for deg in range(1, a * b + 1):
        if deg % a or deg % b:
            continue
        x = _single_point_cycle(a, deg // a)
        y = _single_point_cycle(b, deg // b)
        count = fiber_count(x, y, Q2)
        if count:
            return [(count, deg)]
    return []


def test_residue_product_points():
    assert _residue_product_points(1, 1) == [(1, 1)]
    assert _residue_product_points(2, 2) == [(2, 2)]
    assert _residue_product_points(2, 3) == [(1, 6)]


def test_residue_product_against_field_factorization():
    # number of degree-lcm closed points of the product of a degree-a and a
    # degree-b point equals gcd(a,b): the degrees add up to a*b
    for a, b in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        (count, deg), = _residue_product_points(a, b)
        assert count * deg == a * b


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_residue_product_gcd_lcm(a, b):
    # the residue fields of degrees a and b multiply to gcd(a, b) points of
    # degree lcm(a, b): the cycles over (lcm/a) x and (lcm/b) y are exactly
    # these points with multiplicity one
    lcm = math.lcm(a, b)
    assume(lcm <= 8)
    assert lcm * math.gcd(a, b) == a * b
    x = _single_point_cycle(a, lcm // a)
    y = _single_point_cycle(b, lcm // b)
    assert fiber_count(x, y, Q2) == math.gcd(a, b)
    # no cycle upstairs has degree below lcm(a, b)
    if lcm > a:
        assert fiber_count(_single_point_cycle(a, 1), _single_point_cycle(b, 1), Q2) == 0


@given(
    st.sampled_from(sorted(AUDITS)),
    st.sampled_from([P1, P2, P1Power(2)]),
    st.sampled_from([Q2, Q3, PrimePower(2, 2)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_every_audited_family_matches_its_oracle(family, space, q, data):
    closed_form, oracle = AUDITS[family]
    if family == "multidegree divisors":
        degree = tuple(
            data.draw(st.integers(min_value=0, max_value=2), label=f"e{i}")
            for i in range(len(space.slots))
        )
    else:
        degree = data.draw(st.integers(min_value=0, max_value=3), label="k")
    try:
        enumerated = oracle(space, q, degree)
    except SizeCapExceeded:
        assume(False)
    assert enumerated == closed_form(space, q, degree)
