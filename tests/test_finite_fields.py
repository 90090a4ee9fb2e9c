import hashlib
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclezeta.cycle_oracle import closed_points
from cyclezeta.errors import DomainError
from cyclezeta.finite_fields import (
    _PURE_TABLE_ORDER,
    _decode,
    _encode,
    _poly_mod,
    _poly_mul,
    _primitive_element,
    _tables_numpy,
    _tables_python,
    embedding,
    field,
)
from cyclezeta.spaces import PrimePower, ProjSpace, is_prime


def test_canonical_moduli_f2():
    assert field(2, 1).modulus == (0, 1)
    assert field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert field(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1


def test_field_orders():
    assert field(3, 2).order == 9
    assert field(5, 1).order == 5


FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,m", FIELDS)
def test_field_axioms_exhaustive(p, m):
    F = field(p, m)
    elements = range(F.order)
    for a in elements:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # multiplicative group order
    for a in elements:
        if a:
            assert F.pow(a, F.order - 1) == 1


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=60)
def test_field_ring_identities(pm, data):
    F = field(*pm)
    a = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    b = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    c = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_frobenius_fixes_prime_field():
    F = field(2, 3)
    for a in range(2):
        assert F.pow(a, 2) == a
    # Frobenius is additive
    for a in range(F.order):
        for b in range(F.order):
            assert F.pow(F.add(a, b), 2) == F.add(F.pow(a, 2), F.pow(b, 2))


def test_embedding_is_ring_map():
    fwd, back = embedding(2, 2, 4)
    sub, sup = field(2, 2), field(2, 4)
    for a in range(sub.order):
        for b in range(sub.order):
            assert fwd[sub.add(a, b)] == sup.add(fwd[a], fwd[b])
            assert fwd[sub.mul(a, b)] == sup.mul(fwd[a], fwd[b])
    assert len(set(fwd)) == sub.order
    for a in range(sub.order):
        assert back[fwd[a]] == a


def test_embedding_image_is_frobenius_fixed():
    fwd, _ = embedding(2, 2, 4)
    sup = field(2, 4)
    fixed = {a for a in range(sup.order) if sup.pow(a, 4) == a}
    assert set(fwd) == fixed


def test_embedding_rejects_non_subfield():
    with pytest.raises(DomainError):
        embedding(2, 2, 3)


def test_inverse_of_zero_rejected():
    with pytest.raises(DomainError):
        field(2, 2).inv(0)


# Reference arithmetic straight from the encoding: digit vectors for
# addition, polynomial multiplication and reduction for products.
def ref_add(F, a, b):
    pairs = zip_longest(_decode(a, F.p), _decode(b, F.p), fillvalue=0)
    return _encode([(x + y) % F.p for x, y in pairs], F.p)


def ref_neg(F, a):
    return _encode([-x % F.p for x in _decode(a, F.p)], F.p)


def ref_mul(F, a, b):
    prod = _poly_mul(_decode(a, F.p), _decode(b, F.p), F.p)
    return _encode(_poly_mod(prod, F.modulus, F.p), F.p)


def ref_pow(F, a, n):
    out = 1
    for _ in range(n):
        out = ref_mul(F, out, a)
    return out


SMALL_FIELDS = [  # every field of order <= 81
    (p, m) for p in range(2, 82) if is_prime(p) for m in range(1, 7) if p ** m <= 81
]


# Extension fields up to _PURE_TABLE_ORDER build their tables in pure
# Python, larger ones with numpy (prime fields build none): on every
# small extension field both builds must give the same tables.
PURE_TABLE_FIELDS = [(p, m) for p, m in SMALL_FIELDS if m > 1 and p ** m <= _PURE_TABLE_ORDER]


def _python_tables(F):
    exp, log, zech = _tables_python(F.p, F.modulus, _primitive_element(F.p, F.modulus))
    return exp + exp, log, zech


@pytest.mark.parametrize("p,m", PURE_TABLE_FIELDS)
def test_python_and_numpy_table_builds_agree(p, m):
    F = field(p, m)
    g = _primitive_element(p, F.modulus)
    assert _tables_python(p, F.modulus, g) == _tables_numpy(p, F.modulus, g)
    assert (F._exp, F._log, F._zech) == _python_tables(F)


def test_field_above_the_cutoff_matches_the_python_build():
    assert sorted(p ** m for p, m in PURE_TABLE_FIELDS) == [4, 8, 9, 16, 25, 27, 32]
    F = field(2, 6)  # F_64 takes the numpy build
    assert F.order > _PURE_TABLE_ORDER
    assert (F._exp, F._log, F._zech) == _python_tables(F)


@pytest.mark.parametrize("p,m,order_of_t", [(3, 2, 4), (5, 2, 8), (7, 2, 4), (2, 8, 51)])
def test_t_need_not_be_primitive(p, m, order_of_t):
    F = field(p, m)
    t = p  # the encoding of t
    powers = [F.pow(t, k) for k in range(1, F.order)]
    assert powers.index(1) + 1 == order_of_t


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_table_arithmetic_matches_polynomial_reference(p, m):
    F = field(p, m)
    for a in range(F.order):
        assert F.neg(a) == ref_neg(F, a)
        assert F.pow(a, p) == ref_pow(F, a, p)
        if a:
            assert ref_mul(F, a, F.inv(a)) == 1
        for b in range(F.order):
            assert F.mul(a, b) == ref_mul(F, a, b)
            assert F.add(a, b) == ref_add(F, a, b)
            assert F.sub(a, b) == ref_add(F, a, ref_neg(F, b))


@given(st.sampled_from([(7, 2), (2, 8), (5, 5)]), st.data())
@settings(max_examples=150, deadline=None)
def test_table_arithmetic_sampled_on_larger_fields(pm, data):
    F = field(*pm)
    a = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    b = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    assert F.mul(a, b) == ref_mul(F, a, b)
    assert F.add(a, b) == ref_add(F, a, b)
    assert F.neg(a) == ref_neg(F, a)
    assert F.pow(a, F.p) == ref_pow(F, a, F.p)
    if a:
        assert ref_mul(F, a, F.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (2, 4)])
def test_pow_zero_and_negative_exponents(p, m):
    F = field(p, m)
    assert F.pow(0, 0) == 1
    for n in (1, 2, F.order - 1, F.order):
        assert F.pow(0, n) == 0
    with pytest.raises(DomainError):
        F.pow(0, -1)
    for a in range(1, F.order):
        assert F.pow(a, 0) == 1
        assert F.pow(a, -1) == F.inv(a)
        for n in (1, 2, 5, F.order):
            assert F.pow(a, -n) == F.pow(F.inv(a), n) == ref_pow(F, F.inv(a), n)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (2, 6)])
def test_neg_is_identity_in_characteristic_two(p, m):
    F = field(p, m)
    for a in range(F.order):
        assert F.neg(a) == a
        assert F.add(a, a) == 0


@pytest.mark.parametrize("p,m", [(3, 1), (3, 3), (5, 2), (7, 2)])
def test_neg_in_odd_characteristic(p, m):
    F = field(p, m)
    assert F.neg(0) == 0
    for a in range(1, F.order):
        assert F.neg(a) != a
        assert F.neg(F.neg(a)) == a
        assert F.add(a, F.neg(a)) == 0
        assert F.neg(a) == F.mul(a, F.neg(1))


@pytest.mark.parametrize("p,m", [(3, 1), (2, 5), (3, 3)])
def test_results_are_plain_ints(p, m):
    F = field(p, m)
    a, b = F.order - 1, F.order // 2
    for value in (F.mul(a, b), F.add(a, b), F.sub(a, b), F.neg(a),
                  F.pow(a, p), F.inv(a)):
        assert type(value) is int


# Orbit keys compare by encoding, so the canonical moduli, embeddings and
# closed-point keys must not move when the arithmetic changes.  The values
# below were recorded with the digit-by-digit polynomial arithmetic.
PINNED_CLOSED_POINTS = [
    (ProjSpace(1), PrimePower(3), 2, 3,
     "95638dfb7652499fcebb652df618d8b4d463c3e4d21175132c133828904d0906"),
    (ProjSpace(2), PrimePower(5), 2, 310,
     "52006ca2d2e29d757cecc889bdef9c2a7fec3fbc59597d6fc1c0f40859edf006"),
    (ProjSpace(1), PrimePower(2, 2), 4, 60,
     "9714ae93dfc8a19b2ead2cfaf53928dc6647a8424b3eb5f44a01251137d961ba"),
]


@pytest.mark.parametrize("space,q,d,count,digest", PINNED_CLOSED_POINTS)
def test_closed_point_keys_pinned(space, q, d, count, digest):
    keys = sorted(cp.orbit_key for cp in closed_points(space, q, d))
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def test_embedding_tables_pinned():
    assert embedding(3, 1, 2)[0] == (0, 1, 2)
    assert embedding(2, 4, 8)[0] == (
        0, 1, 92, 93, 224, 225, 188, 189, 80, 81, 12, 13, 176, 177, 236, 237,
    )
