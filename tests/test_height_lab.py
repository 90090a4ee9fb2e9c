import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclezeta import height_lab, quadrature
from cyclezeta.errors import DomainError, SizeCapExceeded
from cyclezeta.field_census import point_count
from cyclezeta.finite_fields import field
from cyclezeta.height_lab import (
    FunctionFieldPoint,
    RationalFunctionPoint,
    _divisor_masks,
    _fq_gcd,
    _fq_trim,
    count_ff_points,
    height_ff,
    iter_ff_points,
    height_nv,
    sh_set_census,
    sh_set_table,
)
from cyclezeta.multipoly import MultiPoly, parse_affine_polynomial
from cyclezeta.quadrature import QuadratureConfig, batched_log_integrals, integrate_log_max
from cyclezeta.spaces import PrimePower, ProjSpace

Q2 = PrimePower(2)
Q3 = PrimePower(3)
CFG = QuadratureConfig(nodes_per_dim=128)


def poly(text, nvars=None):
    return parse_affine_polynomial(text, nvars=nvars)


def test_height_ff_examples():
    assert height_ff(FunctionFieldPoint.make(Q2, [(1,), (1, 0, 1)])) == 2
    pt = FunctionFieldPoint.make(Q2, [(0, 1), (0, 0, 1)])  # (t : t^2)
    assert pt.coords == ((1,), (0, 1))
    assert height_ff(pt) == 1
    assert height_ff(FunctionFieldPoint.make(Q2, [(1,), (1,)])) == 0
    with pytest.raises(DomainError):
        FunctionFieldPoint.make(Q2, [(), ()])


def test_height_ff_scaling_invariance():
    # scaling all coordinates by a common polynomial leaves the point fixed
    base = FunctionFieldPoint.make(Q3, [(1, 1), (0, 0, 1)])
    scaled = FunctionFieldPoint.make(Q3, [(2, 2), (0, 0, 2)])
    assert base == scaled
    common = FunctionFieldPoint.make(Q3, [(1, 1, 1), (0, 1)])
    times_t = FunctionFieldPoint.make(Q3, [(0, 1, 1, 1), (0, 0, 1)])
    assert common == times_t and height_ff(common) == height_ff(times_t)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_height_ff_randomized_rescaling(data):
    q = data.draw(st.sampled_from([Q2, Q3]))
    coords = []
    for _ in range(2):
        coeffs = data.draw(
            st.lists(st.integers(0, q.q - 1), min_size=1, max_size=3)
        )
        coords.append(tuple(coeffs))
    if all(not any(c) for c in coords):
        return
    pt = FunctionFieldPoint.make(q, coords)
    unit = data.draw(st.integers(1, q.q - 1))
    rescaled = FunctionFieldPoint.make(
        q, [tuple((c * unit) % q.p for c in coord) if q.e == 1 else coord
            for coord in coords]
    )
    if q.e == 1:
        assert height_ff(pt) == height_ff(rescaled)


def test_count_ff_points_examples():
    assert count_ff_points(Q2, 1, 0) == 3
    assert count_ff_points(Q2, 1, 1) == 9
    assert count_ff_points(Q3, 1, 0) == 4


def test_count_ff_height_zero_is_rational_points():
    for q in (Q2, Q3):
        for n in (1, 2):
            assert count_ff_points(q, n, 0) == point_count(ProjSpace(n), q, 1)


def test_count_ff_growth_regression():
    # pinned from the oracle; count(h) = 2^(2h+1) + 1, so log2(count)/h
    # decreases from ~3.17 toward 2
    counts = [count_ff_points(Q2, 1, h) for h in range(5)]
    assert counts == [3, 9, 33, 129, 513]
    ratios = [math.log2(counts[h]) / h for h in range(1, 5)]
    assert ratios == sorted(ratios, reverse=True)
    assert all(r <= 3.2 for r in ratios)


def _mobius_ff_count(q, n, h):
    # C(h) = q^((n+1)(h+1)) - 1 - sum_{j=1}^{h} q^j C(h-j) counts the
    # coprime tuples of degree <= h; scalars make q - 1 of them one point
    c = []
    for k in range(h + 1):
        tail = sum(q ** j * c[k - j] for j in range(1, k + 1))
        c.append(q ** ((n + 1) * (k + 1)) - 1 - tail)
    assert c[h] % (q - 1) == 0
    return c[h] // (q - 1)


# every q <= 5, n <= 2, h <= 2
@pytest.mark.parametrize("q, n, h", [
    (q, n, h) for q in (2, 3, 4, 5) for n in (1, 2) for h in range(3)
])
def test_count_ff_points_matches_mobius_recurrence(q, n, h):
    pp = PrimePower(2, 2) if q == 4 else PrimePower(q)
    assert count_ff_points(pp, n, h) == _mobius_ff_count(q, n, h)



@given(st.sampled_from([Q2, Q3, PrimePower(2, 2)]), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_divisor_masks_agree_with_gcd(q, h, data):
    # tuples of degree <= h, often with a drawn common factor: the AND of
    # their masks is 0 iff their gcd is a nonzero constant
    F = field(q.p, q.e)
    masks = _divisor_masks(F, h)
    coeffs = st.integers(0, q.q - 1)
    common = data.draw(st.lists(coeffs, min_size=1, max_size=h + 1), label="common")
    coords = []
    for _ in range(data.draw(st.integers(1, 4), label="size")):
        cofactor = data.draw(st.lists(coeffs, min_size=h + 2 - len(common),
                                      max_size=h + 2 - len(common)))
        prod = [0] * (h + 1)
        for i, a in enumerate(common):
            for j, b in enumerate(cofactor):
                prod[i + j] = F.add(prod[i + j], F.mul(a, b))
        coords.append(prod)
    # the all-zero tuple never reaches the mask test: it is not normalized
    assume(any(map(any, coords)))
    g = ()
    for c in coords:
        g = _fq_gcd(g, c, F) if g else _fq_trim(c)
    index = [sum(a * q.q ** (h - i) for i, a in enumerate(c)) for c in coords]
    mask = masks[0]
    for i in index:
        mask &= masks[i]
    assert (mask == 0) == (len(g) == 1)

def _divides(d, c, p):
    """Whether the monic d divides c, both little-endian over F_p."""
    r = list(c)
    while len(r) >= len(d):
        lead = r.pop()
        for i, di in enumerate(d[:-1]):
            r[len(r) - len(d) + 1 + i] = (r[len(r) - len(d) + 1 + i] - lead * di) % p
    return not any(r)


@pytest.mark.parametrize("p, n, h", [(3, 1, 2), (2, 2, 2)])
def test_iter_ff_points_is_the_plain_filter(p, n, h):
    # coprime (no monic divisor of degree 1..h divides every coordinate)
    # and the first coordinate of least degree has leading coefficient 1
    monic = [low + (1,) for deg in range(1, h + 1)
             for low in itertools.product(range(p), repeat=deg)]
    expected = []
    for raw in itertools.product(itertools.product(range(p), repeat=h + 1), repeat=n + 1):
        coords = tuple(tuple(c[:max((i + 1 for i, x in enumerate(c) if x), default=0)])
                       for c in raw)
        nonzero = [c for c in coords if c]
        if not nonzero:
            continue
        if any(all(_divides(d, c, p) for c in nonzero) for d in monic):
            continue
        dmin = min(len(c) for c in nonzero)
        if next(c[-1] for c in nonzero if len(c) == dmin) == 1:
            expected.append(coords)
    assert [pt.coords for pt in iter_ff_points(PrimePower(p), n, h)] == expected



@pytest.mark.parametrize("q, n, h, count, digest", [
    (Q2, 1, 4, 513, "f69bb3b87bad340fdf861d3d57db24fd32a7638b59d883a17eeca344fbf09d0c"),
    (PrimePower(2, 2), 1, 2, 1025,
     "deb2bb191a409e1d3a19f3e21999e85c926a9f4f65c6ef84e1656888d11ae0e9"),
    (Q3, 2, 1, 325, "3619279e9e89a5bd56475948400d14ae20783b001204d78cfbf51766e8750863"),
    (Q2, 3, 1, 225, "603356c8e20f4cfef90b5a0e6742dd5e99bc5e66f476e24729a1b3d80b08ab1d"),
    (Q2, 1, 0, 3, "18a4c7d24450e2579cc13246eabef8a5c2bd57762ee04098f2b43a6b74e21d1a"),
    (Q3, 3, 0, 40, "8ae73ba95f74f7a60f0d3a0910e29b6cd98f2fe1010ac458d07fcaa8f1e64cad"),
    (Q2, 1, 6, 8193, "12fda56aa656b5e8f844ce405903dd69eca7790e1759254ce40fe44189681ed4"),
], ids=["q2-n1-h4", "q4-n1-h2", "q3-n2-h1", "q2-n3-h1", "q2-n1-h0", "q3-n3-h0", "q2-n1-h6"])
def test_iter_ff_points_order_pinned(q, n, h, count, digest):
    coords = [pt.coords for pt in iter_ff_points(q, n, h)]
    assert len(coords) == count == count_ff_points(q, n, h)
    assert hashlib.sha256(repr(coords).encode()).hexdigest() == digest

def test_count_ff_cap():
    with pytest.raises(SizeCapExceeded):
        count_ff_points(Q3, 3, 4)


def test_height_nv_examples():
    x = RationalFunctionPoint.make(1, [poly("1"), poly("z1")])
    assert height_nv(x, CFG) == pytest.approx(1 + 0.5 * math.log(2), abs=1e-3)
    for m in (1, 2, 7):
        xm = RationalFunctionPoint.make(1, [poly("1"), poly(str(m))])
        assert height_nv(xm, CFG) == pytest.approx(math.log(m), abs=1e-9)
    with pytest.raises(DomainError):
        RationalFunctionPoint.make(1, [MultiPoly(1), MultiPoly(1)])


def test_rational_point_normalization():
    # common univariate factor and content are removed, sign fixed
    x = RationalFunctionPoint.make(1, [poly("2*z1"), poly("2*z1^2")])
    assert [str(c) for c in x.coords] == ["1", "z1"]
    y = RationalFunctionPoint.make(1, [poly("-1"), poly("-z1")])
    assert [str(c) for c in y.coords] == ["1", "z1"]


def test_height_nv_nonnegative_and_permutation_invariant():
    cfg = QuadratureConfig(nodes_per_dim=64)
    pts = [
        [poly("1"), poly("z1 + 2")],
        [poly("z1"), poly("3*z1 - 1")],
        [poly("z1^2 + 1"), poly("2")],
    ]
    for coords in pts:
        x = RationalFunctionPoint.make(1, coords)
        h = height_nv(x, cfg)
        assert h >= -1e-6
        x_swapped = RationalFunctionPoint.make(1, coords[::-1])
        assert height_nv(x_swapped, cfg) == pytest.approx(h, abs=1e-9)
        x_neg = RationalFunctionPoint.make(1, [-c for c in coords])
        assert height_nv(x_neg, cfg) == pytest.approx(h, abs=1e-9)


def test_sh_set_census_pinned_case():
    census = sh_set_census(1, 0.25, 4.0, QuadratureConfig(nodes_per_dim=64))
    assert census.count == 841
    assert census.coeff_box == 14
    assert census.degree_cap == 1
    assert census.all_heights_ok
    assert census.max_height <= 4.0 + 1e-3
    assert census.analytic_lower_bound == pytest.approx(math.e)
    assert census.count >= census.analytic_lower_bound


def test_sh_set_census_degenerate_box():
    census = sh_set_census(1, 0.25, 0.3, QuadratureConfig(nodes_per_dim=64))
    assert census.coeff_box == 0 and census.count == 1
    assert census.all_heights_ok


def test_sh_set_census_monotone_in_h(monkeypatch):
    monkeypatch.setattr(height_lab, "SH_SET_CAP", 10 ** 6)
    cfg = QuadratureConfig(nodes_per_dim=32)
    c4 = sh_set_census(1, 0.25, 4.0, cfg)
    c5 = sh_set_census(1, 0.25, 5.0, cfg)
    assert c5.count >= c4.count


def test_monte_carlo_census_refused_before_sampling(monkeypatch):
    # 421 integrated rows at the default 10^6 samples: some 100 s of work
    monkeypatch.setattr(quadrature, "_monte_carlo", None)
    cfg = QuadratureConfig(scheme="monte_carlo", seed=1)
    with pytest.raises(SizeCapExceeded, match="Monte Carlo"):
        sh_set_census(1, 0.25, 4.0, cfg)


def test_sh_set_census_rejects_bad_parameters(monkeypatch):
    cfg = QuadratureConfig(nodes_per_dim=32)
    with pytest.raises(DomainError):
        sh_set_census(1, 0.5, 2.0, cfg)  # 1 - 2da = 0
    # a < 0 left no exponents under the degree cap floor(a h) = -1: an IndexError
    for census in (sh_set_census, sh_set_table):
        with pytest.raises(DomainError, match="need a >= 0"):
            census(1, -0.1, 4.0, cfg)
    monkeypatch.setattr(height_lab, "SH_SET_CAP", 100)
    with pytest.raises(SizeCapExceeded):
        sh_set_census(1, 0.25, 9.0, cfg)


def test_size_caps_hold_exactly_at_the_boundary(monkeypatch):
    # decided from the exponent where it passes the cap's bit length, by
    # the exact power below that; the size prints as a power of ten
    monkeypatch.setattr(height_lab, "FF_CENSUS_CAP", 16)
    assert count_ff_points(Q2, 1, 1) == 9  # 2^4 tuples
    monkeypatch.setattr(height_lab, "FF_CENSUS_CAP", 15)
    with pytest.raises(SizeCapExceeded, match=r"^~10\^1 coordinate tuples exceed cap 15$"):
        count_ff_points(Q2, 1, 1)
    cfg = QuadratureConfig(nodes_per_dim=32)
    monkeypatch.setattr(height_lab, "SH_SET_CAP", 841)
    assert sh_set_census(1, 0.25, 4.0, cfg).count == 841  # 29^2 members
    monkeypatch.setattr(height_lab, "SH_SET_CAP", 840)
    with pytest.raises(SizeCapExceeded, match=r"^~10\^2 box members exceed cap 840$"):
        sh_set_census(1, 0.25, 4.0, cfg)


def _unmirrored_heights(d, exponents, rows, cfg):
    """Every row integrated, and its degree term read off row by row."""
    if cfg.scheme == "tensor_gauss":
        integrals = batched_log_integrals(rows, exponents, d, cfg, floor_at_one=True)
    else:
        one = MultiPoly.constant(1, d)
        integrals = [integrate_log_max([one, MultiPoly(d, dict(zip(exponents, row)))], cfg)
                     for row in rows.tolist()]
    degrees = [sum(max((e[j] for e, c in zip(exponents, row) if c), default=0)
                   for j in range(d)) for row in rows]
    return np.array(degrees) + np.array(integrals)


@pytest.mark.parametrize("d, a, h, cfg", [
    (1, 0.25, 4.0, QuadratureConfig(nodes_per_dim=64)),
    (1, 0.15, 5.0, QuadratureConfig(nodes_per_dim=9)),
    (2, 0.245, 4.1, QuadratureConfig(nodes_per_dim=8)),
    (1, 0.25, 2.0, QuadratureConfig(scheme="monte_carlo", seed=5, sample_count=2000)),
    # n % 4 = 2: -f alone, the 421 rows of the pinned box
    (1, 0.25, 4.0, QuadratureConfig(nodes_per_dim=10)),
    (1, 0.4, 5.0, QuadratureConfig(nodes_per_dim=12)),  # degree cap 2
    (2, 0.245, 4.1, QuadratureConfig(nodes_per_dim=12)),
])
def test_sh_set_table_mirror_equals_the_unmirrored_heights(d, a, h, cfg):
    exponents, rows, heights, box, _ = sh_set_table(d, a, h, cfg)
    assert rows.tolist() == [list(r) for r in itertools.product(
        range(-box, box + 1), repeat=len(exponents))]
    full = _unmirrored_heights(d, exponents, rows, cfg)
    assert np.allclose(heights, full, rtol=0, atol=1e-12)


def test_sh_set_table_integrates_one_row_per_sign_class_on_folded_nodes(monkeypatch):
    # f, -f, f(-z) and -f(-z) share one integral at n % 4 = 0, and the real
    # rows fold the angles: 15^2 classes of the 29^2 rows, on n^2 nodes,
    # not N rows on 2 n^2
    calls = []
    grid, axis_nodes = quadrature._grid, quadrature._axis_nodes

    def recording_grid(C, exponents, nvars, n, floor):
        calls.append([len(C)])
        return grid(C, exponents, nvars, n, floor)

    def recording_axes(*args):
        axes = axis_nodes(*args)
        calls[-1].append(math.prod(len(z) for z, _ in axes))
        return axes
    monkeypatch.setattr(quadrature, "_grid", recording_grid)
    monkeypatch.setattr(quadrature, "_axis_nodes", recording_axes)
    n = 64
    _, rows, _, _, _ = sh_set_table(1, 0.25, 4.0, QuadratureConfig(nodes_per_dim=n))
    assert len(rows) == 841
    assert calls == [[225, n * n]]


def test_degree_zero_sh_set_box_integrates_on_radial_nodes(monkeypatch):
    # a degree cap of 0 leaves constants, which are angle-free: 2 n radial
    # nodes each on n and on n / 2 nodes, never the n^2 folded ones
    used = []
    for name in ("plane_nodes", "_folded_nodes", "_radial_nodes"):
        original = getattr(quadrature, name)

        def recording(m, name=name, original=original):
            used.append((name, m))
            return original(m)
        monkeypatch.setattr(quadrature, name, recording)
    census = sh_set_census(1, 0.15, 5.0, QuadratureConfig())
    assert census.degree_cap == 0
    assert used == [("_radial_nodes", 64), ("_radial_nodes", 32)]


def test_sh_set_census_grid_works_in_small_tiles():
    # the grid reuses a few buffers of at most _TILE floats (256 kB); with
    # blocks of 2^20 complex entries (16 MB) this census peaked near 25 MB
    tracemalloc.start()
    try:
        sh_set_census(1, 0.22, 4.6, QuadratureConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
