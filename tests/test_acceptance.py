"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``); a failed
assertion means the criterion does not hold at its stated tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from cyclezeta.bound_engine import explicit_constant_pn, prime_constant_p1_power
from cyclezeta.cycle_oracle import (
    enum_divisors,
    enum_zero_cycles,
    fiber_count,
)
from cyclezeta.exact_counts import (
    cycle_counts,
    divisor_count,
    zero_cycle_count,
)
from cyclezeta.fs_norms import (
    NormSampleSpec,
    count_arith_divisors_bounded,
    delta_lambda,
    v_measure,
    verify_norm_props,
)
from cyclezeta.height_lab import (
    RationalFunctionPoint,
    count_ff_points,
    height_nv,
    sh_set_census,
)
from cyclezeta.multipoly import IntegerForm, MultiPoly, parse_affine_polynomial
from cyclezeta.quadrature import QuadratureConfig
from cyclezeta.spaces import P1Power, PrimePower, ProjSpace
from cyclezeta.zeta_series import (
    _spec_z_norms,
    abscissa_sequence,
    l_function_partial_with_error,
    spec_z_zeta_partial,
)

Q2 = PrimePower(2)
Q3 = PrimePower(3)
Q5 = PrimePower(5)
P1 = ProjSpace(1)
P2 = ProjSpace(2)
P1X2 = P1Power(2)


def _report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_divisor_formulas_match_enumeration():
    checked = 0
    for q in (Q2, Q3):
        for e in range(10):  # (P1)^1
            assert len(enum_divisors(P1Power(1), q, (e,))) == divisor_count(
                P1Power(1), q, (e,)
            )
            checked += 1
        for e1, e2 in itertools.product(range(10), repeat=2):  # (P1)^2
            if (e1 + 1) * (e2 + 1) > 10:
                continue
            assert len(enum_divisors(P1X2, q, (e1, e2))) == divisor_count(
                P1X2, q, (e1, e2)
            )
            checked += 1
        for k in range(4):  # P2
            assert len(enum_divisors(P2, q, (k,))) == divisor_count(P2, q, (k,))
            checked += 1
    _report(1, f"divisor formula equals enumeration on {checked} instances")


def test_criterion_02_weil_identity():
    for space in (P1, P2, P1X2):
        for k in range(4):
            assert len(enum_zero_cycles(space, Q2, k)) == zero_cycle_count(
                space, Q2, k
            )
    assert zero_cycle_count(P1, Q2, 2) == 7
    assert zero_cycle_count(P1X2, Q2, 2) == 53
    _report(2, "0-cycle counts match the point-count series (7 and 53 pinned)")


def test_criterion_03_fiber_bound():
    cycles = [z for k in range(5) for z in enum_zero_cycles(P1, Q2, k)]
    pairs = violations = 0
    for x, y in itertools.product(cycles, repeat=2):
        if x.degree == 0 or y.degree == 0:
            continue
        pairs += 1
        if fiber_count(x, y, Q2) > 2.0 ** (x.alpha() * y.alpha()) * (1 + 1e-12):
            violations += 1
    assert violations == 0
    _report(3, f"fiber bound 2^(alpha*alpha) holds on all {pairs} pairs")


def test_criterion_04_pinned_constants_bound_counts():
    # exact counts against the pinned constants; the oracle re-derives the
    # counts it can enumerate quickly
    for q in (Q2, Q3, Q5):
        for n in (1, 2):
            c = prime_constant_p1_power(n, 0)
            assert c == 3 * n
            counts = cycle_counts(P1Power(n), q, 0, 8)
            if q.q <= 3:
                enumerated = [len(enum_zero_cycles(P1Power(n), q, k)) for k in range(5)]
                assert enumerated == list(counts[:5])
            for h in range(1, 9):
                assert sum(counts[:h + 1]) <= q.q ** (c * h)
    c21 = explicit_constant_pn(2, 1).value
    counts = cycle_counts(P2, Q2, 1, 6)
    assert [len(enum_divisors(P2, Q2, (k,))) for k in range(4)] == list(counts[:4])
    for h in range(1, 7):
        assert math.log2(sum(counts[:h + 1])) <= c21 * h ** 2
    _report(4, f"exact counts below q^(3nh) (h <= 8) and 2^({c21} h^2) (h <= 6)")


def test_criterion_05_norm_inequalities_on_seeded_samples():
    relevant = ("inf_vs_v", "v_vs_two", "product_inf", "v_integer_lower")
    totals = 0
    for nvars, nodes, samples in ((1, 64, 500), (2, 16, 500)):
        spec = NormSampleSpec(
            samples=samples, seed=20260808 + nvars, nvars=nvars,
            max_degree=4, coeff_bound=10,
        )
        cfg = QuadratureConfig(nodes_per_dim=nodes)
        records = [r for r in verify_norm_props(spec, cfg) if r.name in relevant]
        assert [r for r in records if r.status == "fail"] == []
        totals += len(records)
    assert totals == 4000
    _report(5, "norm inequalities hold within the measured errors on 1000 samples")


def test_criterion_06_v_closed_form_for_factorized_polynomials():
    rng = np.random.default_rng(606)
    cfg = QuadratureConfig(nodes_per_dim=320)
    worst = 0.0
    for _ in range(50):
        degree = int(rng.integers(1, 5))
        alpha = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        roots = []
        while len(roots) < degree:
            c = complex(*rng.uniform(-1.25, 1.25, 2))
            roots.append(c)
        f = MultiPoly.constant(alpha, 1)
        expected = abs(alpha)
        for c in roots:
            f = f * MultiPoly(1, {(1,): 1, (0,): -c})
            expected *= math.sqrt(1 + abs(c) ** 2)
        worst = max(worst, abs(v_measure(f, cfg) - expected))
    assert worst <= 1e-3
    _report(6, f"v matches |a| prod sqrt(1+|c|^2) on 50 samples (worst {worst:.2e})")


def test_criterion_07_arithmetic_degree_facts():
    cfg = QuadratureConfig(nodes_per_dim=128)
    for m in range(1, 101):
        assert abs(
            delta_lambda(IntegerForm.constant(m), 1.0, cfg) - math.log(m)
        ) <= 1e-6
    rng = np.random.default_rng(707)
    for _ in range(100):
        cs = rng.integers(-6, 7, (2, 3))
        forms = []
        for row in cs:
            if not row.any():
                row[0] = 1
            forms.append(
                IntegerForm.make(
                    1, (2,), {(i,): int(c) for i, c in enumerate(row) if c}
                )
            )
        P, Q = forms
        gap = abs(
            delta_lambda(P * Q, 1.0, cfg)
            - delta_lambda(P, 1.0, cfg)
            - delta_lambda(Q, 1.0, cfg)
        )
        assert gap <= 2e-3
    census = count_arith_divisors_bounded(1, 1.0, math.log(3), cfg)
    assert census.count == 5
    assert census.borderline == ()
    _report(7, "delta facts: log m exact, additivity within 2e-3, census = 5")


def test_criterion_08_l_product_matches_zeta_values():
    value = l_function_partial_with_error(1, 0, 4.0, 10 ** 5)[0]
    # independent direct summations with explicit tail control
    zeta4 = sum(m ** -4.0 for m in range(1, 100_001)) + 100_000 ** -3.0 / 3
    zeta3 = sum(m ** -3.0 for m in range(1, 200_001)) + 200_000 ** -2.0 / 2
    assert abs(value.real - zeta4 * zeta3) <= 1e-3
    assert abs(value.imag) <= 1e-12
    _report(8, f"partial Euler product within {abs(value.real - zeta4*zeta3):.1e} "
               "of zeta(4)*zeta(3)")


def test_criterion_09_integer_spectrum_zeta():
    partial = spec_z_zeta_partial(2.0, 10 ** 4)
    tail_bound = 1.0 / 10 ** 4
    assert abs(partial + tail_bound - math.pi ** 2 / 6) <= 2e-4
    assert 0 <= math.pi ** 2 / 6 - partial <= tail_bound
    assert sorted(itertools.chain.from_iterable(_spec_z_norms(50))) == list(range(1, 51))
    _report(9, "partial sum within tail bound of pi^2/6; norm bijection checked")


def test_criterion_10_abscissa_convergence():
    # the limit does not depend on q; at k = 1, P^2's term is 2.81
    for space, q, l, limit in ((P1, Q2, 0, 1.0), (P1, Q5, 0, 1.0), (P2, Q2, 1, 0.5)):
        rep = abscissa_sequence(space, q, l, 24)
        assert rep.predicted_limit == limit
        for k in range(2, 25):
            assert abs(rep.value(k) - limit) <= 2.0 / k
    _report(10, "abscissa terms within 2/k of the predicted limits 1 and 1/2 up to k = 24")


def test_criterion_11_heights():
    assert count_ff_points(Q2, 1, 1) == 9
    cfg = QuadratureConfig(nodes_per_dim=128)
    x = RationalFunctionPoint.make(
        1, [parse_affine_polynomial("1"), parse_affine_polynomial("z1")]
    )
    assert abs(height_nv(x, cfg) - (1 + 0.5 * math.log(2))) <= 1e-3
    census = sh_set_census(1, 0.25, 4.0, QuadratureConfig(nodes_per_dim=64))
    assert census.count == 841
    assert census.count >= census.analytic_lower_bound
    assert census.analytic_lower_bound == pytest.approx(math.e, rel=1e-12)
    assert census.all_heights_ok
    assert census.max_height <= 4.0 + 1e-3
    _report(11, "ff census 9, naive height 1 + log(2)/2, box census 841 >= e")
