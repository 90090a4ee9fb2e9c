"""Tests of the benchmark's own references, generators and bookkeeping.

    PYTHONPATH=src python -m pytest bench -q

Each reference is checked at tiny size against the brute-force oracle or
against mpmath.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cyclezeta as cz  # noqa: E402
from cyclezeta import bound_engine, height_lab  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPACES = {("pn", 1): cz.ProjSpace(1), ("pn", 2): cz.ProjSpace(2),
          ("p1xn", 2): cz.P1Power(2)}


def _q(q):
    return cz.PrimePower(2, 2) if q == 4 else cz.PrimePower(q)


# -- exact references against the oracle --------------------------------------

@pytest.mark.parametrize("q,n,h", [(2, 1, 2), (3, 1, 1), (2, 2, 1), (4, 1, 1), (2, 3, 1)])
def test_ff_points_recursion_matches_enumeration(q, n, h):
    assert ref.ff_points(q, n, h) == cz.count_ff_points(_q(q), n, h)


@pytest.mark.parametrize("q,h,count", [(2, 4, 513), (3, 3, 2188), (5, 2, 3126)])
def test_ff_points_on_the_line_is_q_to_2h_plus_1_plus_1(q, h, count):
    assert ref.ff_points(q, 1, h) == q ** (2 * h + 1) + 1 == count


@pytest.mark.parametrize("space,q,kmax", [(("pn", 1), 2, 4), (("pn", 2), 2, 3),
                                          (("p1xn", 2), 2, 3), (("pn", 1), 4, 2)])
def test_zero_cycle_product_form_matches_enumeration(space, q, kmax):
    series = ref.zero_cycle_series(space, q, kmax)
    for k in range(kmax + 1):
        assert series[k] == len(cz.enum_zero_cycles(SPACES[space], _q(q), k))


@pytest.mark.parametrize("space,q,dmax", [(("pn", 2), 2, 4), (("p1xn", 2), 3, 3),
                                          (("pn", 1), 4, 4)])
def test_closed_point_census_matches_enumeration(space, q, dmax):
    census = ref.closed_point_census(space, q, dmax)
    for d in range(1, dmax + 1):
        assert census[d - 1] == len(cz.closed_points(SPACES[space], _q(q), d))


@pytest.mark.parametrize("space,q,e", [(("pn", 2), 2, (2,)), (("p1xn", 2), 3, (1, 2)),
                                       (("pn", 1), 4, (3,))])
def test_divisor_count_matches_enumeration(space, q, e):
    assert ref.divisor_count(space, q, e) == len(cz.enum_divisors(SPACES[space], _q(q), e))


def test_cycle_series_by_dimension_matches_enumeration():
    space = ("p1xn", 2)
    divisors = ref.cycle_series(space, 2, 1, 3)
    for k, n_k in enumerate(divisors):
        want = sum(len(cz.enum_divisors(SPACES[space], _q(2), (a, k - a)))
                   for a in range(k + 1))
        assert n_k == want
    assert ref.cycle_series(space, 2, 2, 4) == [1, 0, 1, 0, 1]


def test_explicit_constants_follow_the_pinned_recursion():
    for n in range(1, 7):
        for l in range(n + 1):
            assert ref.explicit_constant(n, l) == bound_engine.explicit_constant_pn(n, l).value


def test_height_ff_matches_program():
    for q, coords in [(2, [[1, 0, 1], [1, 1]]), (3, [[2, 1], [1, 2, 1]]),
                      (5, [[0, 0, 1], [0, 1]])]:
        pt = height_lab.FunctionFieldPoint.make(cz.PrimePower(q), [tuple(c) for c in coords])
        assert ref.height_ff(q, coords) == height_lab.height_ff(pt)


# -- analytic references against mpmath ---------------------------------------

def _fs_radial(f, kink=1.0):
    """int_0^inf f(R) dR / (1 + R)^2: the FS measure of a radial integrand,
    R = |z|^2, split where f has a kink."""
    points = sorted({0, 1, kink}) + [mpmath.inf]
    return mpmath.quad(lambda R: f(R) / (1 + R) ** 2, points)


def test_euler_factor_is_the_zero_cycle_series_at_p_minus_s():
    for n, p, s in [(1, 2, 4.0), (2, 3, 6.5)]:
        c = ref.zero_cycle_series(("pn", n), p, 60)
        series = mpmath.fsum(c[k] * mpmath.mpf(p) ** (-s * k) for k in range(61))
        product = mpmath.fprod(1 / (1 - mpmath.mpf(p) ** (i - s)) for i in range(n + 1))
        assert abs(series - product) < 1e-12


def test_lfun_reference_tends_to_a_product_of_zeta_values():
    want = mpmath.zeta(4) * mpmath.zeta(3)
    assert abs(ref.lfun(1, 0, 4.0, 100_000) / want - 1) < 1e-9


def test_spec_z_reference_is_the_partial_sum():
    want = math.fsum(m ** -2.5 for m in range(1, 5001))
    assert abs(ref.spec_z(2.5, 5000) / want - 1) < 1e-14


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 3.0])
def test_jensen_formula_under_fs(c):
    # the angular mean of log|z - c| is log max(|z|, |c|) (Jensen)
    got = _fs_radial(lambda R: mpmath.log(max(mpmath.sqrt(R), c)) if R or c else 0,
                     kink=c * c)
    assert abs(got - ref.jensen(1, [c])) < 1e-10


@pytest.mark.parametrize("c", [1, 2, -3])
def test_11_form_closed_form(c):
    # inner variable by Jensen: int log|z1 - c z2| dz1 = 1/2 log(1 + |c z2|^2)
    got = _fs_radial(lambda R: 0.5 * mpmath.log(1 + c * c * R))
    assert abs(got - ref.form_11(c)) < 1e-10


@pytest.mark.parametrize("a,c,j", [(1, 1, 1), (2, 7, 3), (9, 2, 2)])
def test_height_logistic_formula(a, c, j):
    x = math.log(abs(c) / a)
    got = j + math.log(a) + _fs_radial(lambda R: max(0, x + 0.5 * j * mpmath.log(R)),
                                       kink=math.exp(-2 * x / j))
    assert abs(got - ref.height_nv(1, a, c, j, 0)) < 1e-10


def test_two_variable_height_reference_agrees_with_quadrature():
    pt = height_lab.RationalFunctionPoint.make(
        2, [cz.MultiPoly.constant(2, 2), cz.MultiPoly(2, {(1, 2): 3})])
    program = height_lab.height_nv(pt, cz.QuadratureConfig(nodes_per_dim=32))
    assert abs(program - ref.height_nv(2, 2, 3, 1, 2)) < 2e-3


def test_arith_divisor_reference_counts():
    values = ref.arith_divisors(1.0, math.log(3))
    assert sum(v <= math.log(3) for v in values.values()) == 5
    census = cz.count_arith_divisors_bounded(1, 1.0, 2.0, cz.QuadratureConfig())
    digest = {"count": census.count, "coeff_box": census.max_inf_norm,
              "borderline": [[list(f.multidegree), [[list(e), c] for e, c in f.coeffs]]
                             for f in census.borderline]}
    job = {"kind": "count_arith_divisors", "args": {"n": 1, "lam": 1.0, "h": 2.0}}
    assert checks.check(job, digest, None)[0] == "ok"


# -- generators, metrics, verdicts ---------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_seeded(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert json.dumps(workloads.generate(name, 7)) != json.dumps(workloads.generate(name, 8)) \
        or name == "oracle"


def test_generated_inputs_stay_valid():
    cli = workloads.generate("cli_cold", 3)
    assert not any("--threads" in job["args"]["argv"] for job in cli)
    for name in ("series", "cli_cold"):
        for job in workloads.generate(name, 3):
            args = job["args"].get("check", job["args"])
            if job["kind"] == "lfun" or args.get("type") == "lfun":
                assert args["s"] >= workloads.cprime_pn(args["n"], args["l"]) + 2
    polys = [m.get("poly") for j in workloads.generate("fs_measure", 3)
             for m in j["args"].get("batch", [j["args"]])]
    assert set(workloads.KNOWN_INACCURATE) <= set(polys)


def test_tail_has_ten_jobs_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and sum(x > value for x in range(40)) == 10
    assert pct == 75.0


def test_compare_verdicts():
    parent = {s: [10.0 + 0.1 * s] for s in range(10)}
    faster = {s: [5.0 + 0.1 * s] for s in range(10)}
    share, gain, regression = compare.verdicts(parent, faster, True, 0.1)
    assert share == "10/10" and gain == "gain" and regression.startswith("no regression")
    slower = {s: [12.0 + 0.1 * s] for s in range(10)}
    assert compare.verdicts(parent, slower, True, 0.1)[2].startswith("REGRESSION")
    noisy = {s: [10.0 * (1 + (s % 2))] for s in range(10)}
    assert compare.verdicts(noisy, noisy, True, 0.1)[2].startswith("unresolved")


def test_tracer_reaches_every_binding_and_counts_repeat():
    script = (
        "import json, cyclezeta as cz\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "t.run_job(0, 'cp', lambda: cz.closed_points(cz.ProjSpace(2), cz.PrimePower(2), 3))\n"
        "t.run_job(1, 'zc', lambda: cz.enum_zero_cycles(cz.ProjSpace(2), cz.PrimePower(2), 3))\n"
        "print(json.dumps(t.summary()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    runs = [json.loads(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True).stdout)
            for _ in range(2)]
    first = runs[0]
    assert first["missing"] == []
    assert first["targets"]["field_census.point_count"]["calls"] > 0
    assert first["targets"]["finite_fields.Fq.mul"]["calls"] > 0
    assert first["reusing_jobs"] == 1  # the 0-cycles reuse the degree-3 points
    assert first["work"]["points_scanned"] == sum(
        ref.point_count(("pn", 2), 2, d) for d in (1, 2, 3))
    counts = [{k: v["calls"] for k, v in r["targets"].items()} for r in runs]
    assert counts[0] == counts[1] and runs[0]["work"] == runs[1]["work"]
