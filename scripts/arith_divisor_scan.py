#!/usr/bin/env python3
"""Bounded-arithmetic-degree divisor censuses on the projective line over Z.

Sweeps the degree bound h and reports the exact number of effective
divisors with delta_lambda <= h, the borderline band, and the a-priori
finiteness bound for the searched region.  Also prints the small census
members at the first few thresholds, which make the Northcott-style
finiteness tangible: constants enter at log m, coordinate divisors at
lambda, and genuinely two-term forms only above lambda + log(2)/2.
"""

import math

from cyclezeta.fs_norms import count_arith_divisors_bounded, delta_lambda
from cyclezeta.multipoly import IntegerForm, parse_integer_form
from cyclezeta.quadrature import QuadratureConfig

CFG = QuadratureConfig(nodes_per_dim=96)


def sweep(lam=1.0, hs=(0.0, 0.5, math.log(3), 1.5, 2.0, 2.5)):
    print("=" * 68)
    print(f" censuses of delta_{lam} <= h on the projective line over Z")
    print("=" * 68)
    print(f"{'h':>8} {'count':>8} {'borderline':>11} {'log bound':>12} {'box':>6}")
    for h in hs:
        census = count_arith_divisors_bounded(1, lam, h, CFG, search_cap=10 ** 7)
        print(
            f"{h:>8.4f} {census.count:>8} {len(census.borderline):>11} "
            f"{census.log_certified_bound:>12.2f} {census.max_inf_norm:>6}"
        )
    print()


def first_members(lam=1.0):
    print(" smallest arithmetic degrees among simple forms:")
    forms = [
        IntegerForm.constant(1),
        IntegerForm.constant(2),
        IntegerForm.constant(3),
        parse_integer_form("X1"),
        parse_integer_form("Y1"),
        parse_integer_form("X1 + Y1"),
        parse_integer_form("X1 - Y1"),
        parse_integer_form("X1 + 2*Y1"),
        parse_integer_form("X1^2 + X1*Y1 + Y1^2"),
    ]
    rows = sorted(
        (delta_lambda(f, lam, CFG), str(f)) for f in forms
    )
    for value, name in rows:
        print(f"   delta = {value:8.5f}   div({name})")
    print()


if __name__ == "__main__":
    first_members()
    sweep()
