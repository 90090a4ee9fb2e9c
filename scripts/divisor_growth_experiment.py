#!/usr/bin/env python3
"""Growth of exact divisor and 0-cycle counts against the pinned constants.

Tabulates, for small prime powers and heights:

  * exact 0-cycle counts on products of projective lines vs q^(3nh),
  * exact divisor counts on P^2 vs 2^(C(2,1) h^2),
  * the normalized exponents log_q(count)/h^(l+1), whose limsup is the
    abscissa of convergence of the associated cycle zeta function.

Everything on the "exact" side is big-integer arithmetic; enumeration
cross-checks run where the oracle caps allow.
"""

import math

from cyclezeta import (
    P1Power,
    PrimePower,
    ProjSpace,
    divisor_count_by_degree,
    enum_zero_cycles,
    zero_cycle_count,
)
from cyclezeta.bound_engine import explicit_constant_pn, prime_constant_p1_power
from cyclezeta.exact_counts import cycle_counts


def zero_cycle_table(qs=(2, 3, 5), ns=(1, 2), hmax=8):
    print("=" * 72)
    print(" 0-cycles on (P1)^n with degree <= h vs the pinned bound q^(3nh)")
    print("=" * 72)
    print(f"{'q':>3} {'n':>3} {'h':>3} {'count<=h':>16} {'log_q/h':>10} {'bound 3n':>9}")
    for q in qs:
        qq = PrimePower(q)
        for n in ns:
            space = P1Power(n)
            c = prime_constant_p1_power(n, 0)
            counts = cycle_counts(space, qq, 0, hmax)
            for h in range(1, hmax + 1):
                total = sum(counts[: h + 1])
                ratio = math.log(total, q) / h
                assert ratio <= c, "pinned constant violated"
                print(f"{q:>3} {n:>3} {h:>3} {total:>16} {ratio:>10.4f} {c:>9}")
    print()


def p2_divisor_table(hmax=6):
    print("=" * 72)
    print(" divisors on P^2 over F_2 vs 2^(C h^2) with the pinned C(2,1)")
    print("=" * 72)
    c = explicit_constant_pn(2, 1)
    print(" derivation:")
    for line in c.derivation:
        print("   " + line)
    q2 = PrimePower(2)
    print(f"{'h':>3} {'count<=h':>24} {'log2/h^2':>10} {'C':>5}")
    for h in range(1, hmax + 1):
        total = sum(
            divisor_count_by_degree(ProjSpace(2), q2, k) for k in range(h + 1)
        )
        print(f"{h:>3} {total:>24} {math.log2(total) / h ** 2:>10.4f} {c.value:>5}")
    print()


def oracle_spot_checks():
    print("=" * 72)
    print(" enumeration spot checks (oracle vs closed form)")
    print("=" * 72)
    q2 = PrimePower(2)
    for n in (1, 2):
        space = P1Power(n)
        for k in range(4):
            enum = len(enum_zero_cycles(space, q2, k))
            formula = zero_cycle_count(space, q2, k)
            status = "OK" if enum == formula else "MISMATCH <<<"
            print(f" (P1)^{n} k={k}: enum={enum:6d} formula={formula:6d}  {status}")
    print()


if __name__ == "__main__":
    zero_cycle_table()
    p2_divisor_table()
    oracle_spot_checks()
