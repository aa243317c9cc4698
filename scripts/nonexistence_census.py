#!/usr/bin/env python3
"""Exhaustively settle small cycles and cycle unions, and tabulate the
odd-label counting certificate for unions with triangle stacks.

Usage:
    python scripts/nonexistence_census.py [--max-cycle 9]
"""

import argparse
import sys

import totalprime as tp
from totalprime import FamilySpec, build_family


def cycle(n):
    return build_family(FamilySpec("cycle", n=n))


def union(*lengths):
    members = tuple(FamilySpec("cycle", n=c) for c in lengths)
    return build_family(FamilySpec("union", members=members))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-cycle", type=int, default=9)
    args = parser.parse_args(argv)

    print("== single cycles ==")
    for n in range(3, args.max_cycle + 1):
        out = tp.find_total_prime(cycle(n))
        print(f"C_{n:<3} {out.status:<24} nodes={out.nodes_explored}")

    print("== unions containing a triangle ==")
    for lengths in [(3, 3), (3, 4), (3, 5), (3, 3, 4)]:
        out = tp.find_total_prime(union(*lengths))
        name = "+".join(f"C{c}" for c in lengths)
        print(f"{name:<10} {out.status:<24} nodes={out.nodes_explored}")

    print("== triangle-stack certificates (order, copies) ==")
    for order in range(2, 7):
        threshold = order * (order + 1) // 2
        for copies in (threshold, threshold + 1):
            cert = tp.union_c3_infeasibility_certificate(order, copies)
            print(
                f"order={order} copies={copies:<3} {cert.status:<13} "
                f"needed={cert.needed_odd} available={cert.available_odd}"
            )

    print("== doubling reduction spot check ==")
    out = tp.find_total_prime(cycle(4))
    transported = tp.doubled_union_prime_transport([4], out.labeling)
    doubled = tp.doubled_union_reduction([4])
    ok = tp.verify_prime(doubled, transported).valid
    print(f"total labeling of C4 transports to a prime labeling of C4+C4: {ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
