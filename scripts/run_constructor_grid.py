#!/usr/bin/env python3
"""Sweep every constructor over the soundness grid, verify each labeling, and
print per-family instance counts and timings.

Usage:
    python scripts/run_constructor_grid.py
"""

import sys
import time
from itertools import groupby

import totalprime as tp


def main() -> int:
    failures = 0
    for family, instances in groupby(tp.soundness_grid(), lambda inst: inst.spec.family):
        started = time.perf_counter()
        count = 0
        bad = 0
        for inst in instances:
            result = tp.construct(inst.spec, inst.scheme)
            report = tp.verify_total_prime(result.graph, result.labeling)
            if not report.valid:
                bad += 1
                print(f"  VIOLATION in {inst.name}: {report.violations[:3]}")
            count += 1
        elapsed = time.perf_counter() - started
        print(f"{family:<22} {count:>6} instances  {bad} violations  {elapsed:6.2f}s")
        failures += bad
    print("grid clean" if failures == 0 else f"{failures} violations")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
