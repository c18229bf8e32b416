#!/usr/bin/env python3
"""Reproduce the small-order table of t(2,q) with class counts.

Runs the full pipeline (classification to size 5, then extension and
orbit peeling) for every prime power q <= 13 and prints
the minimum complete arc size with its exact class census, for both
groups where they differ.
"""

import sys
import time

from pgarc.gf import factor_prime_power
from pgarc.search import SearchConfig, default_plane, min_complete_size


def main() -> int:
    print(f"{'q':>3} {'t(2,q)':>7} {'classes pgl':>12} {'classes pgammal':>16} {'secs':>7}")
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        t0 = time.time()
        plane = default_plane(q)
        result = min_complete_size(SearchConfig(q=q), plane)
        _, h = factor_prime_power(q)
        gamma = ""
        if h > 1:
            gamma = min_complete_size(SearchConfig(q=q, group="pgammal"), plane).class_count
        print(
            f"{q:>3} {result.size:>7} {result.class_count:>12} {str(gamma):>16}"
            f" {time.time() - t0:>7.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
