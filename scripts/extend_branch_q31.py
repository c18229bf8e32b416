#!/usr/bin/env python3
"""Documented single-branch extension run at q=31.

Takes one 8-arc of PG(2,31) (grown greedily from a seeded random point
order, then canonicalized), and runs the depth-first extension with
bound 13 to exhaustion.  The full-scale result says no complete arc of
size <= 13 exists anywhere; this run checks one branch of that search at
desk scale and is expected to come back empty.

The branch explores every superset of its root, as each branch of the
full sweep does.
"""

import argparse
import random
import sys
import time

from pgarc.collineation import canonicalize
from pgarc.search import default_plane, extend


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="branch selection seed")
    parser.add_argument("--bound", type=int, default=13)
    args = parser.parse_args()

    sys.setrecursionlimit(10000)
    plane = default_plane(31)
    rng = random.Random(args.seed)

    order = list(range(plane.size))
    rng.shuffle(order)
    members: list[int] = []
    for x in order:
        if len(members) == 8:
            break
        if all(
            not plane.collinear(a, b, x)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        ):
            members.append(x)
    rep = canonicalize(plane, members, "pgl").canon
    print(f"branch root (canonical 8-arc): {list(rep)}")
    print(f"bound: {args.bound}")

    t0 = time.time()
    found = extend(plane, "pgl", rep, args.bound)
    elapsed = time.time() - t0
    print(f"complete arcs of size <= {args.bound} in this branch: {len(found)}")
    print(f"wall time: {elapsed:.1f}s")
    if found:
        for arc in found:
            print(list(arc))
        return 1
    print("branch is empty, as the full-scale result requires")
    return 0


if __name__ == "__main__":
    sys.exit(main())
