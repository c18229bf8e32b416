#!/usr/bin/env python3
"""Partial classification of PG(2,31) and PG(2,32) arcs.

Reproduces the class counts per size at the two orders where the
minimum complete arc size is 14: 11 and 905 classes of 5- and 6-arcs up
to PGL(3,31), and 3 and 213 up to PGammaL(3,32).  Size 7 (66,272 and
16,593 classes) takes about 7 s at q = 31 and 6 s at q = 32 with
--threshold 7 --workers 2 on 2 vCPUs under CPython 3.11; the runs are
recorded in results/classify_q31_level7.log and
results/classify_q32_level7.log.  Size 8 with --threshold 8 --workers 2
gave 1,031,750 classes at q = 32 in 457 s with a parent peak RSS of
215 MiB, and 3,768,298 classes at q = 31 in 579 s with 723 MiB; the
parent holds each level as one list.
"""

import argparse
import sys
import time

from pgarc.search import SearchConfig, classify, default_plane


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=int, default=6)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--only-q", type=int, default=None, choices=(31, 32))
    args = parser.parse_args()

    runs = [(31, "pgl"), (32, "pgammal")]
    if args.only_q:
        runs = [r for r in runs if r[0] == args.only_q]
    for q, group in runs:
        t0 = time.time()
        cfg = SearchConfig(
            q=q,
            group=group,
            classification_threshold=args.threshold,
            worker_count=args.workers,
            checkpoint_dir=args.checkpoint_dir,
        )
        levels = classify(cfg, default_plane(q))
        for lv in levels:
            print(f"q={q} ({group}) size {lv.size}: {lv.count} classes")
        print(f"q={q} done in {time.time() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
