#!/usr/bin/env python3
"""Decompose batches of random cube-subgroup elements across showcase rings
and report root counts and throughput.

Every decomposition is verified exactly; the point of the run is to watch
the 6-cube bound (5 when 3 divides both parameters) hold at scale.
"""

import argparse
import random
import sys
import time

from quatcube import Case, Quaternion, RingParams, classify_case, decompose, verify

RINGS = [
    (1, 1), (2, 1), (1, 2), (4, 4), (2, 3), (3, 2), (1, 3), (3, 1),
    (3, 3), (3, 6), (6, 9),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1000, help="targets per ring")
    ap.add_argument("--magnitude", type=int, default=10**6, help="coefficient bound")
    ap.add_argument("--seed", type=int, default=20260808)
    args = ap.parse_args()

    grand_start = time.perf_counter()
    for ring in RINGS:
        params = RingParams(*ring)
        tag = classify_case(params)
        case3 = tag.case is Case.CASE3
        rng = random.Random(args.seed + ring[0] * 31 + ring[1])
        counts = {}
        start = time.perf_counter()
        for _ in range(args.count):
            c = [rng.randint(-args.magnitude, args.magnitude) for _ in range(4)]
            if case3:
                c[1:] = [3 * (v // 3) for v in c[1:]]
            alpha = Quaternion(params, *c)
            dec = decompose(alpha)
            if not verify(dec):
                print(f"({ring[0]},{ring[1]}): the decomposition of {alpha} fails verification",
                      file=sys.stderr)
                return 1
            counts[dec.count] = counts.get(dec.count, 0) + 1
        elapsed = time.perf_counter() - start
        dist = "  ".join(f"{k} roots: {v}" for k, v in sorted(counts.items()))
        print(f"({ring[0]},{ring[1]}) [{tag}]  {args.count} targets in {elapsed:.2f}s  {dist}")
    print(f"total: {time.perf_counter() - grand_start:.2f}s, all decompositions verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
