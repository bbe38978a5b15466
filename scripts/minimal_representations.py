#!/usr/bin/env python3
"""Spot-check minimal representations against the proven lower bounds.

In rings where 3 divides at most one parameter, 3+3i needs 3 cubes (the
2-cube system is obstructed mod 9/3); where 3 divides both, 4 needs 4
cubes (cube triples miss 4 mod 9).  The bounded searches then look for
witnesses at the minimum counts.  Every witness printed is checked
exactly against its target; the script exits 1 if one fails.
"""

import time

from quatcube import (
    Quaternion,
    cube,
    RingParams,
    SearchConfig,
    min_cubes_search,
    three_cube_residues_mod9,
    two_cube_obstruction,
)


def sums_to(roots, target: Quaternion) -> bool:
    """True iff the cubes of roots add up to target exactly."""
    total = Quaternion.scalar(target.params, 0)
    for r in roots:
        total = total + cube(r)
    return total == target


def report(label: str, target: Quaternion, roots, elapsed: float | None = None) -> bool:
    """Print a search's witness for target, or that it found none; False
    iff a witness was printed that does not sum to target."""
    took = "" if elapsed is None else f"  ({elapsed:.1f}s)"
    if roots is None:
        print(f"  {label}: inconclusive within the box{took}")
        return True
    ok = sums_to(roots, target)
    print(f"  {label}: {target} = {' + '.join(f'({r})^3' for r in roots)}{took}"
          + ("" if ok else "  FAILS the exact check"))
    return ok


def main() -> int:
    ok = True
    p11 = RingParams(1, 1)
    target = Quaternion(p11, 3, 3, 0, 0)
    print("ring (1,1):")
    print("  2-cube obstruction for 3+3i:", two_cube_obstruction(p11, target))
    start = time.perf_counter()
    roots = min_cubes_search(target, SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=6))
    ok &= report("3-cube search", target, roots, time.perf_counter() - start)

    p33 = RingParams(3, 3)
    four = Quaternion.scalar(p33, 4)
    print("ring (3,3):")
    print("  cube-triple residues mod 9:", sorted(three_cube_residues_mod9()))
    for label, cfg in [
        ("2-cube search for 4 (bound 30)", SearchConfig(max_cubes=2, coeff_bound=30)),
        ("3-cube search for 4 (bound 20)", SearchConfig(max_cubes=3, coeff_bound=20)),
        ("4-cube search for 4 (bound 1)", SearchConfig(max_cubes=4, coeff_bound=1, outer_bound=1)),
    ]:
        ok &= report(label, four, min_cubes_search(four, cfg))
    if not ok:
        print("error: a witness above fails the exact cube-sum check")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
