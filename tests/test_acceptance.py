"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines for
passing criteria too.
"""

import json
import random
import time

from quatcube import (
    Case,
    Quaternion,
    RingParams,
    SearchConfig,
    classify_case,
    cube,
    decompose,
    lemma_residue_check,
    member_cube_subgroup,
    min_cubes_search,
    three_cube_residues_mod9,
    two_cube_obstruction,
    verify,
)
from quatcube.cli import decompose_payload, lower_bounds_payload, search_payload
from quatcube.decompose import _identity

SHOWCASE_RINGS = [
    (1, 1), (2, 1), (1, 2), (4, 4), (2, 3), (3, 2), (1, 3), (3, 1),
    (3, 3), (3, 6), (6, 9),
]
OBSTRUCTION_RINGS = [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (1, 3)]
SEED = 20260808
SOFT_SEARCH_CFG = SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=6)


def _report(n: int, detail: str) -> None:
    print(f"PASS criterion {n}: {detail}")


def _representable_targets(params: RingParams, count: int, magnitude: int, seed: int):
    """Seeded random cube-subgroup members with coefficients up to magnitude."""
    rng = random.Random(seed)
    case3 = classify_case(params).case is Case.CASE3
    out = []
    for _ in range(count):
        c = [rng.randint(-magnitude, magnitude) for _ in range(4)]
        if case3:
            c[1:] = [3 * rng.randint(-magnitude // 3, magnitude // 3) for _ in range(3)]
        out.append(Quaternion(params, *c))
    return out


def _criterion1_targets(count_per_ring: int):
    targets = []
    for idx, ring in enumerate(SHOWCASE_RINGS):
        params = RingParams(*ring)
        targets.extend(_representable_targets(params, count_per_ring, 10**6, SEED + idx))
    return targets


def test_criterion_1_upper_bound_reproduction():
    start = time.perf_counter()
    worst = 0
    for alpha in _criterion1_targets(1000):
        case3 = classify_case(alpha.params).case is Case.CASE3
        dec = decompose(alpha)
        assert verify(dec)
        assert dec.count <= (5 if case3 else 6)
        worst = max(worst, dec.count)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, budget is 60s"
    _report(1, f"11 rings x 1000 targets all verified, max roots {worst}, {elapsed:.1f}s")


def test_criterion_2_closed_form_cube():
    rng = random.Random(SEED + 100)
    checked = 0
    for _ in range(10):
        params = RingParams(rng.randint(1, 10**6), rng.randint(1, 10**6))
        for _ in range(1000):
            x = Quaternion(params, *(rng.randint(-10**9, 10**9) for _ in range(4)))
            assert cube(x) == x * x * x
            checked += 1
    _report(2, f"cube(x) == x*x*x exactly for {checked} random quaternions in 10 rings")


def test_criterion_3_identity_suites():
    rng = random.Random(SEED + 200)
    for ring in SHOWCASE_RINGS:
        params = RingParams(*ring)
        for _ in range(1000):
            z = Quaternion(params, *(rng.randint(-10**6, 10**6) for _ in range(4)))
            for plus3, want in ((False, 6 * z), (True, 6 * z + 3)):
                total = Quaternion.scalar(params, 0)
                for c in _identity(*z.coefficients(), plus3):
                    r = Quaternion(params, *c)
                    total = total + r * r * r
                assert total == want
    _report(3, f"both four-cube identities exact for 1000 z in each of {len(SHOWCASE_RINGS)} rings")


def test_criterion_4_lemma_certification():
    start = time.perf_counter()
    for a6 in range(6):
        for b6 in range(6):
            rep = lemma_residue_check(a6, b6)
            assert rep.failures == (), f"({a6},{b6}) failed: {rep.failures[:3]}"
            if rep.case.case is Case.CASE3:
                assert rep.classes_checked == 48
                assert rep.pair_targets_checked == 0
            else:
                assert rep.classes_checked == 192
                assert rep.pair_targets_checked == 1296
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.1f}s, budget is 10s"
    _report(4, f"all 36 residue pairs certified with no failures, {elapsed:.2f}s")


def test_criterion_5_three_cube_residues():
    best = min(_timed_three_cube() for _ in range(5))
    assert three_cube_residues_mod9() == {0, 1, 2, 3, 6, 7, 8}
    assert best < 1e-3, f"criterion 5 took {best * 1e3:.3f}ms, budget is 1ms"
    _report(5, f"attainable residues exactly {{0,1,2,3,6,7,8}}, best run {best * 1e6:.0f}us")


def _timed_three_cube() -> float:
    start = time.perf_counter()
    three_cube_residues_mod9()
    return time.perf_counter() - start


def test_criterion_6_two_cube_obstruction():
    per_ring = []
    for ring in OBSTRUCTION_RINGS:
        params = RingParams(*ring)
        start = time.perf_counter()
        assert two_cube_obstruction(params, Quaternion(params, 3, 3, 0, 0))
        assert not two_cube_obstruction(params, Quaternion.scalar(params, 0))
        elapsed = time.perf_counter() - start
        per_ring.append(elapsed)
        assert elapsed <= 5.0, f"ring {ring} took {elapsed:.1f}s, budget is a few seconds"
    _report(6, f"3+3i obstructed and 0 unobstructed in {len(per_ring)} rings, "
               f"worst ring {max(per_ring) * 1e3:.0f}ms")


def test_criterion_7_lower_bound_consistency():
    params = RingParams(3, 3)
    four = Quaternion.scalar(params, 4)
    assert member_cube_subgroup(four)
    dec = decompose(four)
    assert verify(dec) and dec.count <= 5
    assert min_cubes_search(four, SearchConfig(max_cubes=2, coeff_bound=30)) is None
    assert min_cubes_search(four, SearchConfig(max_cubes=3, coeff_bound=20)) is None
    _report(7, f"4 in (3,3): member, {dec.count} verified roots, "
               "absent at 2 cubes (bound 30) and 3 cubes (bound 20)")


def test_criterion_8_soft_conjecture_check():
    params = RingParams(1, 1)
    target = Quaternion(params, 3, 3, 0, 0)
    start = time.perf_counter()
    roots = min_cubes_search(target, SOFT_SEARCH_CFG)
    elapsed = time.perf_counter() - start
    if roots is None:
        # soft criterion: the source states no bounds, so absence here is
        # inconclusive rather than a failure
        _report(8, f"INCONCLUSIVE: no 3-cube representation of 3+3i within "
                   f"the box, {elapsed:.1f}s (soft criterion, logged only)")
        return
    assert len(roots) == 3
    total = Quaternion.scalar(params, 0)
    for r in roots:
        total = total + cube(r)
    assert total == target
    _report(8, f"3+3i = {' + '.join(f'({r})^3' for r in roots)}, verified, {elapsed:.1f}s")


def test_criterion_9_determinism():
    # criterion 1 output: same seeded targets, two full runs, identical bytes
    runs = []
    for _ in range(2):
        payloads = [decompose_payload(alpha) for alpha in _criterion1_targets(100)]
        runs.append(json.dumps(payloads, separators=(",", ":")).encode())
    assert runs[0] == runs[1]

    # criterion 6 output: two runs over the obstruction rings
    runs = []
    for _ in range(2):
        payloads = [lower_bounds_payload(RingParams(*r)) for r in OBSTRUCTION_RINGS]
        runs.append(json.dumps(payloads, separators=(",", ":")).encode())
    assert runs[0] == runs[1]

    # criterion 8 output: serial and parallel runs must emit identical bytes
    target = Quaternion(RingParams(1, 1), 3, 3, 0, 0)
    serial = json.dumps(search_payload(target, SOFT_SEARCH_CFG, workers=1),
                        separators=(",", ":")).encode()
    parallel = json.dumps(search_payload(target, SOFT_SEARCH_CFG, workers=2),
                          separators=(",", ":")).encode()
    assert serial == parallel
    _report(9, "criteria 1, 6 and 8 JSON byte-identical across repeated runs, "
               "including the parallel search")
