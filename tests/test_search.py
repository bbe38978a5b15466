import os
import threading
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcube import (
    Case,
    InvalidResidues,
    Quaternion,
    RingParams,
    SearchConfig,
    cube,
    lemma_residue_check,
    min_cubes_search,
    three_cube_residues_mod9,
    two_cube_obstruction,
)
from quatcube.search import _SearchSpace, _clamp_workers

LIPSCHITZ = RingParams(1, 1)


def scalar(params, n):
    return Quaternion.scalar(params, n)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_cubes=0)
    with pytest.raises(ValueError):
        SearchConfig(max_cubes=5)
    with pytest.raises(ValueError):
        SearchConfig(max_cubes=2, coeff_bound=-1)
    assert SearchConfig(max_cubes=3, coeff_bound=7).outer == 7
    assert SearchConfig(max_cubes=3, coeff_bound=7, outer_bound=2).outer == 2


class TestThreeCubeResidues:
    def test_exact_set(self):
        assert three_cube_residues_mod9() == {0, 1, 2, 3, 6, 7, 8}

    def test_four_unattainable(self):
        assert 4 not in three_cube_residues_mod9()
        assert 5 not in three_cube_residues_mod9()


class TestTwoCubeObstruction:
    @pytest.mark.parametrize("ring", [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (1, 3)])
    def test_three_plus_three_i_obstructed(self, ring):
        params = RingParams(*ring)
        assert two_cube_obstruction(params, Quaternion(params, 3, 3, 0, 0))

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (3, 3), (7, 5)])
    def test_zero_never_obstructed(self, ring):
        params = RingParams(*ring)
        assert not two_cube_obstruction(params, scalar(params, 0))

    @given(
        st.builds(RingParams, st.integers(1, 12), st.integers(1, 12)),
        st.tuples(*(st.integers(-6, 6),) * 4),
        st.tuples(*(st.integers(-6, 6),) * 4),
    )
    @settings(deadline=None, max_examples=60)
    def test_never_obstructs_an_actual_two_cube_sum(self, params, xc, yc):
        x = Quaternion(params, *xc)
        y = Quaternion(params, *yc)
        target = cube(x) + cube(y)
        assert not two_cube_obstruction(params, target)

    def test_rejects_target_from_other_ring(self):
        from quatcube import MixedRings

        with pytest.raises(MixedRings):
            two_cube_obstruction(RingParams(1, 1), Quaternion(RingParams(2, 1), 3, 3, 0, 0))


def _brute_min_cubes(alpha, max_cubes, bound, outer=None):
    """Plain nested enumeration in lexicographic list order; independent
    oracle for the table-driven search (tiny boxes only)."""
    params = alpha.params
    outer = bound if outer is None else outer
    rng = range(-bound, bound + 1)
    roots = [Quaternion(params, *c) for c in product(rng, rng, rng, rng)]
    cubes = [r * r * r for r in roots]
    orng = range(-outer, outer + 1)
    oroots = [Quaternion(params, *c) for c in product(orng, orng, orng, orng)]
    ocubes = [r * r * r for r in oroots]

    if max_cubes >= 1:
        for r, c in zip(roots, cubes):
            if c == alpha:
                return [r]
    if max_cubes >= 2:
        for r1, c1 in zip(roots, cubes):
            rem = alpha - c1
            for r2, c2 in zip(roots, cubes):
                if c2 == rem:
                    return [r1, r2]
    if max_cubes >= 3:
        for r1, c1 in zip(oroots, ocubes):
            rem1 = alpha - c1
            for r2, c2 in zip(roots, cubes):
                rem2 = rem1 - c2
                for r3, c3 in zip(roots, cubes):
                    if c3 == rem2:
                        return [r1, r2, r3]
    return None


class TestMinCubesSearch:
    def test_single_cube(self):
        r = min_cubes_search(scalar(LIPSCHITZ, -8), SearchConfig(max_cubes=2, coeff_bound=2))
        assert r == [scalar(LIPSCHITZ, -2)]

    def test_zero_is_one_zero_cube(self):
        r = min_cubes_search(scalar(LIPSCHITZ, 0), SearchConfig(max_cubes=3, coeff_bound=1))
        assert r == [scalar(LIPSCHITZ, 0)]

    def test_three_plus_three_i_never_two_cubes(self):
        target = Quaternion(LIPSCHITZ, 3, 3, 0, 0)
        assert min_cubes_search(target, SearchConfig(max_cubes=2, coeff_bound=50)) is None

    def test_results_verify_and_respect_k(self):
        cfg = SearchConfig(max_cubes=2, coeff_bound=3)
        for c0, c1 in [(6, 2), (-7, 0), (9, 16), (2, 11)]:
            target = Quaternion(LIPSCHITZ, c0, c1, 0, 0)
            roots = min_cubes_search(target, cfg)
            if roots is None:
                continue
            assert len(roots) <= 2
            total = scalar(LIPSCHITZ, 0)
            for r in roots:
                total = total + cube(r)
            assert total == target

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (3, 2), (6, 9)])
    def test_matches_brute_force_small_boxes(self, ring):
        import random

        params = RingParams(*ring)
        rng = random.Random(99)
        targets = [Quaternion(params, *(rng.randint(-20, 20) for _ in range(4)))
                   for _ in range(12)]
        # include guaranteed hits so both branches are exercised
        targets.append(cube(Quaternion(params, 1, -2, 0, 1)))
        pair = cube(Quaternion(params, 1, 1, 0, 0)) + cube(Quaternion(params, -2, 0, 1, 0))
        targets.append(pair)
        # far outside the packing range: one packs to the same int as a
        # genuine two-cube sum, with the same signature mod 9, and neither
        # may be reported as a hit
        radix = _SearchSpace(params, 2).radix
        targets.append(pair + Quaternion(params, 0, 0, 9, -9 * radix))
        targets.append(Quaternion(params, 10**30, 1, 0, 0))
        for t in targets:
            got = min_cubes_search(t, SearchConfig(max_cubes=2, coeff_bound=2))
            assert got == _brute_min_cubes(t, 2, 2)

    def test_matches_brute_force_three_cubes(self):
        params = RingParams(1, 1)
        cfg = SearchConfig(max_cubes=3, coeff_bound=1, outer_bound=1)
        for c in product(range(-3, 4), repeat=2):
            t = Quaternion(params, c[0], c[1], 0, 0)
            assert min_cubes_search(t, cfg) == _brute_min_cubes(t, 3, 1, 1)

    def test_parallel_equals_serial(self):
        params = RingParams(2, 1)
        target = Quaternion(params, 4, 5, 1, 2)
        cfg = SearchConfig(max_cubes=3, coeff_bound=3, outer_bound=2)
        serial = min_cubes_search(target, cfg)
        parallel = min_cubes_search(target, cfg, workers=2)
        assert serial == parallel

    def test_parallel_equals_serial_beyond_first_cells(self):
        # the witness's outer root 2-2j sits in (w0, w1) cell 22 of 25
        params = RingParams(2, 1)
        target = Quaternion(params, -192, -16, -16, 0)
        cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
        serial = min_cubes_search(target, cfg)
        assert serial[0] == Quaternion(params, 2, 0, -2, 0)
        assert min_cubes_search(target, cfg, workers=2) == serial

    def test_concurrent_parallel_searches_from_threads(self):
        cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
        targets = [Quaternion(RingParams(2, 1), -192, -16, -16, 0),
                   Quaternion(RingParams(1, 1), -66, 8, 8, 10)]
        expected = [min_cubes_search(t, cfg) for t in targets]
        results = [None, None]

        def run(i):
            results[i] = min_cubes_search(targets[i], cfg, workers=2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
        assert results == expected

    def test_clamp_workers(self):
        cpus = os.cpu_count() or 1
        assert _clamp_workers(10**9, 10**9) == cpus
        assert _clamp_workers(10**9, 3) == min(cpus, 3)
        assert _clamp_workers(1, 169) == 1
        assert _clamp_workers(2, 1) == 1

    def test_four_cube_search(self):
        params = RingParams(3, 3)
        # 4 needs four cubes there; a tiny box finds 1 + 1 + 1 + 1
        r = min_cubes_search(scalar(params, 4), SearchConfig(max_cubes=4, coeff_bound=1, outer_bound=1))
        assert r is not None
        assert len(r) == 4
        total = scalar(params, 0)
        for x in r:
            total = total + cube(x)
        assert total == scalar(params, 4)


class TestLemmaResidueCheck:
    def test_case1_counts(self):
        rep = lemma_residue_check(2, 1)
        assert rep.case.case is Case.CASE1
        assert rep.classes_checked == 192
        assert rep.pair_targets_checked == 1296
        assert rep.passed

    def test_case3_counts(self):
        rep = lemma_residue_check(3, 3)
        assert rep.case.case is Case.CASE3
        assert rep.classes_checked == 48
        assert rep.pair_targets_checked == 0
        assert rep.passed

    def test_case2c_normalized(self):
        rep = lemma_residue_check(1, 3)
        assert rep.case.case is Case.CASE2C
        assert not rep.case.swapped
        assert rep.passed

    def test_swapped_orientation(self):
        rep = lemma_residue_check(0, 2)
        assert rep.case.case is Case.CASE2B
        assert rep.case.swapped
        assert rep.classes_checked == 192
        assert rep.passed

    def test_rejects_bad_residues(self):
        with pytest.raises(InvalidResidues):
            lemma_residue_check(6, 0)
        with pytest.raises(InvalidResidues):
            lemma_residue_check(0, -1)
