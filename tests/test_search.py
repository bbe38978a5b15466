import errno
import multiprocessing
import os
import random
import sys
import threading
import time
import tracemalloc
import types
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcube import (
    QuatcubeError,
    Quaternion,
    RingParams,
    SearchConfig,
    cube,
    min_cubes_search,
    three_cube_residues_mod9,
    two_cube_obstruction,
)
from quatcube import box, mod9, search
from quatcube.box import _SearchSpace
from quatcube.mod9 import (
    _Mod9Tables,
    _code,
    _mod9_tables,
    _neg9,
    _parity,
    _sig,
    _stored_class,
    _sums,
)
from quatcube.quat import cube_coeffs
from quatcube.search import _clamp_workers, _scan_two

# the CPUs this process may run on, as _clamp_workers counts them
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

LIPSCHITZ = RingParams(1, 1)


def scalar(params, n):
    return Quaternion.scalar(params, n)


def _neg(c):
    return tuple(-v for v in c)


def _sub(t, c):
    return tuple(u - v for u, v in zip(t, c))


def _class(s):
    """The signatures that the real flip and negation reach from s."""
    m = _neg9(s)
    return {s, (m[0], *s[1:]), (s[0], *m[1:]), m}


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_cubes=0)
    with pytest.raises(ValueError):
        SearchConfig(max_cubes=5)
    with pytest.raises(ValueError):
        SearchConfig(max_cubes=2, coeff_bound=-1)
    assert SearchConfig(max_cubes=3, coeff_bound=7).outer == 7
    assert SearchConfig(max_cubes=3, coeff_bound=7, outer_bound=2).outer == 2


@pytest.mark.parametrize("build", [
    lambda: RingParams(1.5, 2),
    lambda: RingParams(True, True),
    lambda: SearchConfig(max_cubes=2.5),
    lambda: SearchConfig(3, coeff_bound=2.0),
], ids=["float-ring", "bool-ring", "float-max-cubes", "float-coeff-bound"])
def test_ring_parameters_and_search_bounds_must_be_ints(build):
    # a float ring would classify as some case and fail verification;
    # True would print as "True" in the decompose payload; float bounds
    # would fail deep inside range()
    with pytest.raises(TypeError, match="must be ints"):
        build()


@pytest.mark.parametrize("workers, error", [
    (0, ValueError), (-3, ValueError), (True, TypeError), ("2", TypeError), (None, TypeError),
])
def test_workers_are_checked_before_any_level_runs(monkeypatch, workers, error):
    # these once ran serially without a word, or failed in the 3-cube
    # stage after the 1- and 2-cube levels had run
    scanned = []
    monkeypatch.setattr(search, "_scan", lambda *args: scanned.append(args))
    target = Quaternion(LIPSCHITZ, 3, 3, 0, 0)
    with pytest.raises(error, match="workers"):
        min_cubes_search(target, SearchConfig(max_cubes=3, coeff_bound=2), workers=workers)
    assert scanned == []


class TestThreeCubeResidues:
    def test_exact_set(self):
        assert three_cube_residues_mod9() == {0, 1, 2, 3, 6, 7, 8}

    def test_four_unattainable(self):
        assert 4 not in three_cube_residues_mod9()
        assert 5 not in three_cube_residues_mod9()


ALL_SIGS = list(product(range(9), repeat=4))


@lru_cache(maxsize=None)
def _brute_signature_sets(ring):
    """S_1 to S_4 of a ring, the sums of 1 to 4 cube signatures: the cube
    signatures by plain quaternion products of the 6,561 root classes,
    the sums of two of them digit by digit, and then each t whose
    difference with some cube signature, digit by digit, is in the set
    before."""
    params = RingParams(*ring)
    singles = frozenset(
        _sig((x * x * x).coefficients()) for x in (Quaternion(params, *r) for r in ALL_SIGS)
    )
    pairs = frozenset(
        ((s0 + u0) % 9, (s1 + u1) % 9, (s2 + u2) % 9, (s3 + u3) % 9)
        for s0, s1, s2, s3 in singles
        for u0, u1, u2, u3 in singles
    )
    sets = [singles, pairs]
    # signatures as (first two digits, last two digits), each half a number
    # in 0..80; diff[81*x + y] is half x minus half y, digit by digit
    diff = [(x // 9 - y // 9) % 9 * 9 + (x - y) % 9 for x in range(81) for y in range(81)]
    halves = [(s0 * 9 + s1, s2 * 9 + s3) for s0, s1, s2, s3 in singles]
    for _ in range(2):
        held = bytearray(6561)
        for s0, s1, s2, s3 in sets[-1]:
            held[(s0 * 9 + s1) * 81 + s2 * 9 + s3] = 1
        sets.append(frozenset(
            t for t in ALL_SIGS
            if any(
                held[diff[(t[0] * 9 + t[1]) * 81 + h] * 81 + diff[(t[2] * 9 + t[3]) * 81 + l]]
                for h, l in halves
            )
        ))
    return tuple(sets)


def _members(bits):
    return {s for s in ALL_SIGS if bits >> _code(s) & 1}


def _sum_set(sigs, k):
    """S_k as _Mod9Tables builds it, from the signatures given."""
    bits = sum(1 << _code(s) for s in sigs)
    for _ in range(k - 1):
        bits = _sums(bits, sigs)
    return _members(bits)


class TestSignatureSets:
    # a set of mod-9 signatures is a 6,561-bit int; _sums adds signatures
    # to its members, digit by digit

    def test_codes_number_signatures_in_product_order(self):
        assert [_code(s) for s in ALL_SIGS] == list(range(6561))

    def test_sums_add_each_digit_mod_9(self):
        rng = random.Random(20261018)
        members = rng.sample(ALL_SIGS, 500)
        bits = sum(1 << _code(u) for u in members)
        # the 32 signatures with one non-zero digit, then seeded random ones
        shifts = [tuple(v if i == d else 0 for i in range(4)) for d in range(4) for v in range(1, 9)]
        shifts += [tuple(rng.randrange(9) for _ in range(4)) for _ in range(40)]
        for r in [(0, 0, 0, 0)] + shifts:
            expected = {tuple((ui + ri) % 9 for ui, ri in zip(u, r)) for u in members}
            assert _members(_sums(bits, [r])) == expected
        assert _members(_sums(bits, shifts[:3])) == {
            tuple((ui + ri) % 9 for ui, ri in zip(u, r)) for u in members for r in shifts[:3]
        }
        assert _sums(bits, []) == 0

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (1, 3), (3, 3), (2, 9), (3, 9)])
    def test_pair_lookup_matches_brute_force_pair_sums(self, ring):
        sets = _brute_signature_sets(ring)
        tabs = _Mod9Tables(ring[0] % 9, ring[1] % 9)
        assert tabs.single == sets[0]
        # (-x)**3 == -(x**3): first_root_classes relies on t - S_k == t + S_k
        assert {_neg9(s) for s in sets[0]} == sets[0]
        for k, expected in enumerate(sets, 1):
            assert _members(tabs.sums(k)) == expected
            assert {s for s in ALL_SIGS if tabs.attains(s, k)} == expected

    @pytest.mark.parametrize("ring, dropped, levels", [
        ((3, 9), (0, 0, 0, 0), {2, 3, 4}), ((3, 9), (1, 0, 0, 0), {2}), ((1, 3), (1, 0, 3, 3), {2}),
    ])
    def test_a_dropped_cube_signature_shows_in_the_pair_sums(self, ring, dropped, levels):
        # the brute-force comparison above would catch S_k built without
        # one cube signature, at the levels k where the sums lose a member
        # (in these rings only a dropped 0 changes S_3)
        sets = _brute_signature_sets(ring)
        for k in (2, 3, 4):
            assert _sum_set(sets[0], k) == sets[k - 1]
            assert (_sum_set(sets[0] - {dropped}, k) != sets[k - 1]) == (k in levels)

    def test_shared_tables_agree_across_threads(self):
        # threads share _MOD9_CACHE entries: on one fresh instance, threads
        # that build its sets S_1 to S_3 at once, and read masks from them,
        # must agree with a lone one
        ring = (1, 1)
        rng = random.Random(20261019)
        sigs = [(3, 3, 0, 0), (4, 0, 0, 0)] + [tuple(rng.randrange(9) for _ in range(4)) for _ in range(20)]
        def read(tabs, t):
            # the k = 4 masks read S_3, which the first of them builds
            return tabs.attains(t, 2), tabs.first_root_classes(t, 3), tabs.first_root_classes(t, 4)

        lone = _Mod9Tables(*ring)
        expected = [read(lone, t) for t in sigs]
        tabs = _Mod9Tables(*ring)
        results = [None] * 8

        def run(i):
            order = sigs[i:] + sigs[:i]
            results[i] = [read(tabs, t) for t in order]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert results == [expected[i:] + expected[:i] for i in range(8)]


class TestMod9Tables:
    def test_cube_signatures_match_the_cube_formula(self):
        for a9, b9 in product(range(9), repeat=2):
            assert _Mod9Tables(a9, b9).cube_sig == [
                _sig(cube_coeffs(a9, b9, r)) for r in product(range(9), repeat=4)
            ]

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (3, 3), (2, 9), (6, 9)])
    def test_stored_map_is_the_stored_class_of_each_cube_signature(self, ring):
        # searches read the map the tables build once in place of _stored_class
        tabs = _Mod9Tables(ring[0] % 9, ring[1] % 9)
        assert set(tabs.stored) == tabs.single
        for s in tabs.single:
            assert tabs.stored[s] == _stored_class(s)

    @pytest.mark.parametrize("ring", [(3, 3), (6, 9)])
    def test_first_root_classes_match_brute_force_triple_sums(self, ring):
        # a signature is a sum of k cube signatures exactly when some root
        # class leaves a sum of k - 1; both rings miss real part 4 mod 9 with
        # three cubes and reach it with four
        tabs = _Mod9Tables(ring[0] % 9, ring[1] % 9)

        def add(s, u):
            return tuple((x + y) % 9 for x, y in zip(s, u))

        pairs = {add(s, u) for s in tabs.single for u in tabs.single}
        triples = {add(p, u) for p in pairs for u in tabs.single}
        quads = {add(p, u) for p in triples for u in tabs.single}
        assert (4, 0, 0, 0) not in triples and (3, 0, 0, 0) in triples
        assert (4, 0, 0, 0) in quads and (0, 1, 0, 0) not in quads
        for t in product(range(9), repeat=4):
            assert bool(tabs.first_root_classes(t, 3)) == (t in triples)
            assert bool(tabs.first_root_classes(t, 4)) == (t in quads)

    @pytest.mark.parametrize("ring", [(1, 1), (3, 3)])
    def test_first_root_classes_is_a_byte_mask_by_class(self, ring):
        # byte n of the mask for k cubes says whether class n's cube leaves
        # a sum of k - 1 cube signatures; a signature no class passes gets
        # the empty mask, so each entry of a search's memo holds at most
        # one byte per class
        space = _SearchSpace(RingParams(*ring), 1)
        tabs = space._tabs

        def add(s, u):
            return tuple((x + y) % 9 for x, y in zip(s, u))

        _, pairs, triples, _ = _brute_signature_sets(ring)
        rng = random.Random(20261020)
        sigs = {(4, 0, 0, 0), (3, 0, 0, 0), (0, 1, 0, 0)}
        sigs.update(tuple(rng.randrange(9) for _ in range(4)) for _ in range(30))
        for k, below in ((3, pairs), (4, triples)):
            for t in sigs:
                mask = space.first_root_classes(t, k)
                expected = [int(add(t, _neg9(cs)) in below) for cs in tabs.cube_sig]
                assert type(mask) is bytes
                assert list(mask) == (expected if any(expected) else [])
                assert bool(mask) == any(expected)
                assert space.first_root_classes(t, k) is mask
                assert tabs.first_root_classes(t, k) == mask
        assert len(space._first_ok_memo) == 2 * len(sigs)
        assert all(sys.getsizeof(m) < 6561 + 100 for m in space._first_ok_memo.values())
        if ring == (3, 3):
            assert not space.first_root_classes((4, 0, 0, 0), 3)
            assert space.first_root_classes((4, 0, 0, 0), 4)
            assert not space.first_root_classes((0, 1, 0, 0), 4)

    def test_searches_leave_no_mask_in_the_shared_tables(self, monkeypatch):
        # the process-wide cache holds only per-ring tables: the masks a
        # search reads stay in its own space and go with it
        monkeypatch.setattr(mod9, "_MOD9_CACHE", {})
        flagship = min_cubes_search(
            Quaternion(LIPSCHITZ, 3, 3, 0, 0), SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=6)
        )
        assert len(flagship) == 3
        four = min_cubes_search(scalar(RingParams(3, 3), 4), SearchConfig(4, 1, 1))
        assert len(four) == 4
        assert len(mod9._MOD9_CACHE) == 2
        for tabs in mod9._MOD9_CACHE.values():
            held = [getattr(tabs, name) for name in tabs.__slots__]
            held += [v for h in held if isinstance(h, dict) for v in h.values()]
            held += [v for h in held if isinstance(h, tuple) for v in h]
            assert not any(isinstance(h, bytes) for h in held)


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


@lru_cache(maxsize=None)
def _box(params, bound):
    """The roots of the box in lexicographic order and their cubes (by
    Quaternion multiplication)."""
    rng = range(-bound, bound + 1)
    roots = [Quaternion(params, *c) for c in product(rng, rng, rng, rng)]
    return roots, [r * r * r for r in roots]


@lru_cache(maxsize=None)
def _box_pairs(params, bound):
    """Each sum of two box cubes mapped to the first pair (r1, r2) that
    nested loops over the box meet."""
    roots, cubes = _box(params, bound)
    pairs = {}
    for r1, c1 in zip(roots, cubes):
        for r2, c2 in zip(roots, cubes):
            pairs.setdefault((c1 + c2).coefficients(), [r1, r2])
    return pairs


def _brute_min_cubes(alpha, max_cubes, bound, outer=None):
    """Nested enumeration in lexicographic list order, the outer root(s)
    in the outer box; independent oracle for the table-driven search
    (tiny boxes only).  The innermost two loops are one lookup in
    :func:`_box_pairs`, which keeps the pair those loops would meet
    first."""
    params = alpha.params
    outer = bound if outer is None else outer
    roots, cubes = _box(params, bound)
    pairs = _box_pairs(params, bound)
    oroots, ocubes = _box(params, outer)

    if max_cubes >= 1:
        for r, c in zip(roots, cubes):
            if c == alpha:
                return [r]
    if max_cubes >= 2 and alpha.coefficients() in pairs:
        return pairs[alpha.coefficients()]
    if max_cubes >= 3:
        for r1, c1 in zip(oroots, ocubes):
            rest = pairs.get((alpha - c1).coefficients())
            if rest is not None:
                return [r1, *rest]
    if max_cubes >= 4:
        for r1, c1 in zip(oroots, ocubes):
            for r2, c2 in zip(oroots, ocubes):
                rest = pairs.get((alpha - c1 - c2).coefficients())
                if rest is not None:
                    return [r1, r2, *rest]
    return None


def _brute_min_two_cubes(alpha, bound):
    """Least one or two box roots cubing to alpha, for boxes too large for
    :func:`_box_pairs`: the least root x whose cube leaves a box cube,
    then that cube's least root."""
    roots, cubes = _box(alpha.params, bound)
    least = {}
    for r, c in zip(roots, cubes):
        least.setdefault(c, r)
    if alpha in least:
        return [least[alpha]]
    for r, c in zip(roots, cubes):
        if alpha - c in least:
            return [r, least[alpha - c]]
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

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (3, 2), (6, 9), (2, 1), (4, 4)])
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

    @pytest.mark.parametrize("ring, coeffs", [((1, 1), (0, 12, 0, 0)), ((2, 1), (0, 10, 0, 10))])
    def test_two_cube_witness_among_parity_subpairs(self, ring, coeffs):
        # the target has many two-cube sums in the box, whose cubes fall in
        # four different pairs of parity patterns
        a, b = ring
        cubes = {cube_coeffs(a, b, x) for x in product(range(-2, 3), repeat=4)}
        parity_pairs = {
            frozenset((_parity(c), _parity(tuple(t - u for t, u in zip(coeffs, c)))))
            for c in cubes
            if tuple(t - u for t, u in zip(coeffs, c)) in cubes
        }
        assert len(parity_pairs) == 4
        target = Quaternion(RingParams(a, b), *coeffs)
        got = min_cubes_search(target, SearchConfig(max_cubes=2, coeff_bound=2))
        assert len(got) == 2
        assert got == _brute_min_cubes(target, 2, 2)

    def test_matches_brute_force_three_cubes(self):
        # (2, 2) has both parameters even, so cubes mod 2 follow other patterns
        cfg = SearchConfig(max_cubes=3, coeff_bound=1, outer_bound=1)
        for params in (RingParams(1, 1), RingParams(2, 2)):
            for c in product(range(-3, 4), repeat=2):
                t = Quaternion(params, c[0], c[1], 0, 0)
                assert min_cubes_search(t, cfg) == _brute_min_cubes(t, 3, 1, 1)

    @pytest.mark.parametrize("ring", [(1, 1), (2, 1), (4, 4), (3, 6)])
    def test_groups_partition_the_box_cubes_by_signature_and_parity(self, ring):
        params = RingParams(*ring)
        space = _SearchSpace(params, 2)
        grouped = space.by_class()
        # the groups, signs spelled out, are the pure parts of the box's
        # cubes split by signature and parity, and they hold nothing else
        want, cubes = {}, set()
        for x in product(range(-2, 3), repeat=4):
            c = cube_coeffs(params.a, params.b, x)
            cubes.add(c)
            want.setdefault(_sig(c), {}).setdefault(_parity(c), set()).add(space.pack(c))
        assert {s: {p: set(g) for p, g in groups.items()} for s, groups in grouped.items()} == want
        assert all(v is None for groups in space._groups.values() for g in groups.values()
                   for v in g.values())
        assert set(space.table()) == cubes
        # one group set per class (+-s0, +-s') is stored, under its least signature
        single = _mod9_tables(params).single
        assert set(space._groups) == {min(_class(s)) for s in single}
        assert len(space._groups) < (len(single) + 1) // 2
        # the real flip keeps the pure parts and the parities of a
        # signature's cubes, and negation negates the pure parts
        for s, groups in grouped.items():
            flipped, negated = grouped[(-s[0] % 9, *s[1:])], grouped[_neg9(s)]
            assert {p: set(g) for p, g in flipped.items()} == {p: set(g) for p, g in groups.items()}
            assert {p: {-k for k in g} for p, g in groups.items()} == {
                p: set(g) for p, g in negated.items()
            }

    @pytest.mark.parametrize("ring, bound", [((1, 1), 3), ((3, 1), 3), ((2, 9), 2), ((6, 9), 2)])
    def test_box_cubes_are_closed_under_the_real_flip_and_negation(self, ring, bound):
        # by quaternion products: (-x0 + v)**3 = (-c0, c1, c2, c3) when
        # (x0 + v)**3 = (c0, c1, c2, c3), and (-x)**3 = -(x**3)
        roots, cubes = _box(RingParams(*ring), bound)
        got = {c.coefficients() for c in cubes}
        for x, c in zip(roots, cubes):
            c0, c1, c2, c3 = c.coefficients()
            flipped = Quaternion(x.params, -x.c0, *x.imaginary())
            assert (flipped * flipped * flipped).coefficients() == (-c0, c1, c2, c3)
        assert {(-c[0], *c[1:]) for c in got} == got == {_neg(c) for c in got}

    @pytest.mark.parametrize("ring", [(1, 1), (3, 3), (6, 9), (3, 1)])
    def test_two_cube_meet_matches_brute_force(self, ring):
        # real targets (pure part 0), cubes with pure part 0 whose roots
        # are not real (3*x0**2 == P(v)), and signatures whose class holds
        # two signatures, not four, all meet here
        params, bound = RingParams(*ring), 2
        roots, cubes = _box(params, bound)
        least = {}
        for r, c in zip(roots, cubes):
            least.setdefault(c.coefficients(), r.coefficients())
        flat = [r for r, c in zip(roots, cubes) if not any(c.imaginary()) and any(r.imaginary())]
        rng = random.Random(20261019)
        targets = {(n, 0, 0, 0) for n in range(-70, 71)}
        for _ in range(150):
            c, g = rng.choice(cubes), rng.choice(cubes)
            targets |= {(c + g).coefficients(), (c - g).coefficients(), (c + g + 1).coefficients()}
        targets |= {(cube(r) + c).coefficients() for r in flat for c in cubes[::7]}
        space = _SearchSpace(params, bound)
        flat = {r.coefficients() for r in flat}
        real_found, halves = 0, set()
        for t in sorted(targets):
            got = _scan_two(space, t)
            want = next(((x.coefficients(), least[rest]) for x, c in zip(roots, cubes)
                         if (rest := _sub(t, c.coefficients())) in least), None)
            assert got == want, t
            if got is not None:
                real_found += not any(t[1:])
                halves.update(got)
        # witnesses of real targets, with a root in a flat cube's class where the ring has one
        assert real_found > 10
        assert ring == (6, 9) or halves & flat
        sizes = {len(_class(_sig(cube_coeffs(params.a, params.b, x)))) for x in halves}
        assert {2, 4} <= sizes

    @pytest.mark.parametrize("ring", [(1, 1), (2, 1), (3, 3), (6, 9), (3, 1)])
    def test_least_root_is_the_first_box_root_in_box_order(self, ring):
        # in ring (3, 1) at bound 5 the non-real cube (-80, 72, 0, 0) has the
        # three roots (-5, 1, 0, 0), (1, -3, 0, 0) and (4, 2, 0, 0)
        bound = 5 if ring == (3, 1) else 2
        params = RingParams(*ring)
        space = _SearchSpace(params, bound)
        least, count, by_pure = {}, {}, {}
        for x in product(range(-bound, bound + 1), repeat=4):
            c = cube_coeffs(params.a, params.b, x)
            least.setdefault(c, x)
            count[c] = count.get(c, 0) + 1
            by_pure.setdefault(c[1:], []).append(x)
        # a pure part other than 0 gives back every box root whose cube has it
        for pure, roots in by_pure.items():
            if any(pure):
                assert space.pure_roots(space.pack((0, *pure))) == roots
        # every box cube, and with it its negation, since the box is symmetric
        for c in least:
            assert space.least_root(c) == least[c]
            assert space.least_root(_neg(c)) == least[_neg(c)]
        assert space.table() == least
        # cubes of roots one step outside the box, and non-cubes near them,
        # have a box root only when the box holds one
        wider = range(-bound - 1, bound + 2)
        for x in product(wider, repeat=4):
            c = cube_coeffs(params.a, params.b, x)
            for t in (c, (c[0] + 1, *c[1:])):
                assert space.least_root(t) == least.get(t)
        # 3 x0^2 = p makes the pure part of the cube vanish, so such roots
        # share their cube with another root, e.g. (1, 1, 1, 1)^3 = (-2)^3
        # in (1, 1); negating a cube with several roots can then give a
        # least root other than the negated least root
        several = sum(n > 1 for n in count.values())
        flipped = sum(least[_neg(c)] != _neg(x) for c, x in least.items())
        if ring == (6, 9):
            assert several == flipped == 0
        else:
            assert several > 0 and flipped > 0

    @pytest.mark.parametrize("ring, bound, cube, root", [
        # three roots: (-5, 1, 0, 0), (1, -3, 0, 0) and (4, 2, 0, 0)
        ((3, 1), 5, (-80, 72, 0, 0), (-5, 1, 0, 0)),
        # the negation's least root is not minus (-5, 1, 0, 0)
        ((3, 1), 5, (80, -72, 0, 0), (-4, -2, 0, 0)),
        # f = 3*x0**2 - P = 0: 8 = (-1-i-j-k)^3 = 2^3, and x0 = -1 comes first
        ((1, 1), 2, (8, 0, 0, 0), (-1, -1, -1, -1)),
        ((1, 1), 2, (-8, 0, 0, 0), (-2, 0, 0, 0)),
        ((1, 1), 2, (0, 0, 0, 0), (0, 0, 0, 0)),
        # 64 = (-2-2i-2j-2k)^3 = 4^3 has no root in the box of 1
        ((1, 1), 1, (64, 0, 0, 0), None),
        ((1, 1), 2, (64, 0, 0, 0), (-2, -2, -2, -2)),
        # the same root at a bound far beyond any list of the box
        ((1, 1), 10**20 - 1, (64, 0, 0, 0), (-2, -2, -2, -2)),
    ])
    def test_least_root_named_cubes(self, ring, bound, cube, root):
        assert _SearchSpace(RingParams(*ring), bound).least_root(cube) == root

    @pytest.mark.parametrize("ring, bound", [((1, 1), 3), ((1, 2), 3), ((1, 3), 4), ((3, 1), 3)])
    def test_form_roots_are_the_box_solutions_in_box_order(self, ring, bound):
        # in ring (1, 2) at bound 3, P(v) = 36 has the solution (-2, 0, -4)
        # outside the box before the first one inside it, (0, -3, -3)
        a, b = ring
        space = _SearchSpace(RingParams(a, b), bound)
        by_p = {}
        for v in product(range(-bound, bound + 1), repeat=3):
            by_p.setdefault(a * v[0] ** 2 + b * v[1] ** 2 + a * b * v[2] ** 2, []).append(v)
        assert set(by_p) == space._norm_parts()[0]
        for p, solutions in by_p.items():
            assert list(space._form_roots((p,))) == solutions
        ps = set(list(by_p)[::3])
        assert list(space._form_roots(ps)) == sorted(v for p in ps for v in by_p[p])

    def test_whole_box_build_stores_at_most_100_bytes_per_pure_part(self):
        # the groups hold one pure part per class of signatures under the
        # real flip and negation; with whole cubes, one signature of each
        # +- pair, they held 14,857 keys in 1.32 MB here
        params = RingParams(1, 1)
        space = _SearchSpace(params, 6)
        stored_sigs = {min(_class(s)) for s in _mod9_tables(params).single}
        tracemalloc.start()
        try:
            stored = sum(len(g) for s in stored_sigs for g in space.groups(s).values())
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert stored == 8457
        assert allocated / stored <= 100

    def test_one_class_build_allocates_at_most_100_bytes_per_pure_part(self):
        # building one stored class makes only its tails, O(B) per
        # coefficient, never a table of the box's (2B+1)**3 tails: that
        # table peaked at about 2,069 bytes per stored pure part here
        space = _SearchSpace(RingParams(1, 1), 30)
        tracemalloc.start()
        try:
            stored = sum(len(g) for g in space.groups((2, 0, 3, 2)).values())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stored == 19573
        assert peak / stored <= 100

    def test_cubes_with_several_roots_and_both_signs(self):
        # ring (3, 1), B=5 has 20 non-real cubes with several roots, e.g.
        # (-80, 72, 0, 0) = (-5 + i)^3 = (1 - 3i)^3 = (4 + 2i)^3, whose
        # negation has the least root -4 - 2i, not 5 - i
        params, bound = RingParams(3, 1), 5
        roots, cubes = _box(params, bound)
        count = {}
        for c in cubes:
            count[c] = count.get(c, 0) + 1
        several = [c for c, n in count.items() if n > 1 and any(c.imaginary())]
        assert len(several) == 20
        assert Quaternion(params, -80, 72, 0, 0) in several
        rng = random.Random(31)
        targets = []
        for c in several:
            for signed in (c, -c):
                targets += [signed, signed + cubes[rng.randrange(len(cubes))]]
        cfg = SearchConfig(max_cubes=2, coeff_bound=bound)
        got = [min_cubes_search(t, cfg) for t in targets]
        assert got == [_brute_min_two_cubes(t, bound) for t in targets]
        assert min_cubes_search(Quaternion(params, 80, -72, 0, 0), cfg) == [
            Quaternion(params, -4, -2, 0, 0)
        ]

    def test_zero_remainder_meets_every_cube(self):
        # the first outer root cubes to the target itself, so the 3-cube
        # stage meets a remainder of 0, which every box cube and its
        # negation sum to; (-2, -2, -2, -2)^3 = 64 and the least root of
        # -64 is (2, -2, -2, -2)
        target = cube(Quaternion(LIPSCHITZ, -3, -3, -3, -3))
        got = min_cubes_search(target, SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=3))
        assert [r.coefficients() for r in got] == [
            (-3, -3, -3, -3), (-2, -2, -2, -2), (2, -2, -2, -2)
        ]
        assert got == _brute_min_cubes(target, 3, 2, 3)

    def test_zero_remainder_stops_at_the_first_completing_root(self, monkeypatch):
        # (-11-11i-11j-11k)**3 = 10648 lies outside the box of 10, so the
        # first outer root leaves a remainder of 0, which every box cube
        # meets; the scan in box order stops at the first root, where
        # resolving each hit took 202,352 least_root calls
        calls = []
        least_root = _SearchSpace.least_root
        monkeypatch.setattr(
            _SearchSpace, "least_root", lambda self, c: calls.append(c) or least_root(self, c)
        )
        target = cube(Quaternion(LIPSCHITZ, -11, -11, -11, -11))
        got = min_cubes_search(target, SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=11))
        assert [r.coefficients() for r in got] == [
            (-11, -11, -11, -11), (-10, -10, -10, -10), (10, -10, -10, -10)
        ]
        assert len(calls) <= 4

    def test_two_cube_scan_builds_few_signatures(self):
        params = RingParams(1, 1)
        x, y = (1, 2, 3, 4), (-5, 6, -7, 8)
        t = tuple(u + v for u, v in zip(cube_coeffs(1, 1, x), cube_coeffs(1, 1, y)))
        space = _SearchSpace(params, 10)
        got = _scan_two(space, t)
        assert got is not None and got[0] <= y
        assert tuple(map(sum, zip(*(cube_coeffs(1, 1, r) for r in got)))) == t
        assert len(space._groups) < 64

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (3, 1), (3, 3), (3, 9)])
    def test_sig_pairs_match_tuple_arithmetic(self, ring):
        # every root class mod 9 lies in the box of 4, so every signature
        # has cubes there and no pair is dropped for an empty side
        params = RingParams(*ring)
        space = _SearchSpace(params, 4)
        single = _mod9_tables(params).single
        got = {t: space._sig_pairs(t) for t in product(range(9), repeat=4)}
        stored_of = {id(groups): s for s, groups in space._groups.items()}

        def side(s):
            # the stored signature of s's class, and the sign that takes its
            # pure parts to s's: + where s has the least pure part of the two
            stored = min(_class(s))
            return stored, 1 if s[1:] == stored[1:] else -1

        sides = {s: side(s) for s in single}
        expected = {t: set() for t in got}
        for s, m in product(single, repeat=2):
            summed = tuple((si + mi) % 9 for si, mi in zip(s, m))
            expected[summed].add(frozenset((sides[s], sides[m])))
        for t, pairs in got.items():
            found = []
            for groups, sign, mates, mate_sign, same in pairs:
                one, other = (stored_of[id(groups)], sign), (stored_of[id(mates)], mate_sign)
                assert same == (one == other)
                found.append(frozenset((one, other)))
            assert len(found) == len(set(found)) and set(found) == expected[t]

    @pytest.mark.parametrize("ring", [(1, 1), (3, 3)])
    def test_pair_sets_give_each_group_pair_once_smaller_first(self, ring):
        # a group pair is unordered: {(stored signature, sign, parity), (..)}
        params = RingParams(*ring)
        space = _SearchSpace(params, 4)
        single = _mod9_tables(params).single
        parities = {s: set(space.signed_groups(s)[0]) for s in single}
        side_of = {
            id(group): (s, p) for s, groups in space._groups.items() for p, group in groups.items()
        }

        def side(s, p):
            stored = min(_class(s))
            return stored, 1 if s[1:] == stored[1:] else -1, p

        def stored_side(group, sign):
            s, p = side_of[id(group)]
            return s, sign, p

        rng = random.Random(20261018)
        for t in [(0, 0, 0, 0)] + [tuple(rng.randrange(9) for _ in range(4)) for _ in range(40)]:
            for par in range(16):
                got = list(space.pair_sets(t, par))
                assert all(len(small[0]) <= len(big[0]) for small, big in got)
                found = [frozenset((stored_side(*small), stored_side(*big))) for small, big in got]
                expected = set()
                for s, ps in parities.items():
                    m = tuple((ti - si) % 9 for ti, si in zip(t, s))
                    expected.update(
                        frozenset((side(s, p), side(m, p ^ par)))
                        for p in ps if p ^ par in parities.get(m, ())
                    )
                assert len(found) == len(set(found)) and set(found) == expected

    def test_parallel_equals_serial(self):
        params = RingParams(2, 1)
        target = Quaternion(params, 4, 5, 1, 2)
        cfg = SearchConfig(max_cubes=3, coeff_bound=3, outer_bound=2)
        serial = min_cubes_search(target, cfg)
        parallel = min_cubes_search(target, cfg, workers=2)
        assert serial == parallel

    def test_parallel_equals_serial_beyond_first_cells(self, monkeypatch):
        # the witness's outer root 2-2j sits in (w0, w1) cell 22 of 25
        params = RingParams(2, 1)
        target = Quaternion(params, -192, -16, -16, 0)
        cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
        serial = min_cubes_search(target, cfg)
        assert serial[0] == Quaternion(params, 2, 0, -2, 0)
        started = _record_started(monkeypatch)
        assert min_cubes_search(target, cfg, workers=2) == serial
        # two workers are the search's own process and one spawned one
        assert len(started) == _clamp_workers(2, 25, search._affinity()) - 1

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

    @pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
    @pytest.mark.parametrize("coeffs", [(175, 13, -4, -16), (3, 37, -3, 0)])
    def test_parallel_search_kills_no_worker_with_a_cell_out(self, coeffs):
        # whether a witness turned up in the first cell (first target) or in
        # none (second), the workers end with the search and none is left
        target = Quaternion(RingParams(2, 1), *coeffs)
        cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
        serial = min_cubes_search(target, cfg)
        assert serial is None or serial[0].coefficients()[:2] == (-2, -2)
        assert min_cubes_search(target, cfg, workers=2) == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("roots", [[(2, -1, 3, 0)], [(1, 2, 3, 4), (-5, 6, -7, 8)]])
    def test_lower_stage_witness_starts_no_helper(self, monkeypatch, roots):
        # helpers start with the 3-cube stage, which a 1- or 2-cube
        # witness ends the search before
        t = tuple(map(sum, zip(*(cube_coeffs(1, 1, r) for r in roots))))
        target = Quaternion(LIPSCHITZ, *t)
        cfg = SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=2)
        serial = min_cubes_search(target, cfg)
        assert len(serial) == len(roots)
        started = _record_started(monkeypatch)
        assert min_cubes_search(target, cfg, workers=2) == serial
        assert started == [] and multiprocessing.active_children() == []

    @pytest.mark.skipif(CPUS < 2, reason="search workers need two CPUs")
    @pytest.mark.parametrize("coeffs, bounds, levels", [
        # S_3 leaves out 4's signature, so only level 4 runs, and finds 1+1+1+1
        ((4, 0, 0, 0), (1, 1), [4]),
        # no witness: levels 3 and 4 each start and end their own helper
        ((1000, 300, 600, -900), (2, 1), [3, 4]),
    ])
    def test_top_four_cube_stage_runs_on_helpers(self, monkeypatch, coeffs, bounds, levels):
        target = Quaternion(RingParams(3, 3), *coeffs)
        cfg = SearchConfig(4, *bounds)
        serial = min_cubes_search(target, cfg)
        assert (serial is None) == (levels == [3, 4])
        started = _record_started(monkeypatch)
        assert min_cubes_search(target, cfg, workers=2) == serial
        # a helper's arguments are (params, bound, t, k, ...)
        assert [args[3] for _, args in started] == levels
        assert not any(proc.is_alive() for proc, _ in started)
        assert multiprocessing.active_children() == []

    def test_worker_runs_every_cell_before_a_hit_to_its_end(self):
        # the least witness sits in cell 22 of 25; a hit another worker
        # found in cell 23 must not stop cell 22, and stops cell 24 unstarted
        params, t = RingParams(2, 1), (-192, -16, -16, 0)
        serial = min_cubes_search(Quaternion(params, *t), SearchConfig(3, 2, 2))
        sent = []
        conn = types.SimpleNamespace(send=sent.append)
        least_hits = []
        for first in (22, 24):
            next_cell = multiprocessing.Value("i", first)
            least_hit = multiprocessing.RawValue("i", 23)
            search._cell_worker(params, 2, t, 3, 2, next_cell, least_hit, conn, None)
            least_hits.append(least_hit.value)
        assert sent[0][0] == 22 and [Quaternion(params, *c) for c in sent[0][1]] == serial
        assert sent[1:] == [None] and least_hits == [22, 23]

    def test_own_cells_beat_a_later_worker_hit(self):
        # the search's own process scans with the cell loop its workers run:
        # its hit in cell 22, which holds the least witness, must beat a
        # spawned worker's hit in cell 23
        params, t = RingParams(2, 1), (-192, -16, -16, 0)
        serial = min_cubes_search(Quaternion(params, *t), SearchConfig(3, 2, 2))
        space = _SearchSpace(params, 2)
        next_cell = multiprocessing.RawValue("i", 22)
        least_hit = multiprocessing.RawValue("i", 23)
        n, got = search._take_cells(space, t, 3, 2, next_cell, least_hit)
        assert n == 22 and [Quaternion(params, *c) for c in got] == serial
        assert least_hit.value == 22
        next_cell.value, least_hit.value = 22, 25
        reader, writer = multiprocessing.Pipe(duplex=False)
        with reader, writer:
            writer.send((23, ((0, 0, 0, 0),) * 3))
            worker = types.SimpleNamespace(exitcode=None, join=lambda: None)
            got = search._own_cells(space, t, 3, 2, next_cell, least_hit, [(worker, reader)])
        assert [Quaternion(params, *c) for c in got] == serial

    def test_dead_worker_stops_own_cells_at_once(self):
        # a spawned worker that died starting (its exit code set, its pipe
        # at EOF) is reported before this process takes its next cell, not
        # after it has scanned every cell of a box with no witness
        params, t, outer = RingParams(2, 1), (3, 37, -3, 0), 4
        space = _SearchSpace(params, 2)
        cells = (2 * outer + 1) * len(space.outer_roots(t, outer))
        next_cell = multiprocessing.RawValue("i", 0)
        least_hit = multiprocessing.RawValue("i", cells)
        reader, writer = multiprocessing.Pipe(duplex=False)
        writer.close()
        with reader:
            worker = types.SimpleNamespace(exitcode=1, join=lambda: None)
            with pytest.raises(QuatcubeError, match="exited with code 1"):
                search._own_cells(space, t, 3, outer, next_cell, least_hit, [(worker, reader)])
        assert cells == 81 and next_cell.value <= 1

    def test_cell_counter_without_a_lock_skips_no_cell(self, monkeypatch):
        # threads take cells from one counter that no lock guards, and each
        # read or write of it gives up the interpreter lock first, so they
        # interleave between a read and its write; the box holds no
        # witness, so every cell must be scanned, some perhaps twice
        params, t = RingParams(2, 1), (3, 37, -3, 0)
        w1_values = _SearchSpace(params, 1).outer_roots(t, 2)
        cells = [(w0, w1) for w0 in range(-2, 3) for w1 in w1_values]
        scanned = []
        scan_cell = search._scan_cell

        def recorded(space, k, t, outer, first_ok, w0, w1, stop=None):
            scanned.append((w0, w1))
            return scan_cell(space, k, t, outer, first_ok, w0, w1, stop)

        class YieldingInt:
            def __init__(self, value):
                self._value = value

            @property
            def value(self):
                time.sleep(0)
                return self._value

            @value.setter
            def value(self, value):
                time.sleep(0)
                self._value = value

        monkeypatch.setattr(search, "_scan_cell", recorded)
        switch = sys.getswitchinterval()
        for _ in range(5):
            next_cell, least_hit = YieldingInt(0), YieldingInt(len(cells))
            results = []

            def take():
                space = _SearchSpace(params, 2)
                results.append(search._take_cells(space, t, 3, 2, next_cell, least_hit))

            threads = [threading.Thread(target=take) for _ in range(8)]
            sys.setswitchinterval(1e-6)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
            finally:
                sys.setswitchinterval(switch)
            assert not any(th.is_alive() for th in threads)
            assert results == [None] * 8 and set(scanned) == set(cells)
            scanned.clear()

    def test_clamp_workers(self):
        cpus = search._affinity()
        assert _clamp_workers(10**9, 10**9, cpus) == CPUS
        assert _clamp_workers(10**9, 3, cpus) == min(CPUS, 3)
        assert _clamp_workers(1, 169, cpus) == 1
        assert _clamp_workers(2, 1, cpus) == 1

    def test_clamp_workers_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        # under taskset or a cpuset the machine has more CPUs than the
        # process may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _clamp_workers(8, 100, search._affinity()) == 1

    @pytest.mark.skipif(CPUS < 2, reason="placement needs two CPUs")
    @pytest.mark.parametrize("coeffs", [(-192, -16, -16, 0), (3, 37, -3, 0)])
    def test_parallel_level_moves_the_caller_and_gives_its_cpus_back(self, monkeypatch, coeffs):
        # the least witness of the first target sits in cell 22 of 25, the
        # second has none in the box: either way the search's thread scans
        # on the CPUs its helper did not take and ends on the ones it began on
        target = Quaternion(RingParams(2, 1), *coeffs)
        cfg = SearchConfig(3, 2, 2)
        serial = min_cubes_search(target, cfg)
        assert (serial is None) == (coeffs[0] == 3)
        before = os.sched_getaffinity(0)
        during = []
        own_cells = search._own_cells

        def recorded(*args):
            during.append(os.sched_getaffinity(0))
            return own_cells(*args)

        monkeypatch.setattr(search, "_own_cells", recorded)
        assert min_cubes_search(target, cfg, workers=2) == serial
        assert during == [set(sorted(before)[1:])]
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(CPUS < 2, reason="placement needs two CPUs")
    def test_refused_placement_changes_no_result(self, monkeypatch):
        # an OS that refuses every move leaves each process where it was
        target = Quaternion(RingParams(2, 1), -192, -16, -16, 0)
        cfg = SearchConfig(3, 2, 2)
        serial = min_cubes_search(target, cfg)
        before = os.sched_getaffinity(0)
        asked = []

        def refuse(pid, cpus):
            asked.append(set(cpus))
            raise OSError(errno.EPERM, "not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert min_cubes_search(target, cfg, workers=2) == serial
        # this thread asked to move, and to move back, and stayed put
        assert asked == [set(sorted(before)[1:]), before]
        assert os.sched_getaffinity(0) == before
        assert multiprocessing.active_children() == []

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


def _record_started(monkeypatch):
    """The list that every process started from now on is added to, with
    the arguments that starting it drops, the search's helpers among
    them.  In a test they are spawned: pytest's faulthandler watchdog is
    a second OS thread, so the search does not fork
    (tests/test_robustness.py runs the forked ones)."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(proc):
        args = proc._args
        start(proc)
        started.append((proc, args))

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded)
    return started


def _random_sums(params, n_cubes, count, seed, keep=lambda t: t[1] == 0):
    """Seeded sums of n_cubes cubes of roots in the box of 1 that pass
    keep; by default those with the i coefficient 0, so a scan may skip
    outer roots with w1 > 0."""
    rng = random.Random(seed)
    box = list(product(range(-1, 2), repeat=4))
    targets = []
    while len(targets) < count:
        roots = [rng.choice(box) for _ in range(n_cubes)]
        t = tuple(map(sum, zip(*(cube_coeffs(params.a, params.b, x) for x in roots))))
        if keep(t):
            targets.append(Quaternion(params, *t))
    return targets


def _symmetries(ring, u):
    """The signed permutations of pure parts (c1, c2, c3), as functions,
    that keep the norm form a*c1**2 + b*c2**2 + ab*c3**2 and fix u: each
    of the 48 is tried."""
    a, b = ring

    def norm(v):
        return a * v[0] ** 2 + b * v[1] ** 2 + a * b * v[2] ** 2

    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    group = []
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):

            def g(v, perm=perm, signs=signs):
                return tuple(s * v[p] for s, p in zip(signs, perm))

            # a signed permutation keeps the form when it keeps each unit's norm
            if all(norm(g(e)) == norm(e) for e in units) and g(u) == u:
                group.append(g)
    return group


def _orbit_least(ring, u, outer):
    """The pure parts of the box of outer, in lexicographic order, that are
    least in their orbit under :func:`_symmetries`."""
    group = _symmetries(ring, u)
    box = product(range(-outer, outer + 1), repeat=3)
    return [v for v in box if all(v <= g(v) for g in group)]


def _symmetric(t):
    """Whether t's pure part has a zero or two equal or opposite
    coefficients, so that some signed permutation may fix it."""
    u = t[1:]
    return 0 in u or any(abs(u[i]) == abs(u[j]) for i, j in ((0, 1), (0, 2), (1, 2)))


# rings whose weights (a, b, ab) allow the i, j swap (2, 2) and (3, 3), the
# j, k swap (1, 3), the i, k swap (3, 1), every swap (1, 1), and none (2, 3)
SYMMETRY_RINGS = [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (2, 3)]


class TestOuterRootSymmetry:
    # a signed permutation of the pure coefficients that keeps the norm
    # form's weights commutes with cubing, so scans take only the outer
    # roots least in their orbit under those that fix the target

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.tuples(*(st.integers(-30, 30),) * 4),
        st.tuples(*(st.sampled_from((1, -1)),) * 3),
    )
    @settings(deadline=None, max_examples=200)
    def test_negating_pure_coefficients_commutes_with_cubing(self, a, b, x, signs):
        def flip(c):
            return (c[0], signs[0] * c[1], signs[1] * c[2], signs[2] * c[3])

        assert cube_coeffs(a, b, flip(x)) == flip(cube_coeffs(a, b, x))

    @given(
        st.sampled_from(SYMMETRY_RINGS),
        st.tuples(*(st.integers(-30, 30),) * 4),
        st.tuples(*(st.integers(-3, 3),) * 3),
    )
    @settings(deadline=None, max_examples=200)
    def test_norm_preserving_signed_permutations_commute_with_cubing(self, ring, x, u):
        a, b = ring
        for g in _symmetries(ring, u):
            def act(c):
                return (c[0], *g(c[1:]))

            assert cube_coeffs(a, b, act(x)) == act(cube_coeffs(a, b, x))

    @pytest.mark.parametrize("ring", SYMMETRY_RINGS)
    def test_outer_roots_are_the_orbit_least_pure_parts(self, ring):
        space = _SearchSpace(RingParams(*ring), 1)
        for outer in (1, 2):
            for u in product(range(-2, 3), repeat=3):
                t = (0, *u)
                rows = space.outer_roots(t, outer)
                got = [(w1, w2, w3) for w1, ws in rows.items() for w2, w3s in ws for w3 in w3s]
                assert got == _orbit_least(ring, u, outer)

    @pytest.mark.parametrize("ring", SYMMETRY_RINGS)
    def test_symmetric_three_cube_targets_match_brute_force(self, ring):
        params = RingParams(*ring)
        cfg = SearchConfig(max_cubes=3, coeff_bound=1, outer_bound=1)
        targets = _random_sums(params, 3, 16, 10 * ring[0] + ring[1], _symmetric)
        targets += [scalar(params, n) for n in (-5, 3, 4, 11)]
        targets += [Quaternion(params, 2, *u) for u in ((3, 0, 0), (0, -3, 0), (0, 0, 5))]
        # equal and opposite j and k, the pair a (1, b) ring may swap, and the same on i
        pure = ((0, 2, 2), (0, 2, -2), (2, 2, 0), (2, 0, -2))
        targets += [Quaternion(params, 1, *u) for u in pure]
        got = [min_cubes_search(t, cfg) for t in targets]
        assert got == [_brute_min_cubes(t, 3, 1, 1) for t in targets]
        three = [i for i, r in enumerate(got) if r is not None and len(r) == 3]
        assert len(three) >= 4
        if CPUS >= 2:
            i = three[-1]
            assert min_cubes_search(targets[i], cfg, workers=2) == got[i]

    @pytest.mark.parametrize("ring", SYMMETRY_RINGS)
    def test_symmetric_four_cube_targets_match_brute_force(self, ring):
        params = RingParams(*ring)
        cfg = SearchConfig(max_cubes=4, coeff_bound=1, outer_bound=1)
        targets = _random_sums(params, 4, 5, 10 * ring[0] + ring[1], _symmetric)
        targets += [scalar(params, n) for n in (4, -13)]
        targets += [Quaternion(params, 1, 0, 2, 2), Quaternion(params, 1, 0, 2, -2)]
        got = [min_cubes_search(t, cfg) for t in targets]
        assert got == [_brute_min_cubes(t, 4, 1, 1) for t in targets]
        if CPUS >= 2:
            assert min_cubes_search(targets[0], cfg, workers=2) == got[0]

    def test_four_cube_stage_builds_each_orbit_table_once(self, monkeypatch):
        # the remainders of a 4-cube scan share a few stabilisers; each
        # (stabiliser, outer) gets its outer roots built once
        built = []
        orbit_least = box._orbit_least

        def record(group, outer):
            built.append((group, outer))
            return orbit_least(group, outer)

        monkeypatch.setattr(box, "_orbit_least", record)
        # no witness in the box, so every outer root and remainder is scanned
        target = scalar(RingParams(3, 3), -13)
        cfg = SearchConfig(max_cubes=4, coeff_bound=1, outer_bound=1)
        assert min_cubes_search(target, cfg) is None is _brute_min_cubes(target, 4, 1, 1)
        assert len(built) > 2 and len(set(built)) == len(built)

    @pytest.mark.parametrize("ring", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_three_cubes_match_brute_force_with_zero_pure_parts(self, ring):
        params = RingParams(*ring)
        cfg = SearchConfig(max_cubes=3, coeff_bound=1, outer_bound=1)
        targets = _random_sums(params, 3, 16, seed=sum(ring))
        targets += [Quaternion(params, c0, 0, c2, 0) for c0 in (-5, 3, 6) for c2 in (-4, 0, 2)]
        got = [min_cubes_search(t, cfg) for t in targets]
        assert got == [_brute_min_cubes(t, 3, 1, 1) for t in targets]
        # some least witness has w1 < 0, so scanning w1 >= 0 instead would fail
        assert any(r is not None and len(r) == 3 and r[0].c1 < 0 for r in got)
        if CPUS >= 2:
            some = [i for i, r in enumerate(got) if r is not None and len(r) == 3][:2]
            assert [min_cubes_search(targets[i], cfg, workers=2) for i in some] == [
                got[i] for i in some
            ]

    @pytest.mark.parametrize("ring", [(3, 3), (3, 6)])
    def test_four_cubes_match_brute_force_with_zero_pure_parts(self, ring):
        params = RingParams(*ring)
        cfg = SearchConfig(max_cubes=4, coeff_bound=1, outer_bound=1)
        targets = _random_sums(params, 4, 12, seed=sum(ring))
        targets += [scalar(params, n) for n in (4, -5, 13)]
        got = [min_cubes_search(t, cfg) for t in targets]
        assert got == [_brute_min_cubes(t, 4, 1, 1) for t in targets]
        four = [i for i, r in enumerate(got) if r is not None and len(r) == 4]
        assert len(four) >= 3
        assert min_cubes_search(targets[four[0]], cfg, workers=2) == got[four[0]]

    @staticmethod
    def _record_outer_roots(monkeypatch, skip: str):
        # record every root cubed by the scan; the level below it (named by
        # skip) always misses, so the scan runs through its whole range.
        # The scan is called through the name it had before the patch, so
        # stubbing _scan stubs only the levels below it
        roots = []

        def record(a, b, w):
            roots.append(w)
            return cube_coeffs(a, b, w)

        monkeypatch.setattr(search, "cube_coeffs", record)
        monkeypatch.setattr(search, skip, lambda *args: None)
        return roots

    @pytest.mark.parametrize("coeffs", [(7, 0, 5, 0), (7, 3, 5, 2), (2, 0, 0, 0)])
    def test_three_cube_scan_skips_positive_outer_coefficients(self, monkeypatch, coeffs):
        params, outer = RingParams(1, 1), 2
        tabs, space = _mod9_tables(params), _SearchSpace(params, 1)
        first_ok = tabs.first_root_classes(_sig(coeffs), 3)
        assert first_ok
        scanned = self._record_outer_roots(monkeypatch, "_scan_two")
        assert search._scan(space, coeffs, 3, outer) is None
        rng = range(-outer, outer + 1)
        zero = [i for i in (1, 2, 3) if coeffs[i] == 0]
        least = set(_orbit_least((1, 1), coeffs[1:], outer))
        expected = [
            w for w in product(rng, repeat=4)
            if first_ok[((w[0] % 9 * 9 + w[1] % 9) * 9 + w[2] % 9) * 9 + w[3] % 9]
            and w[1:] in least
        ]
        assert scanned == expected
        if not zero:
            # no zero pure coefficient: the whole outer box, bar the sieve
            assert any(w[1] > 0 for w in scanned)

    @pytest.mark.parametrize("coeffs", [
        (7, 0, 5, 0), (4, 0, 0, 0), (7, 3, 5, 2), (7, 0, 3, 0), (7, 3, 6, 3),
    ])
    def test_four_cube_scan_skips_positive_outer_coefficients(self, monkeypatch, coeffs):
        # level 4 cubes exactly the orbit-least roots that pass its mask;
        # (7, 0, 5, 0) and (7, 3, 5, 2) lie outside ring (3, 3)'s cube
        # subgroup, so their signatures are not in S_4 and nothing is cubed
        params, outer = RingParams(3, 3), 1
        tabs, space = _mod9_tables(params), _SearchSpace(params, 1)
        first_ok = tabs.first_root_classes(_sig(coeffs), 4)
        assert bool(first_ok) == all(c % 3 == 0 for c in coeffs[1:])
        scan = search._scan
        scanned = self._record_outer_roots(monkeypatch, "_scan")
        assert scan(space, coeffs, 4, outer) is None
        rng = range(-outer, outer + 1)
        least = _orbit_least((3, 3), coeffs[1:], outer)
        expected = [
            (w0, *v) for w0 in rng for v in least
            if first_ok and first_ok[((w0 % 9 * 9 + v[0] % 9) * 9 + v[1] % 9) * 9 + v[2] % 9]
        ]
        assert scanned == expected
        assert bool(scanned) == bool(first_ok)

    def test_ruled_out_four_cube_stage_scans_no_outer_root(self, monkeypatch):
        # 4+3i in ring (3, 9) lies outside the cube subgroup, so its
        # signature is in neither S_3 nor S_4: both stages end before any
        # outer root is enumerated
        calls = []
        outer_roots, orbit_least = _SearchSpace.outer_roots, box._orbit_least
        monkeypatch.setattr(
            _SearchSpace, "outer_roots", lambda *args: calls.append(args) or outer_roots(*args)
        )
        monkeypatch.setattr(
            box, "_orbit_least", lambda *args: calls.append(args) or orbit_least(*args)
        )
        target = Quaternion(RingParams(3, 9), 4, 3, 0, 0)
        assert min_cubes_search(target, SearchConfig(max_cubes=4, coeff_bound=2, outer_bound=2)) is None
        assert calls == []

    @pytest.mark.parametrize("coeffs, cells", [((7, 0, 5, 0), 5 * 3), ((7, 3, 0, 0), 5 * 5)])
    def test_parallel_cells_skip_positive_w1(self, monkeypatch, coeffs, cells):
        # the cells that _clamp_workers counts, and that the workers scan
        # by number in the serial scan's order
        space, counted, scanned = _SearchSpace(LIPSCHITZ, 1), [], []
        monkeypatch.setattr(
            search, "_clamp_workers", lambda n, chunks, cpus: counted.append(chunks) or 1
        )
        monkeypatch.setattr(search, "_scan_cell", lambda *args: scanned.append(args[5:7]))
        assert search._scan(space, coeffs, 3, 2, workers=2) is None
        assert counted == [cells] and len(scanned) == cells
        serial, scanned[:] = scanned[:], []
        next_cell, least_hit = types.SimpleNamespace(value=0), types.SimpleNamespace(value=cells)
        assert search._take_cells(space, coeffs, 3, 2, next_cell, least_hit) is None
        assert scanned == serial == sorted(serial)
        assert all(w1 <= 0 for _, w1 in scanned) == (coeffs[1] == 0)

    def test_flagship_scans_327_outer_roots(self, monkeypatch):
        calls = []
        scan_two = search._scan_two
        monkeypatch.setattr(search, "_scan_two", lambda *args: calls.append(1) or scan_two(*args))
        target = Quaternion(LIPSCHITZ, 3, 3, 0, 0)
        roots = min_cubes_search(target, SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=6))
        assert [r.coefficients() for r in roots] == [(-5, -4, -4, -2), (5, 2, 6, 3), (6, 1, 0, 0)]
        # one call for the 2-cube stage, the rest for outer roots
        assert len(calls) == 327
