import copy
import pickle
import sys
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatcube
from quatcube import (
    Case,
    CaseTag,
    Decomposition,
    InvalidResidues,
    NotRepresentable,
    PreconditionViolated,
    Quaternion,
    ResidueClass,
    RingParams,
    classify_case,
    cube,
    cube_root_congruence,
    decompose,
    identity_6z,
    identity_6z3,
    in_S,
    in_T2,
    in_T3,
    lemma_residue_check,
    member_cube_subgroup,
    select_pair,
    swap_iso,
    verify,
)

# the package's decompose attribute is the function; the module is here
decompose_module = sys.modules["quatcube.decompose"]

SHOWCASE_RINGS = [
    (1, 1), (2, 1), (1, 2), (4, 4), (2, 3), (3, 2), (1, 3), (3, 1),
    (3, 3), (3, 6), (6, 9),
]


def q(params, c0, c1, c2, c3):
    return Quaternion(params, c0, c1, c2, c3)


def cubes_sum(roots, params):
    total = Quaternion.scalar(params, 0)
    for r in roots:
        total = total + r * r * r  # direct product, independent of cube()
    return total


def cube_congruent(x, alpha):
    # Re(x**3) = Re(alpha) mod 3 and Im(x**3) = Im(alpha) mod 6
    d = (cube(x) - alpha).coefficients()
    return d[0] % 3 == 0 and all(c % 6 == 0 for c in d[1:])


small_rings = st.builds(RingParams, st.integers(1, 30), st.integers(1, 30))


def quaternions(rings=small_rings, coeff=st.integers(-10**6, 10**6)):
    return st.builds(Quaternion, rings, coeff, coeff, coeff, coeff)


class TestIdentities:
    def test_six_z_at_one(self):
        p = RingParams(5, 7)
        roots = identity_6z(Quaternion.scalar(p, 1))
        assert [r.coefficients()[0] for r in roots] == [2, 0, -1, -1]
        assert cubes_sum(roots, p) == Quaternion.scalar(p, 6)

    def test_six_z_at_zero(self):
        p = RingParams(1, 1)
        roots = identity_6z(Quaternion.scalar(p, 0))
        assert cubes_sum(roots, p) == Quaternion.scalar(p, 0)

    def test_six_z_at_i(self):
        p = RingParams(1, 1)
        z = q(p, 0, 1, 0, 0)
        assert cubes_sum(identity_6z(z), p) == q(p, 0, 6, 0, 0)

    def test_six_z_plus_three_at_zero(self):
        p = RingParams(2, 5)
        roots = identity_6z3(Quaternion.scalar(p, 0))
        assert [r.coefficients()[0] for r in roots] == [-5, 1, -6, 7]
        assert cubes_sum(roots, p) == Quaternion.scalar(p, 3)

    def test_six_z_plus_three_at_one(self):
        p = RingParams(1, 1)
        roots = identity_6z3(Quaternion.scalar(p, 1))
        assert [r.coefficients()[0] for r in roots] == [-6, 2, -8, 9]
        assert cubes_sum(roots, p) == Quaternion.scalar(p, 9)

    def test_six_z_plus_three_at_j(self):
        p = RingParams(1, 1)
        z = q(p, 0, 0, 1, 0)
        assert cubes_sum(identity_6z3(z), p) == q(p, 3, 0, 6, 0)

    @given(quaternions())
    @settings(deadline=None)
    def test_identities_hold_for_any_element(self, z):
        assert cubes_sum(identity_6z(z), z.params) == 6 * z
        assert cubes_sum(identity_6z3(z), z.params) == 6 * z + 3


class TestCubeRootCongruence:
    def test_case1_example(self):
        p = RingParams(2, 1)
        alpha = q(p, 1, 1, 1, 1)
        x = cube_root_congruence(alpha, classify_case(p))
        assert x == q(p, -2, 1, 1, 1)
        assert x * x * x == q(p, 22, 7, 7, 7)

    def test_case3_example(self):
        p = RingParams(3, 3)
        alpha = q(p, 1, 3, 3, 3)
        x = cube_root_congruence(alpha, classify_case(p))
        assert x == q(p, -2, 3, 3, 3)
        assert x * x * x == q(p, 802, -369, -369, -369)
        assert cube_congruent(x, alpha)

    def test_case2c_mirrored_residues(self):
        # normalized case 2c flips the imaginary residues to 6 - r
        p = RingParams(1, 3)
        alpha = q(p, 1, 1, 3, 1)  # in T2, lnr6 of the i-coefficient is 1
        x = cube_root_congruence(alpha, classify_case(p))
        assert x.c1 == 5
        assert x.imaginary() == (5, 3, 5)
        assert cube_congruent(x, alpha)

    def test_rejects_class_outside_set(self):
        p = RingParams(2, 1)
        with pytest.raises(PreconditionViolated):
            cube_root_congruence(q(p, 2, 1, 1, 1), classify_case(p))  # even real part

    def test_rejects_swapped_orientation(self):
        p = RingParams(3, 2)  # case 2b, but not normalized
        with pytest.raises(PreconditionViolated):
            cube_root_congruence(q(p, 1, 1, 3, 1), classify_case(RingParams(2, 3)))

    def test_rejects_mismatched_case(self):
        p = RingParams(2, 1)
        with pytest.raises(PreconditionViolated):
            cube_root_congruence(q(p, 1, 1, 1, 1), CaseTag(Case.CASE3))

    @given(
        st.sampled_from([(2, 1), (1, 2), (2, 2), (5, 2)]),
        st.tuples(
            st.sampled_from((1, 3, 5)),
            st.sampled_from((1, 2, 4, 5)),
            st.sampled_from((1, 2, 4, 5)),
            st.sampled_from((1, 2, 4, 5)),
        ),
        st.tuples(*(st.integers(-50, 50),) * 4),
    )
    @settings(deadline=None)
    def test_case1_congruences_on_arbitrary_lifts(self, ring, residues, offsets):
        params = RingParams(*ring)
        alpha = Quaternion(params, *(r + 6 * o for r, o in zip(residues, offsets)))
        x = cube_root_congruence(alpha, classify_case(params))
        assert cube_congruent(x, alpha)


def _pair_valid(first, second, target_residues, case1, t2_div, t3_div):
    """Validity predicate straight from the set definitions and sum rules."""
    if case1:
        if not (in_S(first) and in_S(second)):
            return False
    elif t2_div:
        if not (in_T2(first) and in_T2(second)):
            return False
    elif t3_div:
        if not (in_T3(first) and in_T3(second)):
            return False
    elif not (in_T2(first) and in_T3(second)):
        return False
    t0, t1, t2, t3 = target_residues
    return (
        (first.r0 + second.r0 - t0) % 3 == 0
        and (first.r1 + second.r1 - t1) % 6 == 0
        and (first.r2 + second.r2 - t2) % 6 == 0
        and (first.r3 + second.r3 - t3) % 6 == 0
    )


def _brute_least_pair(params, target):
    """Full quadratic scan over class pairs in lexicographic order of the
    concatenated residue tuples; independent oracle for select_pair."""
    tag = classify_case(params)
    case1 = tag.case is Case.CASE1
    tr = tuple(c % 6 for c in target.coefficients())
    t2_div, t3_div = tr[2] % 3 == 0, tr[3] % 3 == 0
    a6, b6 = params.a % 6, params.b % 6
    all_classes = [
        ResidueClass(*r, a6, b6) for r in product(range(6), repeat=4)
    ]
    for first in all_classes:
        for second in all_classes:
            if _pair_valid(first, second, tr, case1, t2_div, t3_div):
                return first, second
    raise AssertionError("no valid pair exists")


class TestSelectPair:
    def test_case1_zero_target(self):
        p = RingParams(2, 1)
        first, second = select_pair(Quaternion.scalar(p, 0), classify_case(p))
        assert first.residues() == (1, 1, 1, 1)
        assert second.residues() == (5, 5, 5, 5)

    def test_case1_always_lands_in_S(self):
        p = RingParams(2, 2)
        tag = classify_case(p)
        for r in product(range(0, 6, 2), repeat=4):
            first, second = select_pair(Quaternion(p, *r), tag)
            assert in_S(first) and in_S(second)

    def test_case2_mixed_when_neither_divisible(self):
        p = RingParams(4, 4)
        first, second = select_pair(q(p, 0, 0, 1, 1), classify_case(p))
        assert in_T2(first) and in_T3(second)

    def test_case3_rejected(self):
        p = RingParams(3, 3)
        with pytest.raises(PreconditionViolated):
            select_pair(Quaternion.scalar(p, 1), classify_case(p))

    @pytest.mark.parametrize("ring", [(2, 1), (4, 4), (2, 3), (1, 3)])
    def test_matches_brute_force_on_sampled_targets(self, ring):
        params = RingParams(*ring)
        tag = classify_case(params)
        import random

        rng = random.Random(1234)
        targets = [tuple(rng.randrange(6) for _ in range(4)) for _ in range(25)]
        targets += [(0, 0, 0, 0), (1, 0, 3, 0), (5, 2, 0, 3), (2, 1, 1, 1)]
        for t in targets:
            alpha = Quaternion(params, *t)
            assert select_pair(alpha, tag) == _brute_least_pair(params, alpha)


class TestMembership:
    def test_whole_ring_when_three_divides_at_most_one(self):
        assert member_cube_subgroup(q(RingParams(2, 1), 1, 1, 0, 0))
        assert member_cube_subgroup(q(RingParams(3, 1), 1, 1, 1, 1))

    def test_case3_requires_divisible_imaginaries(self):
        assert member_cube_subgroup(q(RingParams(3, 6), 5, 3, -9, 300))
        assert not member_cube_subgroup(q(RingParams(3, 3), 1, 1, 0, 0))
        assert member_cube_subgroup(Quaternion.scalar(RingParams(3, 3), 4))


class TestDecompose:
    def test_six_uses_fast_path(self):
        dec = decompose(Quaternion.scalar(RingParams(5, 7), 6))
        assert [r.coefficients()[0] for r in dec.roots] == [2, 0, -1, -1]
        assert verify(dec)

    def test_nine_uses_fast_path(self):
        dec = decompose(Quaternion.scalar(RingParams(2, 1), 9))
        assert [r.coefficients()[0] for r in dec.roots] == [-6, 2, -8, 9]
        assert verify(dec)

    def test_not_representable(self):
        with pytest.raises(NotRepresentable):
            decompose(q(RingParams(3, 3), 1, 1, 0, 0))

    def test_root_counts_by_case(self):
        # non-reduced targets: two congruence roots + four identity roots,
        # or one + four in case 3
        assert decompose(q(RingParams(2, 1), 7, 1, 2, 3)).count == 6
        assert decompose(q(RingParams(3, 3), 7, 3, 6, 9)).count == 5
        assert decompose(q(RingParams(3, 3), 6, 6, 12, 18)).count == 4

    @pytest.mark.parametrize("ring", SHOWCASE_RINGS)
    def test_randomized_verify(self, ring):
        import random

        params = RingParams(*ring)
        case3 = classify_case(params).case is Case.CASE3
        rng = random.Random(hash(ring) & 0xFFFF)
        for _ in range(150):
            c = [rng.randint(-10**6, 10**6) for _ in range(4)]
            if case3:
                c[1:] = [3 * (v // 3) for v in c[1:]]
            dec = decompose(Quaternion(params, *c))
            assert verify(dec)
            assert dec.count <= (5 if case3 else 6)

    def test_exhaustive_small_box_case1(self):
        params = RingParams(2, 1)
        rng = range(-8, 9)
        for c in product(rng, rng, rng, rng):
            dec = decompose(Quaternion(params, *c))
            assert verify(dec)
            assert dec.count <= 6

    def test_exhaustive_small_box_case3(self):
        params = RingParams(3, 3)
        imag = (-6, -3, 0, 3, 6)
        for c0 in range(-8, 9):
            for c in product(imag, repeat=3):
                dec = decompose(Quaternion(params, c0, *c))
                assert verify(dec)
                assert dec.count <= 5

    @pytest.mark.parametrize("ring", [(1, 1), (2, 3), (1, 3), (3, 2), (3, 1)])
    def test_exhaustive_tiny_box_other_cases(self, ring):
        params = RingParams(*ring)
        rng = range(-4, 5)
        for c in product(rng, rng, rng, rng):
            dec = decompose(Quaternion(params, *c))
            assert verify(dec)
            assert dec.count <= 6

    @given(quaternions(rings=st.sampled_from([RingParams(3, 2), RingParams(3, 1)])))
    @settings(deadline=None, max_examples=60)
    def test_swap_coherence(self, alpha):
        mirrored = decompose(swap_iso(alpha))
        dec = decompose(alpha)
        assert dec.roots == tuple(swap_iso(r) for r in mirrored.roots)
        assert verify(dec)


class TestVerify:
    def test_accepts_valid(self):
        p = RingParams(1, 1)
        dec = Decomposition(
            Quaternion.scalar(p, 6),
            tuple(Quaternion.scalar(p, n) for n in (2, 0, -1, -1)),
            classify_case(p),
        )
        assert verify(dec)

    def test_rejects_wrong_sum(self):
        p = RingParams(1, 1)
        dec = Decomposition(
            Quaternion.scalar(p, 7),
            tuple(Quaternion.scalar(p, n) for n in (2, 0, -1, -1)),
            classify_case(p),
        )
        assert not verify(dec)

    def test_rejects_too_many_roots(self):
        p = RingParams(3, 3)
        roots = tuple(Quaternion.scalar(p, n) for n in (1, 1, 1, -1, -1, -1))
        dec = Decomposition(Quaternion.scalar(p, 0), roots, classify_case(p))
        assert not verify(dec)

    def test_rejects_a_case_the_ring_does_not_have(self):
        # labelled case 1, six roots would pass the root bound; the ring
        # (3, 3) is case 3, which allows 5
        p = RingParams(3, 3)
        roots = tuple(Quaternion.scalar(p, n) for n in (1, 1, 1, -1, -1, -1))
        dec = Decomposition(Quaternion.scalar(p, 0), roots, CaseTag(Case.CASE1))
        assert not verify(dec)

    def test_rejects_roots_from_another_ring(self):
        p = RingParams(1, 1)
        roots = tuple(Quaternion.scalar(RingParams(2, 1), n) for n in (2, 0, -1, -1))
        dec = Decomposition(Quaternion.scalar(p, 6), roots, classify_case(p))
        assert not verify(dec)


class TestDecomposition:
    # decompose() stores root tuples and builds root Quaternions on demand;
    # the result must behave like one built from Quaternion roots

    @pytest.mark.parametrize("ring", SHOWCASE_RINGS)
    def test_equals_one_built_from_its_roots(self, ring):
        params = RingParams(*ring)
        target = q(params, 7, 3, -6, 9)
        stored = decompose(target)
        coeffs = stored.root_coeffs
        built = Decomposition(target, stored.roots, stored.case)
        assert built == stored and hash(built) == hash(stored)
        assert repr(built) == repr(stored)
        assert built.root_coeffs == coeffs == tuple(r.coefficients() for r in stored.roots)
        assert built.count == stored.count == len(coeffs)
        assert all(r.params == params for r in stored.roots)

    def test_roots_are_built_once(self):
        dec = decompose(q(RingParams(2, 1), 7, 1, 2, 3))
        assert dec.roots is dec.roots

    def test_is_immutable(self):
        dec = decompose(q(RingParams(2, 1), 7, 1, 2, 3))
        for name in ("target", "roots", "case", "root_coeffs"):
            with pytest.raises(FrozenInstanceError):
                setattr(dec, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(dec, name)
        assert verify(dec)

    @pytest.mark.parametrize(
        "copier",
        [lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_survives_pickle_copy_and_deepcopy(self, copier):
        # a decompose result, and one a caller built with a root of another
        # ring: the copy keeps that root's ring, so verify still refuses it
        p = RingParams(3, 2)
        stored = decompose(q(p, 7, 1, 2, 3))
        roots = stored.roots[:-1] + (Quaternion(RingParams(2, 1), *stored.root_coeffs[-1]),)
        mixed = Decomposition(stored.target, roots, stored.case)
        for dec, verified in ((stored, True), (mixed, False)):
            dup = copier(dec)
            assert dup == dec and hash(dup) == hash(dec)
            assert dup.root_coeffs == dec.root_coeffs
            assert verify(dup) is verify(dec) is verified


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

    @staticmethod
    def _failures():
        return [
            (a6, b6, f.residues())
            for a6 in range(6)
            for b6 in range(6)
            for f in lemma_residue_check(a6, b6).failures
        ]

    def test_catches_a_broken_pair_table(self, monkeypatch):
        # the unit pair for 1 mod 6 made (1, 1), which sums to 2: every
        # case-1 and case-2 ring fails on the targets whose i-coefficient
        # is 1 mod 6 (or, through the mirror ring, the ones it maps there)
        uu = list(decompose_module._UU)
        uu[1] = (1, 1)
        monkeypatch.setattr(decompose_module, "_UU", uu)
        failed = self._failures()
        assert len(failed) == 13272
        assert {(a6, b6) for a6, b6, _ in failed} == {
            (a6, b6) for a6 in range(6) for b6 in range(6) if a6 % 3 or b6 % 3
        }

    @pytest.mark.parametrize("shift", [2, 3])
    def test_catches_a_broken_recipe_root(self, monkeypatch, shift):
        # the root for class (1, 1, 1, 1) moved on its real part: by 2 its
        # cube's real part moves by 2 mod 3 and its pure parts stay put mod
        # 6, by 3 only its (odd) pure parts move, by 3 mod 6.  That class
        # lies in S only, so each of the 12 case-1 pairs fails on it alone
        root = decompose_module._congruence_root

        def shifted(r, a, b, case):
            x = root(r, a, b, case)
            return (x[0] + shift, *x[1:]) if r == (1, 1, 1, 1) else x

        monkeypatch.setattr(decompose_module, "_congruence_root", shifted)
        failed = self._failures()
        assert len(failed) == 12
        for a6, b6, residues in failed:
            assert residues == (1, 1, 1, 1)
            assert lemma_residue_check(a6, b6).case.case is Case.CASE1

    def test_passing_check_builds_no_quaternion(self, monkeypatch):
        built = []
        init = Quaternion.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        decompose_module._class_sets.cache_clear()
        monkeypatch.setattr(Quaternion, "__init__", counted)
        reports = [lemma_residue_check(a6, b6) for a6 in range(6) for b6 in range(6)]
        monkeypatch.undo()
        assert all(rep.passed for rep in reports)
        assert built == []

    def test_reachable_through_the_search_module(self):
        # perfbench/workloads.py imports the certificate from quatcube.search
        assert sys.modules["quatcube.search"].lemma_residue_check is quatcube.lemma_residue_check
