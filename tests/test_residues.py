from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcube import (
    Case,
    CaseTag,
    Quaternion,
    ResidueClass,
    RingParams,
    classify_case,
    delta,
    in_S,
    in_T2,
    in_T3,
    lnr6,
)


def rc(r0, r1, r2, r3, a6=1, b6=1):
    return ResidueClass(r0, r1, r2, r3, a6, b6)


class TestClassify:
    def test_spec_examples(self):
        assert classify_case(RingParams(2, 1)) == CaseTag(Case.CASE1)
        assert classify_case(RingParams(3, 6)) == CaseTag(Case.CASE3)
        assert classify_case(RingParams(3, 2)) == CaseTag(Case.CASE2B, swapped=True)

    def test_partition_is_total_and_exclusive(self):
        # the tag depends only on (a, b) mod 3; sweep representatives mod 9
        for a in range(1, 19):
            for b in range(1, 19):
                tag = classify_case(RingParams(a, b))
                a3, b3 = a % 3, b % 3
                conds = {
                    Case.CASE1: a3 != 0 and b3 != 0 and (a3 == 2 or b3 == 2),
                    Case.CASE2A: a3 == 1 and b3 == 1,
                    Case.CASE2B: {a3, b3} == {2, 0},
                    Case.CASE2C: {a3, b3} == {1, 0},
                    Case.CASE3: a3 == 0 and b3 == 0,
                }
                assert sum(conds.values()) == 1
                assert conds[tag.case]
                if tag.case in (Case.CASE2B, Case.CASE2C):
                    assert tag.swapped == (a3 == 0)
                else:
                    assert not tag.swapped

    def test_tag_depends_only_on_mod3(self):
        for a in range(1, 10):
            for b in range(1, 10):
                assert classify_case(RingParams(a, b)) == classify_case(
                    RingParams(a + 9, b + 9)
                )


def _case_by_rule(a: int, b: int) -> CaseTag:
    # the if-chain classify_case's table was built from, kept as the reference
    a3, b3 = a % 3, b % 3
    if a3 == 0 and b3 == 0:
        return CaseTag(Case.CASE3)
    if a3 == 2 or b3 == 2:
        if a3 != 0 and b3 != 0:
            return CaseTag(Case.CASE1)
        return CaseTag(Case.CASE2B, swapped=(a3 == 0))
    if a3 == 1 and b3 == 1:
        return CaseTag(Case.CASE2A)
    return CaseTag(Case.CASE2C, swapped=(a3 == 0))


def test_case_table_matches_the_rule_for_rings_up_to_9():
    seen = set()
    for a, b in product(range(1, 10), repeat=2):
        tag, want = classify_case(RingParams(a, b)), _case_by_rule(a, b)
        assert (tag.case, tag.swapped, str(tag)) == (want.case, want.swapped, str(want))
        seen.add((a % 3, b % 3))
    assert len(seen) == 9  # every entry of the table was read


class TestLnr6:
    def test_examples(self):
        assert lnr6(-1) == 5
        assert lnr6(6) == 0
        assert lnr6(7) == 1

    @given(st.integers())
    def test_definition(self, n):
        r = lnr6(n)
        assert 0 <= r <= 5
        assert (n - r) % 6 == 0


class TestClassSets:
    def test_spec_examples(self):
        assert in_S(rc(1, 1, 1, 1))
        assert not in_S(rc(1, 1, 3, 1))
        assert in_T2(rc(1, 1, 3, 1))
        assert not in_S(rc(2, 1, 1, 1))

    def test_set_sizes_and_disjointness(self):
        s = t2 = t3 = 0
        for r in product(range(6), repeat=4):
            c = rc(*r)
            flags = (in_S(c), in_T2(c), in_T3(c))
            s += flags[0]
            t2 += flags[1]
            t3 += flags[2]
            # S forbids the divisibility T2/T3 require, T2 and T3 conflict on r3
            assert sum(flags) <= 1
        assert s == 192
        assert t2 == 96
        assert t3 == 96

    def test_depends_only_on_class_not_lift(self):
        params = RingParams(2, 1)
        for r in product(range(6), repeat=4):
            base = Quaternion(params, *r)
            shifted = Quaternion(params, r[0] + 6, r[1] - 12, r[2] + 600, r[3] - 6)
            assert ResidueClass.of(base).residues() == ResidueClass.of(shifted).residues()


class TestDelta:
    def test_spec_examples(self):
        case1 = CaseTag(Case.CASE1)
        case3 = CaseTag(Case.CASE3)
        assert delta(Quaternion(RingParams(2, 1), 1, 1, 1, 1), case1) == 1  # P = 5
        assert delta(Quaternion(RingParams(3, 3), 1, 3, 3, 3), case3) == 1  # P = 135, c0 odd
        assert delta(Quaternion(RingParams(2, 1), 9, 0, 0, 0), case1) == 0  # P = 0

    @given(
        st.builds(
            Quaternion,
            st.builds(RingParams, st.integers(1, 40), st.integers(1, 40)),
            st.integers(-1000, 1000),
            st.integers(-1000, 1000),
            st.integers(-1000, 1000),
            st.integers(-1000, 1000),
        ),
        st.sampled_from(list(Case)),
    )
    @settings(deadline=None)
    def test_class_signature_agrees(self, x, case):
        # the selector computed from the residues mod 6 alone
        r0, r1, r2, r3 = ResidueClass.of(x).residues()
        a6, b6 = x.params.a % 6, x.params.b % 6
        p_odd = (a6 * r1 * r1 + b6 * r2 * r2 + a6 * b6 * r3 * r3) % 2
        expected = int(p_odd == r0 % 2) if case is Case.CASE3 else p_odd
        assert delta(x, CaseTag(case)) == expected


def test_residue_class_validates_range():
    with pytest.raises(ValueError):
        ResidueClass(6, 0, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        ResidueClass(0, 0, 0, -1, 1, 1)
