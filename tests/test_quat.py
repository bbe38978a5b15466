import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcube import MixedRings, Quaternion, RingParams, cube, cube_coeffs, p_value, swap_iso
from quatcube.quat import cube_sum

LIPSCHITZ = RingParams(1, 1)


def q(params, c0, c1, c2, c3):
    return Quaternion(params, c0, c1, c2, c3)


small_rings = st.builds(RingParams, st.integers(1, 50), st.integers(1, 50))
coeffs = st.integers(-10**9, 10**9)
huge_coeffs = st.integers()


def quaternions(rings=small_rings, coeff=coeffs):
    return st.builds(Quaternion, rings, coeff, coeff, coeff, coeff)


def pairs_same_ring(coeff=coeffs):
    return small_rings.flatmap(
        lambda p: st.tuples(quaternions(st.just(p), coeff), quaternions(st.just(p), coeff))
    )


def triples_same_ring(coeff=st.integers(-10**4, 10**4)):
    return small_rings.flatmap(
        lambda p: st.tuples(
            quaternions(st.just(p), coeff),
            quaternions(st.just(p), coeff),
            quaternions(st.just(p), coeff),
        )
    )


class TestRingParams:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RingParams(0, 1)
        with pytest.raises(ValueError):
            RingParams(3, -2)

    def test_swapped(self):
        assert RingParams(2, 3).swapped() == RingParams(3, 2)


class TestAddSub:
    def test_componentwise_sum(self):
        assert q(LIPSCHITZ, 1, 1, 0, 0) + q(LIPSCHITZ, 2, 0, 1, 0) == q(LIPSCHITZ, 3, 1, 1, 0)

    def test_additive_inverse(self):
        x = q(LIPSCHITZ, 5, -3, 2, 7)
        assert x + (-x) == q(LIPSCHITZ, 0, 0, 0, 0)

    def test_mixed_rings_rejected(self):
        x = q(RingParams(1, 1), 1, 1, 0, 0)
        y = q(RingParams(2, 1), 1, 1, 0, 0)
        with pytest.raises(MixedRings):
            x + y
        with pytest.raises(MixedRings):
            x * y

    def test_int_scalars_mix(self):
        x = q(LIPSCHITZ, 1, 2, 3, 4)
        assert x + 1 == q(LIPSCHITZ, 2, 2, 3, 4)
        assert 1 + x == q(LIPSCHITZ, 2, 2, 3, 4)
        assert 7 - x == q(LIPSCHITZ, 6, -2, -3, -4)
        assert 2 * x == q(LIPSCHITZ, 2, 4, 6, 8)


class TestMul:
    def test_defining_relations_2_3(self):
        p = RingParams(2, 3)
        i = q(p, 0, 1, 0, 0)
        j = q(p, 0, 0, 1, 0)
        k = q(p, 0, 0, 0, 1)
        assert i * i == q(p, -2, 0, 0, 0)
        assert j * j == q(p, -3, 0, 0, 0)
        assert i * j == k
        assert j * i == -k
        assert k * k == q(p, -6, 0, 0, 0)

    def test_derived_basis_products(self):
        # ik = -a j, ki = a j, jk = b i, kj = -b i follow from the relations
        p = RingParams(2, 3)
        i = q(p, 0, 1, 0, 0)
        j = q(p, 0, 0, 1, 0)
        k = q(p, 0, 0, 0, 1)
        assert i * k == -2 * j
        assert k * i == 2 * j
        assert j * k == 3 * i
        assert k * j == -3 * i

    @given(triples_same_ring())
    @settings(deadline=None)
    def test_associative(self, xyz):
        x, y, z = xyz
        assert (x * y) * z == x * (y * z)

    @given(triples_same_ring())
    @settings(deadline=None)
    def test_distributive(self, xyz):
        x, y, z = xyz
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x


class TestPValue:
    def test_formula(self):
        assert p_value(q(RingParams(2, 3), 1, 1, 1, 1)) == 2 + 3 + 6
        assert p_value(q(LIPSCHITZ, 1, 1, 1, 1)) == 3

    def test_scalar_is_zero(self):
        assert p_value(q(RingParams(7, 9), 17, 0, 0, 0)) == 0

    @given(quaternions())
    @settings(deadline=None)
    def test_nonnegative_zero_iff_scalar(self, x):
        p = p_value(x)
        assert p >= 0
        assert (p == 0) == x.is_scalar()

    @given(quaternions(coeff=st.integers(-10**3, 10**3)))
    @settings(deadline=None)
    def test_pure_square_is_minus_p(self, x):
        v = Quaternion(x.params, 0, x.c1, x.c2, x.c3)
        assert v * v == Quaternion.scalar(x.params, -p_value(v))


class TestCube:
    def test_values_cross_checked_by_repeated_multiplication(self):
        x = q(LIPSCHITZ, 1, 1, 1, 1)
        assert cube(x) == x * x * x == q(LIPSCHITZ, -8, 0, 0, 0)
        # -2+3i+3j+3k in (3,3): P = 135, real (4-405)(-2) = 802,
        # pure factor 12-135 = -123, pure coefficients -123*3 = -369
        y = q(RingParams(3, 3), -2, 3, 3, 3)
        assert cube(y) == y * y * y == q(RingParams(3, 3), 802, -369, -369, -369)

    def test_integer_cube(self):
        assert cube(q(RingParams(5, 11), -2, 0, 0, 0)) == q(RingParams(5, 11), -8, 0, 0, 0)

    @given(quaternions())
    @settings(deadline=None)
    def test_matches_repeated_multiplication(self, x):
        assert cube(x) == x * x * x

    @given(quaternions(coeff=huge_coeffs))
    @settings(max_examples=30, deadline=None)
    def test_exact_at_any_magnitude(self, x):
        assert cube(x) == x * x * x


# rings of all five cases, with both orientations of 2b and 2c
CASE_RINGS = [(1, 1), (2, 1), (4, 4), (2, 3), (3, 2), (1, 3), (3, 1), (3, 3), (6, 9)]


class TestCubeSum:
    def test_no_roots_sum_to_zero(self):
        assert cube_sum(2, 3, []) == (0, 0, 0, 0)

    @pytest.mark.parametrize("digits", [6, 100, 1000])
    @pytest.mark.parametrize("ring", CASE_RINGS)
    def test_matches_cube_coeffs_and_the_direct_product(self, ring, digits):
        rnd = random.Random(f"{ring}-{digits}")
        bound = 10**digits
        params = RingParams(*ring)
        for count in range(1, 8):
            roots = [tuple(rnd.randint(-bound, bound) for _ in range(4)) for _ in range(count)]
            by_coeffs = [sum(col) for col in zip(*(cube_coeffs(*ring, r) for r in roots))]
            total = Quaternion.scalar(params, 0)
            for r in roots:
                x = Quaternion(params, *r)
                total = total + x * x * x
            assert cube_sum(*ring, roots) == tuple(by_coeffs) == total.coefficients()


class TestSwapIso:
    def test_sends_i_to_mirror_j(self):
        p = RingParams(2, 3)
        i = q(p, 0, 1, 0, 0)
        image = swap_iso(i)
        assert image == q(RingParams(3, 2), 0, 0, 1, 0)
        assert image * image == Quaternion.scalar(RingParams(3, 2), -2)

    def test_sends_k_to_minus_mirror_k(self):
        p = RingParams(2, 3)
        i = q(p, 0, 1, 0, 0)
        j = q(p, 0, 0, 1, 0)
        k = q(p, 0, 0, 0, 1)
        assert swap_iso(k) == -q(RingParams(3, 2), 0, 0, 0, 1)
        assert swap_iso(i) * swap_iso(j) == swap_iso(k)

    @given(quaternions())
    @settings(deadline=None)
    def test_involution(self, x):
        assert swap_iso(swap_iso(x)) == x

    @given(pairs_same_ring(coeff=st.integers(-10**4, 10**4)))
    @settings(deadline=None)
    def test_multiplicative(self, xy):
        x, y = xy
        assert swap_iso(x * y) == swap_iso(x) * swap_iso(y)


def test_str_rendering():
    assert str(q(LIPSCHITZ, 0, 0, 0, 0)) == "0"
    assert str(q(LIPSCHITZ, 3, 3, 0, 0)) == "3+3i"
    assert str(q(LIPSCHITZ, 0, -1, 2, -2)) == "-i+2j-2k"
    assert str(q(LIPSCHITZ, -5, 0, 0, 1)) == "-5+k"
