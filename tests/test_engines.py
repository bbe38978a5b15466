"""The three engines bound each other.

The recipe (``decompose``), the box search (``min_cubes_search``) and the
residue engine (``_Mod9Tables``) share nothing past ``cube_coeffs``, and
each is tested against its own brute force elsewhere.  Here they check
one another.  Write lower(t) for the least k with t's signature mod 9 in
S_k, the set of sums of k cube signatures.  Then a witness of k cubes
for t, from the recipe or from the box, has k >= lower(t), and so does
any j of its cubes for their own sum, with j in place of k.  A target
the recipe writes with 4 roots (one already reduced) has lower(t) <= 4,
and a target outside the cube subgroup is in no S_k.  Every witness is
summed with the ``Quaternion`` product, not with ``cube_coeffs``.
"""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatcube import (
    NotRepresentable,
    Quaternion,
    RingParams,
    SearchConfig,
    decompose,
    member_cube_subgroup,
    min_cubes_search,
)
from quatcube.mod9 import _mod9_tables, _sig

SMALL = st.integers(-3, 3)
NEAR_MILLION = st.builds(lambda sign, d: sign * (10**6 + d), st.sampled_from((1, -1)),
                         st.integers(-50, 50))


def coeffs(values):
    return st.tuples(values, values, values, values)


def lower(params, t):
    """The least k <= 6 with t's signature in S_k, or None."""
    tabs, sig = _mod9_tables(params), _sig(t)
    return next((k for k in range(1, 7) if tabs.attains(sig, k)), None)


def check_witness(params, t, roots):
    """The roots' cubes sum to t by the Quaternion product, and any j of
    them sum to an element of S_j."""
    tabs, cubes = _mod9_tables(params), [r * r * r for r in roots]
    for j in range(1, len(cubes) + 1):
        for some in combinations(cubes, j):
            assert tabs.attains(_sig(sum(some, Quaternion.scalar(params, 0)).coefficients()), j)
    assert sum(cubes, Quaternion.scalar(params, 0)).coefficients() == t


def check_recipe(params, t):
    """decompose(t) against the residue engine."""
    low = lower(params, t)
    alpha = Quaternion(params, *t)
    if not member_cube_subgroup(alpha):
        assert low is None
        with pytest.raises(NotRepresentable):
            decompose(alpha)
        return
    dec = decompose(alpha)
    assert low is not None and low <= dec.count
    check_witness(params, t, dec.roots)
    if t[0] % 3 == 0 and not (t[1] % 6 or t[2] % 6 or t[3] % 6):
        assert dec.count == 4 and low <= 4


def check_search(params, t, cfg):
    """A box witness has at least lower(t) cubes; returns its length."""
    found = min_cubes_search(Quaternion(params, *t), cfg)
    if found is None:
        return None
    assert len(found) >= lower(params, t)
    check_witness(params, t, found)
    return len(found)


@given(
    ring=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    small=coeffs(SMALL),
    large=coeffs(NEAR_MILLION),
    roots=st.lists(coeffs(st.integers(-2, 2)), min_size=1, max_size=3),
)
# a swapped ring (case 2b) and two case-3 rings, whatever the draws
@example(ring=(3, 2), small=(1, 1, 2, -3), large=(10**6, -10**6, 10**6 + 7, 3 - 10**6),
         roots=[(1, 2, -1, 0), (-2, 0, 1, 1)])
@example(ring=(6, 9), small=(2, 3, 0, -3), large=(10**6 + 2, 10**6 - 1, -10**6, 10**6),
         roots=[(2, 1, 1, -1)])
@example(ring=(3, 3), small=(4, 0, 0, 0), large=(-10**6, 10**6 + 2, 10**6, 10**6 - 2),
         roots=[(1, 0, 0, 0)] * 3)
@settings(deadline=None, derandomize=True, max_examples=300)
def test_recipe_search_and_residues_bound_each_other(ring, small, large, roots):
    params = RingParams(*ring)
    check_recipe(params, large)
    check_recipe(params, small)
    check_search(params, small, SearchConfig(max_cubes=2, coeff_bound=3))
    # a target made of k cubes of the box: the search finds at most k
    roots = [Quaternion(params, *r) for r in roots]
    total = Quaternion.scalar(params, 0)
    for r in roots:
        total = total + r * r * r
    t = total.coefficients()
    assert lower(params, t) <= len(roots)
    check_recipe(params, t)
    found = check_search(params, t, SearchConfig(max_cubes=len(roots), coeff_bound=2))
    assert found is not None and found <= len(roots)
