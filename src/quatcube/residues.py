"""Residue-class machinery for the cube decomposition recipes.

The behaviour of cubes mod 6 depends on (a, b) only through their
residues mod 3, which splits the rings into five cases:

* ``Case1``  -- 3 divides neither a nor b, and a or b is 2 mod 3;
* ``Case2a`` -- a and b are both 1 mod 3;
* ``Case2b`` -- exactly one of a, b is 0 mod 3, the other 2 mod 3;
* ``Case2c`` -- exactly one of a, b is 0 mod 3, the other 1 mod 3;
* ``Case3``  -- 3 divides both a and b.

Cases 2b and 2c are normalized so that b is the parameter divisible by
3; the ``swapped`` flag records when that normalization exchanged a and
b, so the decomposer can move through the mirror-ring isomorphism and
map results back.

A quaternion's residue class is its coefficient tuple reduced mod 6.
The class sets used by the recipes are

    S  : c0 odd and none of c1, c2, c3 divisible by 3,
    T2 : c0 odd, c1 and c3 not divisible by 3, c2 divisible by 3,
    T3 : c0 odd, c1 and c2 not divisible by 3, c3 divisible by 3.

S is disjoint from T2 and T3 (it forbids exactly the divisibility they
require).
"""

from __future__ import annotations

from enum import Enum

from .quat import Coeffs, Quaternion, RingParams, _Frozen, _set


class Case(Enum):
    CASE1 = "Case1"
    CASE2A = "Case2a"
    CASE2B = "Case2b"
    CASE2C = "Case2c"
    CASE3 = "Case3"


class CaseTag(_Frozen):
    """A case label plus whether the a-b normalization was applied."""

    __slots__ = __match_args__ = ("case", "swapped")

    def __init__(self, case: Case, swapped: bool = False) -> None:
        _set(self, "case", case)
        _set(self, "swapped", swapped)

    def __str__(self) -> str:
        return self.case.value


class ResidueClass(_Frozen):
    """Coefficients mod 6 plus the ring parameters mod 6."""

    __slots__ = __match_args__ = ("r0", "r1", "r2", "r3", "a6", "b6")

    def __init__(self, r0: int, r1: int, r2: int, r3: int, a6: int, b6: int) -> None:
        for name, r in zip(self.__match_args__, (r0, r1, r2, r3, a6, b6)):
            if not 0 <= r <= 5:
                raise ValueError(f"residues must lie in 0..5, got {r}")
            _set(self, name, r)

    def residues(self) -> tuple[int, int, int, int]:
        return (self.r0, self.r1, self.r2, self.r3)


def lnr6(n: int) -> int:
    """Least non-negative residue of n mod 6 (always in 0..5)."""
    return n % 6


def _case_rule(a3: int, b3: int) -> CaseTag:
    # the case of a ring with a = a3 and b = b3 mod 3
    if a3 == 0 and b3 == 0:
        return CaseTag(Case.CASE3)
    if a3 == 2 or b3 == 2:
        if a3 != 0 and b3 != 0:
            return CaseTag(Case.CASE1)
        return CaseTag(Case.CASE2B, swapped=(a3 == 0))
    if a3 == 1 and b3 == 1:
        return CaseTag(Case.CASE2A)
    return CaseTag(Case.CASE2C, swapped=(a3 == 0))


# the tag of every (a mod 3, b mod 3), built once; the tags are frozen,
# so every caller, in any thread, may share them
_CASE_TABLE = tuple(tuple(_case_rule(a3, b3) for b3 in range(3)) for a3 in range(3))


def classify_case(params: RingParams) -> CaseTag:
    """The case of (a, b), with the swap normalization for cases 2b/2c."""
    return _CASE_TABLE[params.a % 3][params.b % 3]


def in_S(c: ResidueClass) -> bool:
    return c.r0 % 2 == 1 and c.r1 % 3 != 0 and c.r2 % 3 != 0 and c.r3 % 3 != 0


def in_T2(c: ResidueClass) -> bool:
    return c.r0 % 2 == 1 and c.r1 % 3 != 0 and c.r3 % 3 != 0 and c.r2 % 3 == 0


def in_T3(c: ResidueClass) -> bool:
    return c.r0 % 2 == 1 and c.r1 % 3 != 0 and c.r2 % 3 != 0 and c.r3 % 3 == 0


def _delta(c: Coeffs, a: int, b: int, case: Case) -> int:
    # delta on coefficients c in ring (a, b): P has the parity of a*c1 + b*c2 + ab*c3
    d = (a * c[1] + b * c[2] + a * b * c[3]) % 2
    if case is Case.CASE3:
        return 1 if d == c[0] % 2 else 0
    return d


def delta(x: Quaternion, case: CaseTag) -> int:
    """The 0/1 shift selector for the real part of the recipe root.

    With P = a*c1**2 + b*c2**2 + a*b*c3**2 of x's pure part: in cases 1
    and 2, 1 when P is odd; in case 3, 1 when P and c0 have the same
    parity.  The recipe root reads it too, as ``_delta``.
    """
    return _delta(x.coefficients(), x.params.a, x.params.b, case.case)
