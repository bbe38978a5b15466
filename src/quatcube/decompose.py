"""Constructive decomposition of ring elements into sums of cubes.

Two algebraic identities do the heavy lifting: for any element z that
commutes with integers (every z does),

    6z     == (z+1)**3 + (z-1)**3 + (-z)**3 + (-z)**3
    6z + 3 == (-z-5)**3 + (z+1)**3 + (-2z-6)**3 + (2z+7)**3

so any element whose real part is 0 mod 3 and whose imaginary
coefficients are 0 mod 6 is a sum of 4 cubes.  The decomposer reduces an
arbitrary target to that shape by subtracting the cubes of one or two
small "congruence roots" chosen from the target's residue class mod 6:

* cases 1/2 (3 does not divide both a and b): pick two classes from
  S or T2/T3 whose residues sum to the target's, take the congruence
  root of each, subtract the two cubes; 2 + 4 = 6 roots total;
* case 3 (3 divides a and b): every cube-subgroup element directly
  admits a congruence root; 1 + 4 = 5 roots total.

Targets already reduced skip the congruence step and get 4 roots.  In
cases 2b/2c with the parameters in the swapped orientation, the target
is moved through the mirror-ring isomorphism (c0, c1, c2, c3) ->
(c0, c2, c1, -c3), decomposed there, and the roots mapped back.

The recipe runs on coefficient tuples; ``Quaternion`` objects are built
only for the roots :func:`decompose` returns, after their cubes have
been summed and compared with the target exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRepresentable, PreconditionViolated, VerificationFailed
# cube, swap_iso, delta and lnr6 are not called here: perfbench/tracing.py
# wraps them under these names
from .quat import Coeffs, Quaternion, cube, cube_coeffs, swap_iso  # noqa: F401
from .residues import (  # noqa: F401
    Case,
    CaseTag,
    ResidueClass,
    classify_case,
    delta,
    in_S,
    in_T2,
    in_T3,
    lnr6,
)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """A target plus an ordered list of roots whose cubes sum to it."""

    target: Quaternion
    roots: tuple[Quaternion, ...]
    case: CaseTag

    @property
    def count(self) -> int:
        return len(self.roots)


def _identity(z0: int, z1: int, z2: int, z3: int, plus3: bool) -> list[Coeffs]:
    # four roots whose cubes sum to 6z, or to 6z + 3
    if plus3:
        return [
            (-z0 - 5, -z1, -z2, -z3),
            (z0 + 1, z1, z2, z3),
            (-2 * z0 - 6, -2 * z1, -2 * z2, -2 * z3),
            (2 * z0 + 7, 2 * z1, 2 * z2, 2 * z3),
        ]
    neg = (-z0, -z1, -z2, -z3)
    return [(z0 + 1, z1, z2, z3), (z0 - 1, z1, z2, z3), neg, neg]


def identity_6z(z: Quaternion) -> list[Quaternion]:
    """Four roots whose cubes sum to 6z."""
    return [Quaternion(z.params, *r) for r in _identity(*z.coefficients(), False)]


def identity_6z3(z: Quaternion) -> list[Quaternion]:
    """Four roots whose cubes sum to 6z + 3."""
    return [Quaternion(z.params, *r) for r in _identity(*z.coefficients(), True)]


def member_cube_subgroup(alpha: Quaternion) -> bool:
    """Whether alpha lies in the additive group generated by all cubes.

    That group is the whole ring unless 3 divides both a and b, in which
    case it consists exactly of the elements whose imaginary coefficients
    are divisible by 3.
    """
    if classify_case(alpha.params).case is Case.CASE3:
        return all(c % 3 == 0 for c in alpha.imaginary())
    return True


def _congruence_root(r: Coeffs, a: int, b: int, case: Case) -> Coeffs:
    # the recipe root of the class with residues r (each in 0..5); delta
    # is 1 when p_value is odd (cases 1/2), or when p_value and the real
    # coefficient have the same parity (case 3)
    r0, r1, r2, r3 = r
    d = (a * r1 + b * r2 + a * b * r3) % 2
    if case is Case.CASE3:
        d = 1 if d == r0 % 2 else 0
    if case is Case.CASE2C:
        return (r0 - 3 * d, 6 - r1, 6 - r2, 6 - r3)
    return (r0 - 3 * d, r1, r2, r3)


def cube_root_congruence(alpha: Quaternion, case: CaseTag) -> Quaternion:
    """A root x with Re(x**3) = Re(alpha) mod 3 and Im(x**3) = Im(alpha) mod 6.

    The recipe takes the least residues of alpha's coefficients:
    x_l = lnr6(alpha_l) for l in 1..3 (or 6 - lnr6(alpha_l) in case 2c)
    and x_0 = lnr6(alpha_0) - 3*delta(alpha, case).

    Preconditions: for case 1 alpha's class must lie in S; for cases
    2a/2b/2c in T2 or T3, with the ring already in normalized
    orientation; for case 3 alpha must lie in the cube subgroup.
    """
    actual = classify_case(alpha.params)
    if actual.case is not case.case:
        raise PreconditionViolated(
            f"case {case} does not match ring ({alpha.params.a},{alpha.params.b})"
        )
    if actual.swapped:
        raise PreconditionViolated(
            "ring orientation must be normalized; apply swap_iso first"
        )
    cls = ResidueClass.of(alpha)
    if case.case is Case.CASE3:
        if any(c % 3 for c in alpha.imaginary()):
            raise PreconditionViolated(
                "imaginary coefficients must be divisible by 3 in case 3"
            )
    elif case.case is Case.CASE1:
        if not in_S(cls):
            raise PreconditionViolated(f"residue class {cls.residues()} not in S")
    else:
        if not (in_T2(cls) or in_T3(cls)):
            raise PreconditionViolated(f"residue class {cls.residues()} not in T2 or T3")
    root = _congruence_root(cls.residues(), alpha.params.a, alpha.params.b, case.case)
    return Quaternion(alpha.params, *root)


# residue alphabets mod 6: odd, not divisible by 3, divisible by 3
_ODD = (1, 3, 5)
_UNIT = (1, 2, 4, 5)
_DIV3 = (0, 3)


def _least_pairs(first: tuple[int, ...], second: tuple[int, ...], m: int) -> list:
    # for each t in 0..5, the lexicographically least (u, v) in
    # first x second with u + v = t mod m, or None
    pairs = [(u, v) for u in first for v in second]
    return [next((p for p in pairs if (sum(p) - t) % m == 0), None) for t in range(6)]


_REAL = _least_pairs(_ODD, _ODD, 3)
_UU = _least_pairs(_UNIT, _UNIT, 6)
_DD = _least_pairs(_DIV3, _DIV3, 6)
_DU = _least_pairs(_DIV3, _UNIT, 6)
_UD = _least_pairs(_UNIT, _DIV3, 6)


def _pair(r: Coeffs, case: Case) -> tuple[Coeffs, Coeffs]:
    # the two classes select_pair documents, for target residues r
    t0, t1, t2, t3 = r
    if case is Case.CASE1:
        p2, p3 = _UU, _UU
    elif t2 % 3 == 0:
        p2, p3 = _DD, _UU
    elif t3 % 3 == 0:
        p2, p3 = _UU, _DD
    else:
        p2, p3 = _DU, _UD
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = _REAL[t0], _UU[t1], p2[t2], p3[t3]
    return (u0, u1, u2, u3), (v0, v1, v2, v3)


def select_pair(alpha: Quaternion, case: CaseTag) -> tuple[ResidueClass, ResidueClass]:
    """Two residue classes in the case's set whose sum matches alpha's class.

    Case 1 yields two classes in S.  Case 2 yields both in T2 when 3
    divides alpha's j-coefficient, both in T3 when 3 divides the
    k-coefficient, and one of each otherwise.  Real parts match mod 3,
    imaginary coefficients mod 6.  The choice is deterministic: each
    coordinate takes the lexicographically least admissible pair, which
    makes the overall pair of classes lexicographically least.
    """
    if case.case is Case.CASE3:
        raise PreconditionViolated("pair selection applies to cases 1 and 2 only")
    a6, b6 = alpha.params.a % 6, alpha.params.b % 6
    first, second = _pair(ResidueClass.of(alpha).residues(), case.case)
    return ResidueClass(*first, a6, b6), ResidueClass(*second, a6, b6)


def _roots(c: Coeffs, a: int, b: int, case: Case) -> list[Coeffs]:
    # the recipe in the normalized ring (a, b): congruence roots for the
    # target's class (one in case 3, one per class of the pair otherwise),
    # then the identity roots of what their cubes leave
    c0, c1, c2, c3 = c
    xs: list[Coeffs] = []
    if c0 % 3 or c1 % 6 or c2 % 6 or c3 % 6:
        r = (c0 % 6, c1 % 6, c2 % 6, c3 % 6)
        classes = (r,) if case is Case.CASE3 else _pair(r, case)
        xs = [_congruence_root(cls, a, b, case) for cls in classes]
        for x in xs:
            d0, d1, d2, d3 = cube_coeffs(a, b, x)
            c0, c1, c2, c3 = c0 - d0, c1 - d1, c2 - d2, c3 - d3
    return xs + _identity(c0 // 6, c1 // 6, c2 // 6, c3 // 6, c0 % 6 != 0)


def _swap(c: Coeffs) -> Coeffs:
    # swap_iso on coefficients; it is its own inverse
    return (c[0], c[2], c[1], -c[3])


def _verified(a: int, b: int, target: Coeffs, roots, case: Case) -> bool:
    # the exact check: root count within the case bound, cubes sum to target
    if len(roots) > (5 if case is Case.CASE3 else 6):
        return False
    s0 = s1 = s2 = s3 = 0
    for r in roots:
        d0, d1, d2, d3 = cube_coeffs(a, b, r)
        s0, s1, s2, s3 = s0 + d0, s1 + d1, s2 + d2, s3 + d3
    return (s0, s1, s2, s3) == target


def decompose(alpha: Quaternion) -> Decomposition:
    """Write alpha as a sum of cubes: at most 6 in cases 1/2, 5 in case 3.

    Raises :class:`NotRepresentable` when alpha lies outside the cube
    subgroup (possible only when 3 divides both a and b).  The roots'
    cubes are summed and compared with alpha exactly before anything is
    returned; :class:`VerificationFailed` is raised if they differ.
    Already-reduced targets get 4 roots.
    """
    params = alpha.params
    a, b = params.a, params.b
    tag = classify_case(params)
    if not member_cube_subgroup(alpha):
        raise NotRepresentable(f"{alpha} is not in the cube subgroup of ({a},{b})")
    c = alpha.coefficients()
    if tag.swapped:
        roots = [_swap(r) for r in _roots(_swap(c), b, a, tag.case)]
    else:
        roots = _roots(c, a, b, tag.case)
    if not _verified(a, b, c, roots, tag.case):
        raise VerificationFailed(f"the root cubes do not sum to {alpha} in ({a},{b})")
    return Decomposition(alpha, tuple([Quaternion(params, *r) for r in roots]), tag)


def verify(dec: Decomposition) -> bool:
    """Exact check: the cubes of the roots sum to the target and the root
    count respects the case bound (6 for cases 1/2, 5 for case 3)."""
    params = dec.target.params
    if any(r.params is not params and r.params != params for r in dec.roots):
        return False
    roots = [(r.c0, r.c1, r.c2, r.c3) for r in dec.roots]
    return _verified(params.a, params.b, dec.target.coefficients(), roots, dec.case.case)
