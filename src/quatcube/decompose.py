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

The recipe runs on coefficient tuples in :func:`decompose`, which
classifies the ring once, runs the recipe, sums the roots' cubes in one
``quat.cube_sum`` call and compares them with the target exactly;
:func:`verify` repeats that check on its own.  It keeps those tuples in its
:class:`Decomposition`, which builds root ``Quaternion``s only when
``roots`` is read; :func:`verify` and the CLI's decompose payload read
``root_coeffs`` and build none.  ``Decomposition`` is one frozen, slotted
class on the value types' base ``quat._Frozen``: its constructor,
:func:`decompose` and the lazy ``roots`` fill the slots through the
slots' own setters, past the frozen ``__setattr__``, and it compares,
hashes, prints and pickles by target, roots and case, as the base does.
:func:`lemma_residue_check` certifies the same tuple helpers,
``_congruence_root`` (and its ``residues._delta``), ``_pair`` and ``_swap``
(the mirror map of ``quat.swap_iso``), over whole residue classes mod 6;
``cube_root_congruence`` and ``select_pair`` wrap the first two for
library callers, and build ``Quaternion``s.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from itertools import product

from .errors import InvalidResidues, NotRepresentable, PreconditionViolated, VerificationFailed
from .quat import (
    Coeffs, Quaternion, RingParams, _Frozen, _set, _swap, coeffs_text, cube_coeffs, cube_sum,
)
# cube, swap_iso, delta and lnr6 are not called here: perfbench/tracing.py
# wraps them under these names
from .quat import cube, swap_iso  # noqa: F401
from .residues import (  # noqa: F401
    Case,
    CaseTag,
    ResidueClass,
    _delta,
    classify_case,
    delta,
    in_S,
    in_T2,
    in_T3,
    lnr6,
)


class Decomposition(_Frozen):
    """A target plus an ordered list of roots whose cubes sum to it.

    Immutable, and equal to another decomposition with the same target,
    roots and case; it survives ``pickle``, ``copy`` and ``deepcopy``.
    ``root_coeffs`` holds the roots' coefficient tuples.  :func:`decompose`
    stores only those and builds the root ``Quaternion``s on the first
    read of ``roots``, so a caller that reads only ``root_coeffs`` (the
    CLI's decompose payload) builds none.
    """

    __slots__ = ("target", "root_coeffs", "case", "_roots")
    # what equality, hash, repr and pickling go by, as for the value types
    __match_args__ = ("target", "roots", "case")

    def __init__(self, target: Quaternion, roots: Iterable[Quaternion], case: CaseTag) -> None:
        roots = tuple(roots)
        _fill(self, target, tuple([r.coefficients() for r in roots]), case, roots)

    @property
    def roots(self) -> tuple[Quaternion, ...]:
        if self._roots is None:
            params = self.target.params
            roots = tuple([Quaternion(params, *r) for r in self.root_coeffs])
            Decomposition._roots.__set__(self, roots)
        return self._roots

    @property
    def count(self) -> int:
        return len(self.root_coeffs)


def _fill(
    dec: Decomposition, target: Quaternion, root_coeffs: tuple, case: CaseTag, roots,
    set_target=Decomposition.target.__set__, set_coeffs=Decomposition.root_coeffs.__set__,
    set_case=Decomposition.case.__set__, set_roots=Decomposition._roots.__set__,
) -> Decomposition:
    # dec's slots, filled through their own setters, which the frozen
    # __setattr__ does not intercept; roots None builds them on first read
    set_target(dec, target)
    set_coeffs(dec, root_coeffs)
    set_case(dec, case)
    set_roots(dec, roots)
    return dec


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


def member_cube_subgroup(alpha: Quaternion) -> bool:
    """Whether alpha lies in the additive group generated by all cubes.

    That group is the whole ring unless 3 divides both a and b, in which
    case it consists exactly of the elements whose imaginary coefficients
    are divisible by 3.
    """
    return _in_cube_subgroup(classify_case(alpha.params).case, alpha.coefficients())


def _in_cube_subgroup(case: Case, c: Coeffs) -> bool:
    # member_cube_subgroup on the ring's case and the coefficients
    return case is not Case.CASE3 or not (c[1] % 3 or c[2] % 3 or c[3] % 3)


def _congruence_root(r: Coeffs, a: int, b: int, case: Case) -> Coeffs:
    # the recipe root of the class with residues r (each in 0..5)
    r0, r1, r2, r3 = r
    d = _delta(r, a, b, case)
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
    a, b = alpha.params.a, alpha.params.b
    r = tuple([v % 6 for v in alpha.coefficients()])
    cls = ResidueClass(*r, a % 6, b % 6)
    if case.case is Case.CASE3:
        if not _in_cube_subgroup(Case.CASE3, r):
            raise PreconditionViolated(
                "imaginary coefficients must be divisible by 3 in case 3"
            )
    elif case.case is Case.CASE1:
        if not in_S(cls):
            raise PreconditionViolated(f"residue class {r} not in S")
    else:
        if not (in_T2(cls) or in_T3(cls)):
            raise PreconditionViolated(f"residue class {r} not in T2 or T3")
    return Quaternion(alpha.params, *_congruence_root(r, a, b, case.case))


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
    first, second = _pair(tuple([v % 6 for v in alpha.coefficients()]), case.case)
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


class LemmaReport(_Frozen):
    """Result of certifying the recipes of one (a mod 6, b mod 6) pair.

    ``classes_checked`` counts the recipe classes whose congruence root
    was checked, ``pair_targets_checked`` the target classes whose pair
    was checked (0 in case 3), and ``failures`` holds the classes that
    failed, recipe classes first.  A ``ResidueClass`` is built only for
    a failure.
    """

    __slots__ = __match_args__ = ("case", "classes_checked", "failures", "pair_targets_checked")

    def __init__(
        self,
        case: CaseTag,
        classes_checked: int,
        failures: tuple[ResidueClass, ...],
        pair_targets_checked: int,
    ) -> None:
        _set(self, "case", case)
        _set(self, "classes_checked", classes_checked)
        _set(self, "failures", failures)
        _set(self, "pair_targets_checked", pair_targets_checked)

    @property
    def passed(self) -> bool:
        return not self.failures


@functools.cache
def _class_sets() -> tuple[frozenset[Coeffs], frozenset[Coeffs], frozenset[Coeffs]]:
    """S, T2 and T3 as sets of residue tuples, by :func:`in_S`,
    :func:`in_T2` and :func:`in_T3`; built once, on first use."""
    classes = [ResidueClass(*r, 0, 0) for r in product(range(6), repeat=4)]
    return tuple(
        frozenset(c.residues() for c in classes if test(c)) for test in (in_S, in_T2, in_T3)
    )


def lemma_residue_check(a6: int, b6: int) -> LemmaReport:
    """Exhaustively certify the congruence recipe and pair tables for one
    (a mod 6, b mod 6) pair.

    This runs the decomposer's own tuple helpers, ``_congruence_root``
    and ``_pair``, on every residue class mod 6.  For each class in the
    case's set (192 classes for S and for T2 + T3, the 48 cube-subgroup
    classes for case 3) it checks that the recipe root's cube matches the
    class mod 3 on the real part and mod 6 on the imaginary parts.  For
    cases 1 and 2 it also checks the pair chosen for each of the 1296
    target classes: both classes lie in the sets the case requires, and
    they sum to the target class.  A swapped 2b/2c ring is checked the
    way the decomposer runs it: each class goes through ``_swap`` to the
    normalized ring, and the recipe root comes back through it.  Cubes
    mod 6 depend on the ring only through (a mod 6, b mod 6), so this
    covers every ring.  The failures list the failed recipe classes,
    then the failed pair targets, as classes of the ring asked about.
    """
    if not (0 <= a6 <= 5 and 0 <= b6 <= 5):
        raise InvalidResidues(f"residues must lie in 0..5, got ({a6}, {b6})")
    params = RingParams(a6 if a6 else 6, b6 if b6 else 6)
    tag = classify_case(params)
    case, swapped = tag.case, tag.swapped
    a, b = params.a, params.b
    S, T2, T3 = _class_sets()
    classes = list(product(range(6), repeat=4))
    if case is Case.CASE3:
        recipe = {r for r in classes if _in_cube_subgroup(case, r)}
    else:
        recipe = S if case is Case.CASE1 else T2 | T3
    checked = 0
    bad_roots: list[Coeffs] = []
    bad_pairs: list[Coeffs] = []
    for r in classes:
        # r's class in the normalized ring, where the recipe runs
        t = _swap(r) if swapped else r
        t = (t[0], t[1], t[2], t[3] % 6)
        if t in recipe:
            checked += 1
            x = _congruence_root(t, b, a, case) if swapped else _congruence_root(t, a, b, case)
            c0, c1, c2, c3 = cube_coeffs(a, b, _swap(x) if swapped else x)
            if (c0 - r[0]) % 3 or (c1 - r[1]) % 6 or (c2 - r[2]) % 6 or (c3 - r[3]) % 6:
                bad_roots.append(r)
        if case is Case.CASE3:
            continue
        u, v = _pair(t, case)
        if case is Case.CASE1:
            u_set, v_set = S, S
        elif t[2] % 3 == 0:
            u_set, v_set = T2, T2
        elif t[3] % 3 == 0:
            u_set, v_set = T3, T3
        else:
            u_set, v_set = T2, T3
        if not (
            u in u_set
            and v in v_set
            and (u[0] + v[0] - t[0]) % 3 == 0
            and (u[1] + v[1] - t[1]) % 6 == 0
            and (u[2] + v[2] - t[2]) % 6 == 0
            and (u[3] + v[3] - t[3]) % 6 == 0
        ):
            bad_pairs.append(r)
    return LemmaReport(
        tag,
        checked,
        tuple(ResidueClass(*r, a6, b6) for r in bad_roots + bad_pairs),
        0 if case is Case.CASE3 else len(classes),
    )


def _verified(a: int, b: int, target: Coeffs, roots, case: Case) -> bool:
    # the exact check: root count within the case bound, cubes sum to target
    return len(roots) <= (5 if case is Case.CASE3 else 6) and cube_sum(a, b, roots) == target


def _shown(c: Coeffs) -> str:
    """c as text for a message, or "the target" when a coefficient has
    more digits than ``sys.get_int_max_str_digits()`` allows to print."""
    try:
        return coeffs_text(c)
    except ValueError:
        return "the target"


def decompose(alpha: Quaternion) -> Decomposition:
    """Write alpha as a sum of cubes: at most 6 in cases 1/2, 5 in case 3.

    Raises :class:`NotRepresentable` when alpha lies outside the cube
    subgroup (possible only when 3 divides both a and b).  The roots'
    cubes are summed and compared with alpha exactly before anything is
    returned; :class:`VerificationFailed` is raised if they differ.
    Already-reduced targets get 4 roots.  ``root_coeffs`` of the result
    holds the roots as coefficient tuples.
    """
    params, c = alpha.params, alpha.coefficients()
    a, b = params.a, params.b
    tag = classify_case(params)
    case = tag.case
    if not _in_cube_subgroup(case, c):
        raise NotRepresentable(f"{_shown(c)} is not in the cube subgroup of ({a},{b})")
    if tag.swapped:
        roots = [_swap(r) for r in _roots(_swap(c), b, a, case)]
    else:
        roots = _roots(c, a, b, case)
    if not _verified(a, b, c, roots, case):
        raise VerificationFailed(f"the root cubes do not sum to {_shown(c)} in ({a},{b})")
    return _fill(object.__new__(Decomposition), alpha, tuple(roots), tag, None)


def verify(dec: Decomposition) -> bool:
    """Exact check: the cubes of the roots sum to the target and the root
    count respects the case bound (6 for cases 1/2, 5 for case 3)."""
    params = dec.target.params
    # roots stored as tuples belong to the target's ring, and their case is
    # the ring's, by construction; roots a caller passed in are checked
    if dec._roots is not None and (
        any(r.params is not params and r.params != params for r in dec._roots)
        or dec.case != classify_case(params)
    ):
        return False
    return _verified(params.a, params.b, dec.target.coefficients(), dec.root_coeffs, dec.case.case)
