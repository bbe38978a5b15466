"""The residue engine: cube signatures mod 9 and the modular enumerators.

The enumerators are deliberately independent of the constructive
decomposition pipeline, so the two can certify each other:
:func:`three_cube_residues_mod9` and :func:`two_cube_obstruction` are
the modular enumerators proving the two non-representability witnesses.

A cube's signature is its coefficients mod 9, and its parity pattern its
coefficients mod 2.  S_k, the sums of k cube signatures, comes from one
routine, :func:`_sums`, on sets of signatures held as 6,561-bit ints (see
:class:`_Mod9Tables`), and the search starts level k only when its
target's signature is in S_k.  The box's cubes are closed under negation
and under the real flip (c0, c') -> (-c0, c'), so the box stores one set
of pure parts per class (±s0, ±s') of signatures, under the signature
that :func:`_stored_class` names.
"""

from __future__ import annotations

import functools
from array import array
from itertools import product

from .errors import MixedRings
from .quat import Coeffs, Quaternion, RingParams, cube_coeffs


def _sig(c: Coeffs) -> Coeffs:
    return (c[0] % 9, c[1] % 9, c[2] % 9, c[3] % 9)


def _parity(c: Coeffs) -> int:
    """The parity pattern of c as a 4-bit int, c0 in the high bit."""
    return (c[0] & 1) << 3 | (c[1] & 1) << 2 | (c[2] & 1) << 1 | c[3] & 1


def _neg9(s: Coeffs) -> Coeffs:
    """The signature mod 9 of the negated coefficients."""
    return (-s[0] % 9, -s[1] % 9, -s[2] % 9, -s[3] % 9)


@functools.cache
def _digit_diff() -> bytes:
    """Byte ``81*x + y``: x's two base-9 digits minus y's, each mod 9."""
    return bytes((x // 9 - y // 9) % 9 * 9 + (x - y) % 9 for x in range(81) for y in range(81))


def _code(s: Coeffs) -> int:
    """Signature s as a base-9 number: its bit in a signature set."""
    return ((s[0] * 9 + s[1]) * 9 + s[2]) * 9 + s[3]


@functools.cache
def _digit_masks(w: int, r: int) -> tuple[int, int]:
    """Members of a signature set whose digit of weight w is below 9 - r, and the rest."""
    full = (1 << 6561) - 1
    # full // (2**(9w) - 1) has a bit at each multiple of 9w
    low = ((1 << (9 - r) * w) - 1) * (full // ((1 << 9 * w) - 1))
    return low, full ^ low


def _sums(bits: int, sigs) -> int:
    """The set of u + s, u in signature set ``bits`` and s in sigs: shifts of base-9 digits."""
    out = 0
    for s in sigs:
        x = bits
        for w, r in zip((729, 81, 9, 1), s):
            low, high = _digit_masks(w, r)
            x = (x & low) << r * w | (x & high) >> (9 - r) * w
        out |= x
    return out


class _Mod9Tables:
    """Attainable mod-9 coefficient patterns of cubes in one ring.

    Depends only on (a mod 9, b mod 9).  Root classes mod 9 are numbered
    in product order, so class (r0, r1, r2, r3) is
    ``729*r0 + 81*r1 + 9*r2 + r3``.  ``root_classes[s]`` lists the
    classes whose cube has signature s, ``single`` holds the cube
    signatures, ``by_code[9*s0 + s1][9*s2 + s3]`` is the signature s, and
    ``stored[s]`` is :func:`_stored_class` (s), read by every search of
    the ring in place of calling it.
    A set of signatures is a 6,561-bit int with bit :func:`_code` (s) for
    s.  S_k, the set of sums of k cube signatures, is :func:`_sums` of
    S_(k-1) and the cube signatures (:meth:`sums`): S_1 is the singles
    set and S_2 the pair set.  The sets from S_2 on are built on first
    use, since ``two_cube_obstruction`` needs none.  Instances are shared
    between searches and threads through ``_MOD9_CACHE``, so they hold
    nothing per target, and the lazy sets are assigned only once complete.
    """

    __slots__ = ("root_classes", "single", "by_code", "stored", "_sets")

    def __init__(self, a9: int, b9: int) -> None:
        sigs = [_sig(cube_coeffs(a9, b9, r)) for r in product(range(9), repeat=4)]
        self.root_classes: dict[Coeffs, array] = {s: array("H") for s in dict.fromkeys(sigs)}
        for n, s in enumerate(sigs):
            self.root_classes[s].append(n)
        self.single = frozenset(self.root_classes)
        self.by_code: dict[int, dict[int, Coeffs]] = {}
        self.stored = {s: _stored_class(s) for s in self.single}
        for s in self.single:
            self.by_code.setdefault(s[0] * 9 + s[1], {})[s[2] * 9 + s[3]] = s
        # (S_1, ..., S_k) for the greatest k asked for so far
        self._sets = (sum(1 << _code(s) for s in self.single),)

    def sums(self, k: int) -> int:
        """S_k as a signature set, built on first use from S_(k-1).

        Cube signatures are closed under negation, as (-x)**3 == -(x**3),
        so every S_k is too.
        """
        sets = self._sets
        while len(sets) < k:
            sets = self._sets = (*sets, _sums(sets[-1], self.single))
        return sets[k - 1]

    def attains(self, sig: Coeffs, k: int) -> bool:
        """Whether sig is in S_k: no sum of k cubes has another signature."""
        return self.sums(k) >> _code(sig) & 1 == 1


_MOD9_CACHE: dict[tuple[int, int], _Mod9Tables] = {}


def _mod9_tables(params: RingParams) -> _Mod9Tables:
    key = (params.a % 9, params.b % 9)
    tabs = _MOD9_CACHE.get(key)
    if tabs is None:
        tabs = _MOD9_CACHE[key] = _Mod9Tables(*key)
    return tabs


def _stored_class(sig: Coeffs) -> tuple[Coeffs, int]:
    """The signature whose groups hold the pure parts of sig's cubes, the
    least of (±s0, ±(s1, s2, s3)), and the sign (1 or -1) that turns its
    pure parts into those of sig (see :class:`_SearchSpace`)."""
    neg = _neg9(sig)
    pure, sign = (sig[1:], 1) if sig[1:] <= neg[1:] else (neg[1:], -1)
    return (min(sig[0], neg[0]), *pure), sign


def three_cube_residues_mod9() -> set[int]:
    """Residues mod 9 attainable by x**3 + y**3 + z**3 over the integers.

    Enumerates all 9**3 triples; the result is {0,1,2,3,6,7,8}, so 4 and
    5 are unattainable.  Any quaternion whose ring has both a and b
    divisible by 3 has cube real parts congruent to integer cubes mod 9,
    which is why the scalar 4 needs a fourth cube there.
    """
    out = set()
    for x in range(9):
        for y in range(9):
            for z in range(9):
                out.add((x**3 + y**3 + z**3) % 9)
    return out


def two_cube_obstruction(params: RingParams, target: Quaternion) -> bool:
    """True iff the coefficient system for target = x**3 + y**3 is unsolvable
    with the real equation taken mod 9 and the pure equations mod 3.

    A True answer is a rigorous proof that target is not a sum of two
    cubes in the ring; False only means the congruences are satisfiable.
    The enumeration covers all 9**8 residue tuples by meeting the two
    halves in the middle: each half contributes one of at most 9 * 27
    patterns (real mod 9, pures mod 3), the ring's cube signatures mod 9
    (``_Mod9Tables.single``) with the pure parts reduced mod 3.
    """
    if target.params != params:
        raise MixedRings("target must belong to the ring under test")
    patterns = {(s[0], s[1] % 3, s[2] % 3, s[3] % 3) for s in _mod9_tables(params).single}
    g0 = target.c0 % 9
    g1, g2, g3 = (c % 3 for c in target.imaginary())
    for r, p1, p2, p3 in patterns:
        if ((g0 - r) % 9, (g1 - p1) % 3, (g2 - p2) % 3, (g3 - p3) % 3) in patterns:
            return False
    return True
