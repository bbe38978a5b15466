"""Bounded search and exhaustive modular verification oracles.

The search and the enumerators are deliberately independent of the
constructive decomposition pipeline, so the two can certify each other;
the lemma check runs the decomposer's own tuple helpers, so it
certifies the code that ``decompose`` runs:

* :func:`min_cubes_search` -- box-bounded minimal-representation search
  by meet-in-the-middle over groups of single cubes;
* :func:`three_cube_residues_mod9` / :func:`two_cube_obstruction` --
  modular enumerators proving the two non-representability witnesses;
* :func:`lemma_residue_check` -- exhaustive certification of the
  congruence recipes and pair tables over whole residue classes.

Each cube of the box is packed into one int, exactly, and the packed cubes
are grouped by their mod-9 signature and, within it, by their parity
pattern (coefficients mod 2); only one signature of each ± pair is stored,
and a signature's groups are built the first time a search meets it (see
:class:`_SearchSpace`).  S_k, the sums of k cube signatures, comes from
one routine, :func:`_sums`, on sets of signatures held as 6,561-bit ints
(see :class:`_Mod9Tables`).  One recursion, :func:`_scan`, searches each
number of cubes k, and level k starts only when its target's signature
is in S_k.  One cube is a lookup; two cubes meet a target ``T`` by set
intersection: for each pair of groups whose signatures sum to the
target's signature and whose parities XOR to the target's parity,
``big.keys() & {±T ∓ h for h in small}`` runs in C.  k >= 3 cubes scan
the outer root in lexicographic order, keep the roots that leave a
remainder in S_(k-1), and search it at level k - 1.  With N workers,
the search's process and N - 1 helper ones take the 3-cube level's
``(w0, w1)`` cells of the outer box in turn, and the least cell that
hits gives the witness.  A signed permutation of the pure coefficients
that keeps the weights (a, b, ab) of the norm form commutes with cubing,
so one that also fixes the target maps witnesses to witnesses, and the
least witness's outer root is the least of its orbit: the scans visit
only those (:meth:`_SearchSpace.outer_roots`).  That symmetry and the
mod-9 and mod-2 patterns of cubes (and the sets S_k) prune only regions
proven to hold no least witness, so results are identical with and
without them, and parallel runs return exactly what a serial run returns.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations, product

from .decompose import _congruence_root, _pair, _swap
# cube_root_congruence, select_pair, cube and swap_iso are not called
# here: perfbench/tracing.py wraps them under these names
from .decompose import cube_root_congruence, select_pair  # noqa: F401
from .errors import InvalidResidues, MixedRings, QuatcubeError
from .quat import Coeffs, Quaternion, RingParams, cube_coeffs
from .quat import cube, swap_iso  # noqa: F401
from .residues import (
    Case,
    CaseTag,
    ResidueClass,
    classify_case,
    in_S,
    in_T2,
    in_T3,
)


@dataclass(frozen=True)
class SearchConfig:
    """Box bounds for minimal-representation search.

    Each root coefficient ranges over [-coeff_bound, coeff_bound]; for
    searches with 3 or 4 cubes the outermost root(s) use the (usually
    smaller) outer_bound box, defaulting to coeff_bound.  Absence within
    a box is never a proof of non-representability.

    The 3-cube stage makes at most one two-cube meet per outer root it
    scans, and the 4-cube stage one per pair of outer roots; a stage
    whose target is ruled out by its signature mod 9 scans none.  Of the
    n**4 roots of the outer box, n = 2*outer + 1, a scan takes n times
    the number of orbits of pure parts under the symmetries of its
    target or remainder (see :meth:`_SearchSpace.outer_roots`); for 3+3i
    in ring (1, 1) at outer 6 that is 13 * 13 * 28 of the 13**4.
    """

    max_cubes: int
    coeff_bound: int = 10
    outer_bound: int | None = None

    def __post_init__(self) -> None:
        for v in (self.max_cubes, self.coeff_bound, self.outer):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"search bounds must be ints, got {v!r}")
        if not 1 <= self.max_cubes <= 4:
            raise ValueError(f"max_cubes must be in 1..4, got {self.max_cubes}")
        if self.coeff_bound < 0:
            raise ValueError(f"coeff_bound must be non-negative, got {self.coeff_bound}")
        if self.outer_bound is not None and self.outer_bound < 0:
            raise ValueError(f"outer_bound must be non-negative, got {self.outer_bound}")

    @property
    def outer(self) -> int:
        return self.coeff_bound if self.outer_bound is None else self.outer_bound


@dataclass(frozen=True)
class LemmaReport:
    """Result of certifying the recipes of one (a mod 6, b mod 6) pair.

    ``classes_checked`` counts the recipe classes whose congruence root
    was checked, ``pair_targets_checked`` the target classes whose pair
    was checked (0 in case 3), and ``failures`` holds the classes that
    failed, recipe classes first.  A ``ResidueClass`` is built only for
    a failure.
    """

    case: CaseTag
    classes_checked: int
    failures: tuple[ResidueClass, ...]
    pair_targets_checked: int

    @property
    def passed(self) -> bool:
        return not self.failures


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
    ``729*r0 + 81*r1 + 9*r2 + r3``.  ``cube_sig`` lists each class's cube
    signature, ``root_classes`` inverts it, ``single`` holds the cube
    signatures, and ``by_code[9*s0 + s1][9*s2 + s3]`` is the signature s.
    A set of signatures is a 6,561-bit int with bit :func:`_code` (s) for
    s.  S_k, the set of sums of k cube signatures, is :func:`_sums` of
    S_(k-1) and the cube signatures (:meth:`sums`): S_1 is the singles
    set and S_2 the pair set.  The sets from S_2 on are built on first
    use, since ``two_cube_obstruction`` needs none.  Instances are shared
    between searches and threads through ``_MOD9_CACHE``, so they hold
    nothing per target, and the lazy sets are assigned only once complete.
    """

    __slots__ = ("cube_sig", "root_classes", "single", "by_code", "_sets", "_class_codes")

    def __init__(self, a9: int, b9: int) -> None:
        sigs = [_sig(cube_coeffs(a9, b9, r)) for r in product(range(9), repeat=4)]
        self.cube_sig: list[Coeffs] = sigs
        self.root_classes: dict[Coeffs, list[int]] = {}
        for n, cs in enumerate(sigs):
            self.root_classes.setdefault(cs, []).append(n)
        self.single = frozenset(self.root_classes)
        self.by_code: dict[int, dict[int, Coeffs]] = {}
        code = {}
        for s in self.single:
            self.by_code.setdefault(s[0] * 9 + s[1], {})[s[2] * 9 + s[3]] = s
            code[s] = _code(s)
        # (S_1, ..., S_k) for the greatest k asked for so far
        self._sets = (sum(1 << n for n in code.values()),)
        # each class's cube's code, read from a text indexed by code
        self._class_codes = operator.itemgetter(*map(code.__getitem__, sigs))

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

    def first_root_classes(self, target_sig: Coeffs, k: int) -> bytes:
        """A mask by root class number mod 9 for a scan of k >= 2 cubes:
        byte n is 1 when class n's cube leaves a remainder in S_(k-1),
        else 0.

        Empty (falsy) exactly when no class passes, that is when
        target_sig is not in S_k, which rules out every k-cube
        representation of the target.  Otherwise it holds one byte per
        class, 6,561 in all.  Each search memoises its own.
        """
        # S_(k-1) is closed under negation: t - S_(k-1) == t + S_(k-1)
        ok = _sums(self.sums(k - 1), (target_sig,))
        if not ok & self.sums(1):
            return b""
        text = format(ok, "06561b")[::-1].encode()  # b"0" or b"1" at each code
        return bytes(self._class_codes(text.translate(bytes.maketrans(b"01", b"\0\1"))))


_MOD9_CACHE: dict[tuple[int, int], _Mod9Tables] = {}


def _mod9_tables(params: RingParams) -> _Mod9Tables:
    key = (params.a % 9, params.b % 9)
    tabs = _MOD9_CACHE.get(key)
    if tabs is None:
        tabs = _MOD9_CACHE[key] = _Mod9Tables(*key)
    return tabs


# the packed cubes of one mod-9 signature by parity pattern, each cube
# mapped to the box index of its least root
_ParityGroups = dict[int, dict[int, int]]

# one side of a two-cube meet: a stored group and the sign (1 or -1) its
# cubes take there
_Side = tuple[dict[int, int], int]

# two signatures' stored groups with their signs, and whether the two
# signatures are one
_SigPair = tuple[_ParityGroups, int, _ParityGroups, int, bool]

# the pure parts (w1, w2, w3) of a scan's outer roots: each w1's rows
# (w2, the w3 values), all in increasing order
_OuterRows = dict[int, list[tuple[int, list[int]]]]


class _SearchSpace:
    """Cube groups for one (ring, coeff_bound) box, built one ± pair of
    mod-9 signatures at a time, the first time a search meets it.

    A cube (c0, c1, c2, c3) is stored as the int
    ``((c0*R + c1)*R + c2)*R + c3`` in radix ``R = 4*M + 1``, where M
    bounds every cube coefficient in the box.  Packing is linear, so
    ``pack(t) - pack(c) == pack(t - c)`` and ``pack(-c) == -pack(c)``,
    and two tuples whose coefficients differ by less than R pack equal
    only when they are equal.  A target with a coefficient beyond 2*M is
    no sum of two box cubes and is never packed.  For any other target t
    and box cubes c and g, t - c and g differ by at most 4*M per
    coefficient, so ``pack(t) - pack(c) == pack(g)`` only when
    t - c == g: no lookup can hit by accident.

    Roots are identified by their index in lexicographic order of the
    box, so comparing indices compares roots.  The box is symmetric and
    (-x)**3 == -(x**3), so the cubes of signature -s are the negated
    cubes of signature s, with the same parity patterns, and the root
    -x has index ``last - idx(x)``.  Only the canonical signature of each
    ± pair, the lesser of s and -s, is stored (257 of the 513 signatures
    in ring (1, 1); (0, 0, 0, 0) pairs with itself).  :meth:`groups`
    maps each packed cube of a canonical signature, split by parity
    pattern, to the index of its least root.  A cube's signature follows
    from any of its roots' classes mod 9, so all its roots lie in the
    root classes that ``_Mod9Tables.root_classes`` lists for that
    signature, and the signature's groups alone decide its least root.

    The least root of -c is the negated greatest root of c, which for a
    cube with several roots is not the negated least root: in ring
    (3, 1), (-80, 72, 0, 0) has the roots (-5, 1, 0, 0), (1, -3, 0, 0)
    and (4, 2, 0, 0).  So ``_greatest`` maps each stored cube with
    several roots to its greatest root's index, and :meth:`least`
    reads a negated cube's least root from it in one lookup.  No memo
    keeps each meet's group pairs: at bound 10 one took 4.5 of 15 MB.
    """

    def __init__(self, params: RingParams, bound: int) -> None:
        self.params = params
        self.bound = bound
        a, b = params.a, params.b
        # |c0| <= B*(B^2 + 3p) and |ci| <= B*(3B^2 + p), with p <= (a+b+ab)B^2
        self.max_coeff = bound**3 * (1 + 3 * (a + b + a * b))
        self.radix = 4 * self.max_coeff + 1
        # the greatest root's index; the root -x has index last - idx(x)
        self.last = (2 * bound + 1) ** 4 - 1
        # the table keeps no (root, cube) list; perfbench/tracing.py reads this
        self._entries = None
        self._tabs = _mod9_tables(params)
        self._tails: tuple | None = None
        self._groups: dict[Coeffs, _ParityGroups] = {}
        self._greatest: dict[int, int] = {}
        self._sig_pair_memo: dict[Coeffs, list[_SigPair]] = {}
        self._first_ok_memo: dict[tuple[Coeffs, int], bytes] = {}
        # the signed permutations of (c1, c2, c3) that keep the weights
        # (a, b, ab) of P, each as (p0, p1, p2, s0, s1, s2): it sends the
        # pure part v to (s0*v[p0], s1*v[p1], s2*v[p2])
        weights = (a, b, a * b)
        self._moves = [
            (*p, *signs)
            for p in permutations(range(3))
            if all(weights[i] == weights[p[i]] for i in range(3))
            for signs in product((1, -1), repeat=3)
        ]
        self._outer_memo: dict[tuple, _OuterRows] = {}
        self._orbit_memo: dict[tuple, _OuterRows] = {}

    def pack(self, t: Coeffs) -> int | None:
        """The packed form of t, or None when a coefficient exceeds 2*M."""
        m = 2 * self.max_coeff
        if not (-m <= t[0] <= m and -m <= t[1] <= m and -m <= t[2] <= m and -m <= t[3] <= m):
            return None
        r = self.radix
        return ((t[0] * r + t[1]) * r + t[2]) * r + t[3]

    def root(self, idx: int) -> Coeffs:
        """The root at lexicographic index idx of the box."""
        n, b = 2 * self.bound + 1, self.bound
        idx, x3 = divmod(idx, n)
        idx, x2 = divmod(idx, n)
        x0, x1 = divmod(idx, n)
        return (x0 - b, x1 - b, x2 - b, x3 - b)

    def least(self, group: dict[int, int], key: int, sign: int) -> int:
        """Index of the least root of the cube ``sign * key``, for a key of
        a stored group."""
        idx = group[key]
        return idx if sign > 0 else self.last - self._greatest.get(key, idx)

    def _tail_table(self) -> tuple:
        """Per tail (x1, x2, x3) of the box, indexed in box order: the norm
        part p, the packed (x1, x2, x3) and the tail's parity; then the
        tails of each class mod 9, and the cube parity of each root parity
        (see :func:`_parity`)."""
        if self._tails is None:
            a, b, r = self.params.a, self.params.b, self.radix
            rng = range(-self.bound, self.bound + 1)
            tails = []
            by_class: list[list[int]] = [[] for _ in range(729)]
            for n, (x1, x2, x3) in enumerate(product(rng, repeat=3)):
                p = a * x1 * x1 + b * x2 * x2 + a * b * x3 * x3
                tails.append((p, (x1 * r + x2) * r + x3, (x1 & 1) << 2 | (x2 & 1) << 1 | x3 & 1))
                by_class[(x1 % 9 * 9 + x2 % 9) * 9 + x3 % 9].append(n)
            cube_par = [_parity(cube_coeffs(a & 1, b & 1, x)) for x in product((0, 1), repeat=4)]
            self._tails = (tails, by_class, cube_par)
        return self._tails

    def groups(self, sig: Coeffs) -> _ParityGroups:
        """The packed cubes of signature sig, by parity pattern, each mapped
        to the index of its least root; built on first use.  The build also
        records in ``_greatest`` the greatest root of each cube that has
        several.  A search asks only for canonical signatures (see
        :meth:`signed_groups`)."""
        got = self._groups.get(sig)
        if got is not None:
            return got
        tails, by_class, cube_par = self._tail_table()
        # the signature's tails in box order, by x0 mod 9
        rows: dict[int, list[int]] = {}
        for n in self._tabs.root_classes.get(sig, ()):
            r0, c = divmod(n, 729)
            rows.setdefault(r0, []).extend(by_class[c])
        for row in rows.values():
            row.sort()
        by_par: _ParityGroups = {p: {} for p in cube_par}
        # the group of a root, indexed by x0's parity, then by the tail's
        slots = [[by_par[p] for p in cube_par[:8]], [by_par[p] for p in cube_par[8:]]]
        r3, span = self.radix**3, len(tails)
        for i, x0 in enumerate(range(-self.bound, self.bound + 1)):
            row = rows.get(x0 % 9)
            if row is None:
                continue
            sq, hi, base, slot = x0 * x0, x0 * r3, i * span, slots[x0 & 1]
            # the cube of x packs to (x0^2 - 3p)x0 R^3 + (3x0^2 - p) low; in
            # box order the first root met is a cube's least, the last its
            # greatest
            for n in row:
                p, low, par = tails[n]
                key, idx = (sq - 3 * p) * hi + (3 * sq - p) * low, base + n
                if slot[par].setdefault(key, idx) != idx:
                    self._greatest[key] = idx
        got = self._groups[sig] = {p: group for p, group in by_par.items() if group}
        return got

    def signed_groups(self, sig: Coeffs) -> tuple[_ParityGroups, int]:
        """The stored groups of sig's ± pair, and the sign (1 or -1) that
        turns their cubes into the cubes of sig."""
        neg = _neg9(sig)
        return (self.groups(sig), 1) if sig <= neg else (self.groups(neg), -1)

    def by_class(self) -> dict[Coeffs, _ParityGroups]:
        """Every signature's groups, laid out as :meth:`groups` lays out a
        canonical one, the negated signatures spelled out: a whole-box view
        that no search needs."""
        out = {}
        for s in sorted(self._tabs.single):
            groups, sign = self.signed_groups(s)
            if sign < 0:
                groups = {
                    p: {-key: self.least(group, key, -1) for key in group}
                    for p, group in groups.items()
                }
            if groups:
                out[s] = groups
        return out

    def table(self) -> dict[int, int]:
        """Packed cube -> index of the lexicographically least root
        producing it, over the whole box: a view put together from the
        groups, which no search needs."""
        least: dict[int, int] = {}
        for groups in self.by_class().values():
            for group in groups.values():
                least.update(group)
        return least

    def _sig_pairs(self, target_sig: Coeffs) -> list[_SigPair]:
        """Signatures that sum to target_sig mod 9, each unordered pair
        once, as their stored groups with signs and whether the two
        signatures are one; only the signatures paired are built.  Each
        half of a mate's code (see ``_Mod9Tables.by_code``) is one lookup
        in :func:`_digit_diff`, and codes order as signatures do."""
        got = self._sig_pair_memo.get(target_sig)
        if got is None:
            diff, by_code = _digit_diff(), self._tabs.by_code
            t0, t1, t2, t3 = target_sig
            hi, lo = (t0 * 9 + t1) * 81, (t2 * 9 + t3) * 81
            got = []
            for h, row in by_code.items():
                mh = diff[hi + h]
                if h > mh or (mate_row := by_code.get(mh)) is None:
                    continue
                for l, s in row.items():
                    ml = diff[lo + l]
                    if ml in mate_row and (h < mh or l <= ml):
                        groups, sign = self.signed_groups(s)
                        mates, mate_sign = self.signed_groups(mate_row[ml])
                        if groups and mates:
                            got.append((groups, sign, mates, mate_sign, h == mh and l == ml))
            self._sig_pair_memo[target_sig] = got
        return got

    def first_root_classes(self, target_sig: Coeffs, k: int) -> bytes:
        """``_Mod9Tables.first_root_classes``, memoised for this search."""
        got = self._first_ok_memo.get((target_sig, k))
        if got is None:
            got = self._tabs.first_root_classes(target_sig, k)
            self._first_ok_memo[target_sig, k] = got
        return got

    def outer_roots(self, t: Coeffs, outer: int) -> _OuterRows:
        """The pure parts (w1, w2, w3) of the outer roots in the box of
        ``outer`` that a scan for t visits: those least in their orbit
        under G_t, the signed permutations of (c1, c2, c3) that keep the
        weights (a, b, ab) of P = a*c1**2 + b*c2**2 + ab*c3**2 and fix t's
        pure part.  Memoised per stabiliser G_t and outer.

        Such a map g is linear and keeps P, so it commutes with cubing:
        the cube of x0 + v, v pure, is a real part that depends on v only
        through P, plus ``(3*x0**2 - P) * v`` (see ``cube_coeffs``).  It
        maps each box onto itself and fixes t, so applying g to every root
        of a witness gives a witness.  The outer roots that start a
        witness are thus closed under G_t (g keeps w0), and the least of
        them is the least of its orbit.  A scan takes the least such root
        and the least completion of its remainder, so it finds the same
        witness on the orbits' least roots alone.

        G_t holds the sign flips of the coefficients where t is 0, and
        the swaps of two coefficients with equal weights that fix t up to
        sign, such as the j, k swap for 3+3i in ring (1, 1).
        """
        _, u1, u2, u3 = t
        # which coefficients are 0 and which pairs equal or opposite decide G_t
        key = (outer, u1 == 0, u2 == 0, u3 == 0)
        key += (u1 == u2, u1 == -u2, u1 == u3, u1 == -u3, u2 == u3, u2 == -u3)
        got = self._outer_memo.get(key)
        if got is None:
            u = t[1:]
            group = tuple(
                m for m in self._moves if (m[3] * u[m[0]], m[4] * u[m[1]], m[5] * u[m[2]]) == u
            )
            got = self._orbit_memo.get((group, outer))
            if got is None:
                got = self._orbit_memo[group, outer] = _orbit_least(group, outer)
            self._outer_memo[key] = got
        return got

    def pair_sets(self, target_sig: Coeffs, target_par: int) -> Iterator[tuple[_Side, _Side]]:
        """(smaller, larger) groups with their signs, whose signatures sum
        to target_sig mod 9 and whose parities XOR to target_par, each
        unordered pair once; generated afresh for each meet."""
        for groups, sign, mates, mate_sign, same in self._sig_pairs(target_sig):
            for p, group in groups.items():
                q = p ^ target_par
                mate = mates.get(q)
                # a signature paired with itself meets (p, q) and (q, p) alike: keep one
                if mate is not None and (not same or p <= q):
                    one, other = (group, sign), (mate, mate_sign)
                    yield (one, other) if len(group) <= len(mate) else (other, one)


def _scan_two(space: _SearchSpace, t: Coeffs) -> tuple[Coeffs, Coeffs] | None:
    """Least (x, y) with x**3 + y**3 = t, both in the coeff box.

    Only groups that can sum to t are met: their signatures sum to t's
    mod 9 and their parities XOR to t's.  A side's cubes are its stored
    keys times its sign, so with T the packed target the cubes
    ``u * h`` of big and ``v * g`` of small sum to T exactly when
    ``h == u*T - (u*v) * g``: one intersection in C per group pair, of
    ``big`` with ``u*T - small`` or ``u*T + small``.  Each hit gives both
    halves' least roots (:meth:`_SearchSpace.least`).  Every solution
    shows up as such a hit, so x is the least root of either half of
    any hit, and y the least root of the other half.  That is the pair a
    full lexicographic scan would find.
    """
    sig = _sig(t)
    if not space._tabs.attains(sig, 2):
        return None
    packed = space.pack(t)
    if packed is None:
        return None
    least = space.least
    hits = []
    for (small, v), (big, u) in space.pair_sets(sig, _parity(t)):
        ut = u * packed
        for h in big.keys() & map(ut.__sub__ if u == v else ut.__add__, small):
            hits.append((least(big, h, u), least(small, v * (packed - u * h), v)))
    if not hits:
        return None
    x, y = min((i, j) if i < j else (j, i) for i, j in hits)
    return space.root(x), space.root(y)


def _sub4(t: Coeffs, c: Coeffs) -> Coeffs:
    return (t[0] - c[0], t[1] - c[1], t[2] - c[2], t[3] - c[3])


def _orbit_least(group: tuple, outer: int) -> _OuterRows:
    """The pure parts in [-outer, outer]**3 that are least in their orbit
    under group (see :meth:`_SearchSpace.outer_roots`), as rows."""
    identity = (0, 1, 2)
    # the sign flips in group are those of some set of coefficients, and
    # v is least under them exactly when it is not positive in that set
    flips = {i for m in group if m[:3] == identity for i in range(3) if m[3 + i] < 0}
    spans = [range(-outer, 1 if i in flips else outer + 1) for i in range(3)]
    swaps = [m for m in group if m[:3] != identity]
    table: dict[int, dict[int, list[int]]] = {}
    for v in product(*spans):
        for p0, p1, p2, s0, s1, s2 in swaps:
            if (s0 * v[p0], s1 * v[p1], s2 * v[p2]) < v:
                break
        else:
            table.setdefault(v[0], {}).setdefault(v[1], []).append(v[2])
    return {w1: list(rows.items()) for w1, rows in table.items()}


def _scan(space: _SearchSpace, t: Coeffs, k: int, outer: int) -> tuple[Coeffs, ...] | None:
    """Least witness of t as a sum of exactly k cubes, or None.

    Level k runs only when t's signature is in S_k (see
    :meth:`_Mod9Tables.sums`).  One cube is one lookup, and two are met in
    the middle (:func:`_scan_two`).  For k >= 3 the first root runs over
    the outer box's orbit-least roots (:meth:`_SearchSpace.outer_roots`)
    whose class passes the mask ``first_root_classes(sig, k)``, so that
    the remainder is in S_(k-1); the mask is empty exactly when the
    signature is not in S_k.  The least (k-1)-cube witness of the
    remainder completes it.
    """
    sig = _sig(t)
    if k == 1:
        packed = space.pack(t)
        if packed is None or not space._tabs.attains(sig, 1):
            return None
        groups, sign = space.signed_groups(sig)
        group, key = groups.get(_parity(t), {}), sign * packed
        return (space.root(space.least(group, key, sign)),) if key in group else None
    if k == 2:
        return _scan_two(space, t)  # which tests S_2 itself
    first_ok = space.first_root_classes(sig, k)
    if not first_ok:
        return None
    return _scan_three_range(space, k, t, outer, first_ok, range(-outer, outer + 1))


def _scan_cell(
    space: _SearchSpace,
    k: int,
    t: Coeffs,
    outer: int,
    first_ok: bytes,
    w0: int,
    w1: int,
    stop=None,
) -> tuple[Coeffs, ...] | None:
    """Least k-cube witness whose first root starts with (w0, w1).

    ``stop``, when given, is called before each w2 row; once it returns
    true the cell's result is no longer wanted and None comes back.
    """
    a, b = space.params.a, space.params.b
    cell_class = w0 % 9 * 729 + w1 % 9 * 81
    for w2, w3_values in space.outer_roots(t, outer)[w1]:
        if stop is not None and stop():
            return None
        row_class = cell_class + w2 % 9 * 9
        for w3 in w3_values:
            if not first_ok[row_class + w3 % 9]:
                continue
            w = (w0, w1, w2, w3)
            res = _scan(space, _sub4(t, cube_coeffs(a, b, w)), k - 1, outer)
            if res is not None:
                return (w, *res)
    return None


# named for the 3-cube scan it began as: perfbench/tracing.py wraps it by
# this name and forwards its six arguments
def _scan_three_range(
    space: _SearchSpace,
    k: int,
    t: Coeffs,
    outer: int,
    first_ok: bytes,
    w0_values,
) -> tuple[Coeffs, ...] | None:
    """Least k-cube witness whose first root starts with one of w0_values,
    taken in order."""
    for w0 in w0_values:
        for w1 in space.outer_roots(t, outer):
            res = _scan_cell(space, k, t, outer, first_ok, w0, w1)
            if res is not None:
                return res
    return None


def _three_cube_cells(space: _SearchSpace, outer: int, t: Coeffs) -> list[tuple[int, int]]:
    """The (w0, w1) cells of a parallel 3-cube scan, in lexicographic order."""
    w1_values = space.outer_roots(t, outer)
    return [(w0, w1) for w0 in range(-outer, outer + 1) for w1 in w1_values]


def _clamp_workers(requested: int, chunks: int) -> int:
    """Processes worth starting for ``requested`` workers over ``chunks``
    chunks: never more than the chunks or the CPUs this process may run
    on (its affinity set, where the platform has one), and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(requested, cpus or 1, chunks))


def _take_cells(space, t, outer, next_cell, least_hit, before_cell=lambda: None):
    """Scan the 3-cube cells numbered by the shared counter ``next_cell``
    until one hits or none is left before ``least_hit``; return
    ``(cell number, witness)`` or None, calling ``before_cell`` before
    each cell is taken.  No lock guards the two ints: a
    race may hand a cell to two processes but skips none (the first write
    past n is n + 1 from a process that read n), and may leave
    ``least_hit`` above the least hit cell, never below it."""
    first_ok = space.first_root_classes(_sig(t), 3)
    cells = _three_cube_cells(space, outer, t)
    while True:
        before_cell()
        n = next_cell.value
        next_cell.value = n + 1
        if n >= least_hit.value:
            return None
        res = _scan_cell(space, 3, t, outer, first_ok, *cells[n], lambda: least_hit.value < n)
        if res is not None:
            least_hit.value = min(n, least_hit.value)
            return n, res


def _three_cube_worker(params, bound, t, outer, next_cell, least_hit, conn) -> None:
    """A 3-cube worker process: send what :func:`_take_cells` returns."""
    conn.send(_take_cells(_SearchSpace(params, bound), t, outer, next_cell, least_hit))


@contextlib.contextmanager
def _three_cube_workers(space: _SearchSpace, cfg: SearchConfig, t: Coeffs, workers: int):
    """The cell counter, the least hit cell and the ``workers - 1``
    processes that scan the 3-cube cells beside the search's own, each
    with the read end of its one-way pipe; or None when that scan runs
    serially or the mod-9 patterns rule it out.

    The processes start before the 1- and 2-cube stages and scan at once;
    each builds the cube groups its cells meet, as a serial scan does.
    When this process has no other thread (counted by the OS, so C
    threads such as faulthandler's watchdog count too) they are forked:
    no interpreter starts, and they inherit the mod-9 tables built here.
    Otherwise, or where the threads cannot be counted, they are spawned,
    so another thread cannot leave them holding a lock, and a script
    must guard its entry point.  Either way they get only small
    arguments.  No process takes a lock another shares, so leaving the
    context can terminate them at any moment.
    """
    cells = 0
    if workers > 1 and cfg.max_cubes >= 3 and space.first_root_classes(_sig(t), 3):
        # counting the cells enumerates the outer box's orbit-least roots
        cells = len(_three_cube_cells(space, cfg.outer, t))
    workers = _clamp_workers(workers, cells)
    if workers == 1:
        yield None
        return
    import multiprocessing  # only here, so importing the package stays light

    try:
        single_thread = len(os.listdir("/proc/self/task")) == 1
    except OSError:
        single_thread = False
    ctx = multiprocessing.get_context("fork" if single_thread else "spawn")
    next_cell, least_hit = ctx.RawValue("i", 0), ctx.RawValue("i", cells)
    procs = []
    try:
        for _ in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            # the parent keeps no write end, so a dead worker's pipe reads EOF
            with writer:
                proc = ctx.Process(
                    target=_three_cube_worker,
                    args=(space.params, space.bound, t, cfg.outer, next_cell, least_hit, writer),
                    daemon=True,
                )
                proc.start()
            procs.append((proc, reader))
        yield next_cell, least_hit, procs
    finally:
        for proc, _ in procs:
            proc.terminate()
        for proc, reader in procs:
            proc.join()
            reader.close()


def _scan_three(space: _SearchSpace, t: Coeffs, outer: int, parallel) -> tuple[Coeffs, ...] | None:
    """The 3-cube level of :func:`_scan` with the workers that
    :func:`_three_cube_workers` started, which exist only when t's
    signature is in S_3."""
    from multiprocessing.connection import wait

    # This process takes cells as the workers do.  The cell holding the
    # least witness runs to its end, so the least hit cell gives the serial result.
    next_cell, least_hit, procs = parallel
    pending = {reader: proc for proc, reader in procs}
    hits = []

    def collect(timeout):
        # polled between this process's own cells: a dead worker's pipe reads EOF
        for reader in wait(list(pending), timeout):
            proc = pending.pop(reader)
            try:
                hits.append(reader.recv())
            except EOFError:
                proc.join()
                raise QuatcubeError(
                    f"a search worker process exited with code {proc.exitcode}; a script "
                    "that searches with workers > 1 must guard its entry point "
                    "with if __name__ == '__main__':"
                ) from None

    hits.append(_take_cells(space, t, outer, next_cell, least_hit, lambda: collect(0)))
    while pending:
        collect(None)
    return min(filter(None, hits), default=(None, None))[1]


def min_cubes_search(
    alpha: Quaternion, cfg: SearchConfig, workers: int = 1
) -> list[Quaternion] | None:
    """Least list of at most cfg.max_cubes roots in the box cubing to alpha.

    Tries k = 1, 2, ... in turn; within each k the returned list is the
    lexicographically least one the box contains (roots compared as
    coefficient tuples, first root most significant).  Returns None when
    no representation exists within the bounds, which proves nothing
    beyond the box.

    Two cubes are met in the middle: the box's cubes, packed into ints
    and grouped by signature mod 9 and parity, are intersected with the
    target minus each cube of a matching group.  Only one signature of
    each ± pair is stored, since the cubes of -s are the negated cubes
    of s (257 of the 513 signatures in ring (1, 1)).  A signature's groups
    are built when a search first meets it, so a two-cube search builds
    only the signatures that can sum to its target (about 50 of the 513
    in ring (1, 1)).  k >= 3 cubes scan an outer root (in the outer_bound
    box) and search the remainder with k - 1 cubes.  One rule prunes
    every level: level k runs only when its target's signature mod 9 is
    in S_k, the sums of k cube signatures.  A scan takes one outer root per
    orbit of the signed permutations of the pure coefficients that keep
    the norm form's weights (a, b, ab) and fix the target (or remainder):
    such a map sends witnesses to witnesses, so only the least root of an
    orbit can start the least witness.
    ``workers`` > 1 cuts the 3-cube scan into ``(w0, w1)`` cells of the outer
    root's first two coefficients, which this process and ``workers - 1``
    helper ones (no more than the CPUs or the cells in all) take in turn;
    every cell before the least hit runs to its end, so the result is
    identical to a serial run.  The helpers are forked when this process
    has no other thread and spawned otherwise (see
    :func:`_three_cube_workers`).  A dying helper is reported before this
    process takes its next cell; a script that calls this with ``workers``
    > 1 from a process with other threads must guard its entry point with
    ``if __name__ == "__main__":``.
    """
    params = alpha.params
    t = alpha.coefficients()
    space = _SearchSpace(params, cfg.coeff_bound)

    with _three_cube_workers(space, cfg, t, workers) as parallel:
        for k in range(1, cfg.max_cubes + 1):
            if k == 3 and parallel is not None:
                found = _scan_three(space, t, cfg.outer, parallel)
            else:
                found = _scan(space, t, k, cfg.outer)
            if found is not None:
                return [Quaternion(params, *c) for c in found]
    return None


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
        recipe = {r for r in classes if not (r[1] % 3 or r[2] % 3 or r[3] % 3)}
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
