"""Bounded search and exhaustive modular verification oracles.

The search and the enumerators are deliberately independent of the
constructive decomposition pipeline, so the two can certify each other:

* :func:`min_cubes_search` -- box-bounded minimal-representation search
  by meet-in-the-middle over groups of single cubes;
* :func:`three_cube_residues_mod9` / :func:`two_cube_obstruction` --
  modular enumerators proving the two non-representability witnesses.

The pure part of each cube of the box is packed into one int, exactly,
and the packed pure parts are grouped by the cube's mod-9 signature and,
within it, by its parity pattern (coefficients mod 2).  The box's cubes
are closed under negation and under the real flip (c0, c') -> (-c0, c'),
so one stored set serves each class (±s0, ±s') of signatures, built the
first time a search meets it from tables of O(B) entries, never one the
size of the box (see :class:`_SearchSpace`).  A pure part a search hits
gets its box roots back exactly, and a cube its least root, by inverting
the closed form of ``cube_coeffs`` (:meth:`_SearchSpace.pure_roots`,
:meth:`_SearchSpace.least_root`).
S_k, the sums of k cube signatures, comes from one routine,
:func:`_sums`, on sets of signatures held as 6,561-bit ints (see
:class:`_Mod9Tables`).  One recursion, :func:`_scan`, searches each
number of cubes k, and level k starts only when its target's signature
is in S_k.  One cube is the target's least root; two cubes meet the
packed pure part ``T`` of a target by set intersection: for each pair of
groups whose signatures sum to the target's signature and whose
parities XOR to the target's parity, ``big.keys() & {±T ∓ h for h in
small}`` runs in C.  A target whose pure part is 0, which every pure
part meets, is scanned in box order instead.  k >= 3 cubes scan
the outer root in lexicographic order, keep the roots that leave a
remainder in S_(k-1), and search it at level k - 1.  With N workers,
the search's process and N - 1 helpers, each on its own CPU, take a
3- or 4-cube stage's ``(w0, w1)`` cells of the outer box in turn, and
the least cell that hits gives the witness.  A signed permutation of
the pure coefficients that keeps the weights (a, b, ab) of the norm
form commutes with cubing, so one that also fixes the target maps
witnesses to witnesses, and the least witness's outer root is the
least of its orbit: the scans visit only those
(:meth:`_SearchSpace.outer_roots`).  That symmetry and the
mod-9 and mod-2 patterns of cubes (and the sets S_k) prune only regions
proven to hold no least witness, so results are identical with and
without them, and parallel runs return exactly what a serial run returns.
"""

from __future__ import annotations

import functools
import operator
import os
from array import array
from collections.abc import Iterator
from itertools import permutations, product, repeat
from math import gcd, isqrt

# Nothing here calls these: perfbench/workloads.py imports lemma_residue_check
# from this module, and perfbench/tracing.py wraps the rest under these names
from .decompose import (  # noqa: F401
    classify_case, cube, cube_root_congruence, in_S, in_T2, in_T3,
    lemma_residue_check, select_pair, swap_iso,
)
from .errors import MixedRings, QuatcubeError
from .quat import Coeffs, Quaternion, RingParams, _Frozen, _set, cube_coeffs


class SearchConfig(_Frozen):
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

    __slots__ = __match_args__ = ("max_cubes", "coeff_bound", "outer_bound")

    def __init__(
        self, max_cubes: int, coeff_bound: int = 10, outer_bound: int | None = None
    ) -> None:
        _set(self, "max_cubes", max_cubes)
        _set(self, "coeff_bound", coeff_bound)
        _set(self, "outer_bound", outer_bound)
        for v in (max_cubes, coeff_bound, self.outer):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"search bounds must be ints, got {v!r}")
        if not 1 <= max_cubes <= 4:
            raise ValueError(f"max_cubes must be in 1..4, got {max_cubes}")
        if coeff_bound < 0:
            raise ValueError(f"coeff_bound must be non-negative, got {coeff_bound}")
        if outer_bound is not None and outer_bound < 0:
            raise ValueError(f"outer_bound must be non-negative, got {outer_bound}")

    @property
    def outer(self) -> int:
        return self.coeff_bound if self.outer_bound is None else self.outer_bound


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

    __slots__ = ("cube_sig", "root_classes", "single", "by_code", "stored", "_sets", "_class_codes")

    def __init__(self, a9: int, b9: int) -> None:
        shared: dict[Coeffs, Coeffs] = {}  # one tuple per signature
        sigs = [_sig(cube_coeffs(a9, b9, r)) for r in product(range(9), repeat=4)]
        self.cube_sig: list[Coeffs] = [shared.setdefault(s, s) for s in sigs]
        self.root_classes: dict[Coeffs, array] = {s: array("H") for s in shared}
        for n, cs in enumerate(sigs):
            self.root_classes[cs].append(n)
        self.single = frozenset(self.root_classes)
        self.by_code: dict[int, dict[int, Coeffs]] = {}
        self.stored = {s: _stored_class(s) for s in self.single}
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


# the packed pure parts of one stored class of mod-9 signatures (see
# _SearchSpace) by parity pattern, each group a dict with None values (a
# set of ~25 keys over-allocates)
_ParityGroups = dict[int, dict[int, None]]

# one side of a two-cube meet: a stored group and the sign (1 or -1) its
# pure parts take there
_Side = tuple[dict[int, None], int]

# two stored groups with their signs, and whether the two sides are one
_SigPair = tuple[_ParityGroups, int, _ParityGroups, int, bool]

# the pure parts (w1, w2, w3) of a scan's outer roots: each w1's rows
# (w2, the w3 values), all in increasing order
_OuterRows = dict[int, list[tuple[int, list[int]]]]


def _icbrt(n: int) -> int:
    """The integer cube root of n >= 0, rounded down: Newton's method from above."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


def _stored_class(sig: Coeffs) -> tuple[Coeffs, int]:
    """The signature whose groups hold the pure parts of sig's cubes, the
    least of (±s0, ±(s1, s2, s3)), and the sign (1 or -1) that turns its
    pure parts into those of sig (see :class:`_SearchSpace`)."""
    neg = _neg9(sig)
    pure, sign = (sig[1:], 1) if sig[1:] <= neg[1:] else (neg[1:], -1)
    return (min(sig[0], neg[0]), *pure), sign


class _SearchSpace:
    """Cube groups for one (ring, coeff_bound) box, keyed by the cubes'
    pure parts and built one class of mod-9 signatures at a time, the
    first time a search meets it.

    A pure part (c1, c2, c3) is stored as the int ``(c1*R + c2)*R + c3``
    in radix ``R = 4*M + 1``, where M bounds every cube coefficient in
    the box.  Packing is linear, so ``pack(t) - pack(c) == pack(t - c)``
    and ``pack(-c) == -pack(c)``, and two tuples whose coefficients
    differ by less than R pack equal only when they are equal.  A target
    with a coefficient beyond 2*M, its real part included, is no sum of
    two box cubes and is never packed.  For any other target t and box
    cubes c and g, the pure parts of t - c and g differ by at most 4*M
    per coefficient, so ``pack(t) - pack(c) == pack(g)`` only when they
    are equal: a lookup hits only pure parts that sum to t's.

    The cube of x0 + v, v pure, is ``(x0*(x0**2 - 3P), (3*x0**2 - P)*v)``
    with P = P(v) (see ``cube_coeffs``), so the box's cubes are closed
    under negation and under the real flip (c0, c') -> (-c0, c'), which
    both keep the parity pattern.  Each class (±s0, ±s') of signatures
    thus keeps one set of pure parts, under its least signature
    (:func:`_stored_class`): 172 sets for the 513 signatures of ring
    (1, 1), 56,959 pure parts for its 194,481 box roots at bound 10.  A
    hit gets its roots back exactly (:meth:`pure_roots`,
    :meth:`least_root`).  No memo keeps each meet's group pairs: at
    bound 10 one took 4.5 of 15 MB.  Nothing here is sized by the box
    (see :meth:`groups`, :meth:`_form_roots`): tracemalloc counts about
    77 bytes per stored pure part for a whole-box build in ring (1, 1) at
    bound 10, and 71 for one class at bound 30, the build's tables included.
    """

    def __init__(self, params: RingParams, bound: int) -> None:
        self.params = params
        self.bound = bound
        a, b = params.a, params.b
        # |c0| <= B*(B^2 + 3p) and |ci| <= B*(3B^2 + p), with p <= (a+b+ab)B^2
        self.max_coeff = bound**3 * (1 + 3 * (a + b + a * b))
        self.radix = 4 * self.max_coeff + 1
        # the table keeps no (root, cube) list; perfbench/tracing.py reads this
        self._entries = None
        self._tabs = _mod9_tables(params)
        self._norms: tuple | None = None
        self._terms: tuple | None = None
        self._groups: dict[Coeffs, _ParityGroups] = {}
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
        """The packed pure part of t, or None when a coefficient of t
        exceeds 2*M."""
        m = 2 * self.max_coeff
        if not (-m <= t[0] <= m and -m <= t[1] <= m and -m <= t[2] <= m and -m <= t[3] <= m):
            return None
        r = self.radix
        return (t[1] * r + t[2]) * r + t[3]

    def unpack(self, key: int) -> tuple[int, int, int]:
        """The pure part that :meth:`pack` packed into key."""
        m, r = 2 * self.max_coeff, self.radix
        key, c3 = divmod(key + m, r)
        c1, c2 = divmod(key + m, r)
        return (c1, c2 - m, c3 - m)

    def least_root(self, c: Coeffs) -> Coeffs | None:
        """The lexicographically least root in the box whose cube is c, or
        None when there is none.

        It inverts the closed form of ``cube_coeffs``.  The reduced norm
        is multiplicative, so a root x of c has the norm n, the exact
        integer cube root of ``n(c) = c0**2 + a*c1**2 + b*c2**2 +
        ab*c3**2``.  For each x0 in the box, in increasing order, the pure
        part v of x then has ``P(v) = n - x0**2``, and ``c0 == x0 *
        (x0**2 - 3P)`` must hold.  With ``f = 3*x0**2 - P`` not 0, v is
        ``(c1, c2, c3) / f``, which must divide exactly, lie in the box and
        have P(v) == P.  With f == 0 the pure part of c is 0, and the least
        v of the box with P(v) == P is taken (:meth:`_form_roots`).
        Whatever it returns cubes to c exactly.
        """
        a, b, bound = self.params.a, self.params.b, self.bound
        c0, c1, c2, c3 = c
        ab = a * b
        n = _icbrt(c0 * c0 + a * c1 * c1 + b * c2 * c2 + ab * c3 * c3)
        m = min(bound, isqrt(n))
        for x0 in range(-m, m + 1):
            p = n - x0 * x0
            if x0 * (x0 * x0 - 3 * p) != c0:
                continue
            f = 3 * x0 * x0 - p
            if f:
                v1, v2, v3 = c1 // f, c2 // f, c3 // f
                if (
                    (v1 * f, v2 * f, v3 * f) == (c1, c2, c3)
                    and max(abs(v1), abs(v2), abs(v3)) <= bound
                    and a * v1 * v1 + b * v2 * v2 + ab * v3 * v3 == p
                ):
                    return (x0, v1, v2, v3)
            elif not (c1 or c2 or c3) and (v := next(self._form_roots((p,)), None)):
                return (x0, *v)
        return None

    def _form_roots(self, ps) -> Iterator[tuple[int, int, int]]:
        """The pure parts v of the box with P(v) in ps, not empty, in box
        order, each coefficient bounded by the form as well as the box."""
        a, b, bound = self.params.a, self.params.b, self.bound
        ab, top = a * b, max(ps)
        m1 = min(bound, isqrt(top // a))
        for v1 in range(-m1, m1 + 1):
            s1 = a * v1 * v1
            m2 = min(bound, isqrt((top - s1) // b))
            for v2 in range(-m2, m2 + 1):
                s2, v3s = s1 + b * v2 * v2, set()
                for p in ps:
                    q, r = divmod(p - s2, ab)
                    if q >= 0 and not r and (w := isqrt(q)) * w == q and w <= bound:
                        v3s |= {-w, w}
                for v3 in sorted(v3s):
                    yield v1, v2, v3

    def pure_roots(self, key: int) -> list[Coeffs]:
        """Every box root whose cube has the packed pure part key, not 0,
        in increasing order.

        The pure part c' of the cube of x0 + v is ``(3*x0**2 - P(v)) * v``,
        so v = m*w for w = c'/g, g = gcd(c'), and an int m with
        ``(3*x0**2 - m**2*P(w)) * m == g``: m divides g and is at most
        ``B / max|w|`` in size, and ``3*x0**2 == g/m + m**2*P(w)`` fixes
        x0 up to sign.
        """
        a, b, bound = self.params.a, self.params.b, self.bound
        c1, c2, c3 = self.unpack(key)
        g = gcd(c1, c2, c3)
        w1, w2, w3 = c1 // g, c2 // g, c3 // g
        pw = a * w1 * w1 + b * w2 * w2 + a * b * w3 * w3
        roots = []
        for m in range(1, bound // max(abs(w1), abs(w2), abs(w3)) + 1):
            if g % m:
                continue
            for s in (m, -m):
                r = g // s + m * m * pw  # 3*x0**2
                if r >= 0 and r % 3 == 0 and 3 * (x0 := isqrt(r // 3)) ** 2 == r <= 3 * bound**2:
                    v = (s * w1, s * w2, s * w3)
                    roots += {(-x0, *v), (x0, *v)}
        return sorted(roots)

    def _norm_parts(self) -> tuple[set[int], set[int]]:
        """The norm parts P(v) of the box's pure parts v, and the cubes of
        the norms of the box's roots; built on first use from squares."""
        if self._norms is None:
            a, b = self.params.a, self.params.b
            squares = [x * x for x in range(self.bound + 1)]
            two = {a * u + b * v for u in squares for v in squares}
            norms = {s + a * b * w for s in two for w in squares}
            self._norms = (norms, {(y + p) ** 3 for y in squares for p in norms})
        return self._norms

    def _group_terms(self) -> tuple:
        """What every :meth:`groups` build reads, made on the first: the
        box's x by residue mod 9, each coefficient's table of (norm term,
        packed term, parity bit) by residue, and the parity pattern of a
        cube by its root's, all of O(B) size."""
        if self._terms is None:
            a, b, r, bound = self.params.a, self.params.b, self.radix, self.bound
            rows = [range((k + bound) % 9 - bound, bound + 1, 9) for k in range(9)]
            t1, t2, t3 = ([[(w * x * x, x * scale, (x & 1) << shift) for x in row] for row in rows]
                          for w, scale, shift in ((a, r * r, 2), (b, r, 1), (a * b, 1, 0)))
            cube_par = [_parity(cube_coeffs(a & 1, b & 1, x)) for x in product((0, 1), repeat=4)]
            self._terms = (rows, t1, t2, t3, cube_par)
        return self._terms

    def groups(self, sig: Coeffs) -> _ParityGroups:
        """The packed pure parts of the cubes of signature sig, by parity
        pattern; built on first use.  A search asks only for the
        signatures that :func:`_stored_class` returns (see
        :meth:`signed_groups`).  The residue rows and term tables of
        :meth:`_group_terms` serve every build of the space.  The tails of
        each class c of sig's root classes (r0, c) mod 9 are made once,
        used for the x0 = r0 (mod 9) rows of the box, and freed once their
        keys are stored."""
        got = self._groups.get(sig)
        if got is not None:
            return got
        rows, t1, t2, t3, cube_par = self._group_terms()
        by_par: dict[int, dict[int, None]] = {p: {} for p in cube_par}
        # the group of a root, indexed by x0's parity, then by the tail's
        slots = [[by_par[p] for p in cube_par[:8]], [by_par[p] for p in cube_par[8:]]]
        # the signature's root classes (r0, c) by their tails' class c
        x0_classes: dict[int, list[int]] = {}
        for n in self._tabs.root_classes.get(sig, ()):
            x0_classes.setdefault(n % 729, []).append(n // 729)
        for c, r0s in x0_classes.items():
            # the tails (x1, x2, x3) of class c: norm part p, packed tail, parity
            tails = [(p1 + p2 + p3, k1 + k2 + k3, e1 | e2 | e3) for p1, k1, e1 in t1[c // 81]
                     for p2, k2, e2 in t2[c // 9 % 9] for p3, k3, e3 in t3[c % 9]]
            for x0 in (x0 for r0 in r0s for x0 in rows[r0]):
                f0, slot = 3 * x0 * x0, slots[x0 & 1]
                # the pure part of the cube of x packs to (3x0^2 - p) low
                for p, low, par in tails:
                    slot[par][(f0 - p) * low] = None
        got = self._groups[sig] = {p: keys for p, keys in by_par.items() if keys}
        return got

    def signed_groups(self, sig: Coeffs) -> tuple[_ParityGroups, int]:
        """The stored groups of sig's class, and the sign (1 or -1) that
        turns their pure parts into those of sig's cubes."""
        stored, sign = self._tabs.stored[sig]
        return self.groups(stored), sign

    def by_class(self) -> dict[Coeffs, _ParityGroups]:
        """Every signature's groups, laid out as :meth:`groups` lays out a
        stored one, the signs spelled out: a whole-box view that no
        search needs."""
        out = {}
        for s in sorted(self._tabs.single):
            groups, sign = self.signed_groups(s)
            if groups:
                out[s] = {p: dict.fromkeys(sign * key for key in g) for p, g in groups.items()}
        return out

    def table(self) -> dict[Coeffs, Coeffs]:
        """Cube -> the lexicographically least root producing it, over
        the whole box, by brute force: a view that no search needs."""
        a, b, out = self.params.a, self.params.b, {}
        for x in product(range(-self.bound, self.bound + 1), repeat=4):
            out.setdefault(cube_coeffs(a, b, x), x)
        return out

    def _sig_pairs(self, target_sig: Coeffs) -> list[_SigPair]:
        """The pairs of stored groups, with signs, of the signatures that
        sum to target_sig mod 9, and whether the two sides are one.  Two
        pairs of signatures that meet the same two sides are met once,
        and only the classes paired are built.  Each half of a mate's code
        (see ``_Mod9Tables.by_code``) is one lookup in :func:`_digit_diff`,
        and codes order as signatures do."""
        got = self._sig_pair_memo.get(target_sig)
        if got is None:
            diff, by_code, stored = _digit_diff(), self._tabs.by_code, self._tabs.stored
            t0, t1, t2, t3 = target_sig
            hi, lo = (t0 * 9 + t1) * 81, (t2 * 9 + t3) * 81
            sides = {}
            for h, row in by_code.items():
                mh = diff[hi + h]
                if h > mh or (mate_row := by_code.get(mh)) is None:
                    continue
                for l, s in row.items():
                    ml = diff[lo + l]
                    if ml in mate_row and (h < mh or l <= ml):
                        one, other = stored[s], stored[mate_row[ml]]
                        sides[min(one, other), max(one, other)] = None
            got = []
            for (s, sign), (m, mate_sign) in sides:
                groups, mates = self.groups(s), self.groups(m)
                if groups and mates:
                    got.append((groups, sign, mates, mate_sign, (s, sign) == (m, mate_sign)))
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
        unordered pair of sides once; generated afresh for each meet."""
        for groups, sign, mates, mate_sign, same in self._sig_pairs(target_sig):
            for p, group in groups.items():
                q = p ^ target_par
                mate = mates.get(q)
                # a side paired with itself meets (p, q) and (q, p) alike: keep one
                if mate is not None and (not same or p <= q):
                    one, other = (group, sign), (mate, mate_sign)
                    yield (one, other) if len(group) <= len(mate) else (other, one)


def _scan_two(space: _SearchSpace, t: Coeffs) -> tuple[Coeffs, Coeffs] | None:
    """Least (x, y) with x**3 + y**3 = t, both in the coeff box.

    Only groups that can sum to t are met: their signatures sum to t's
    mod 9 and their parities XOR to t's.  A side's pure parts are its
    stored keys times its sign, so with T the packed pure part of t the
    pure parts ``u * h`` of big and ``v * g`` of small sum to T exactly
    when ``h == u*T - (u*v) * g``: one intersection in C per group pair,
    of ``big`` with ``u*T - small`` or ``u*T + small``.  The keys hold no
    real parts, so a hit is only a candidate: each root x of its half
    (:meth:`_SearchSpace.pure_roots`) whose remainder t - x**3 has a
    least root y in the box gives the pair (x, y), sorted.  Every
    solution shows up so, and the least pair is the one a full
    lexicographic scan would find.  A target whose pure part is 0 meets
    every stored pure part, so :func:`_real_pair` scans the box in order
    for it instead.
    """
    sig = _sig(t)
    if not space._tabs.attains(sig, 2):
        return None
    packed = space.pack(t)
    if packed is None:
        return None
    if not packed:
        return _real_pair(space, t)
    hits = set()
    for (small, v), (big, u) in space.pair_sets(sig, _parity(t)):
        met = big.keys() & map(operator.sub if u == v else operator.add, repeat(u * packed), small)
        if met:
            hits.update(map(u.__mul__, met))
    a, b, least_root = space.params.a, space.params.b, space.least_root
    pairs = []
    for c in hits:
        # the roots of a half whose pure part is not 0: t's is not
        for x in space.pure_roots(c or packed):
            y = least_root(_sub4(t, cube_coeffs(a, b, x)))
            if y is not None:
                pairs.append((x, y) if x <= y else (y, x))
    return min(pairs, default=None)


def _real_pair(space: _SearchSpace, t: Coeffs) -> tuple[Coeffs, Coeffs] | None:
    """Least (x, y) with x**3 + y**3 = t, both in the coeff box, for a t
    whose pure part is 0, which every stored pure part meets.

    x runs over the box in box order, and the first x whose remainder
    t - x**3 has a least root y in the box gives the pair: x is the least
    root of any solution, and y >= x, or y would have come first.  With
    x = x0 + v and p = P(v), the remainder is ``(t0 - x0*(x0**2 - 3p),
    -(3*x0**2 - p)*v)``, so its norm ``(t0 - x0*(x0**2 - 3p))**2 +
    (3*x0**2 - p)**2 * p`` depends on x0 and p only.  It is the cube of
    y's norm ``y0**2 + P(w)``, so only the tails whose p gives the cube of
    a box root's norm are tried (:meth:`_SearchSpace._form_roots`).
    """
    a, b, bound = space.params.a, space.params.b, space.bound
    t0, (norms, cubes) = t[0], space._norm_parts()
    for x0 in range(-bound, bound + 1):
        sq = x0 * x0
        ok = {p for p in norms if (t0 - x0 * (sq - 3 * p)) ** 2 + (3 * sq - p) ** 2 * p in cubes}
        for v in space._form_roots(ok) if ok else ():
            x = (x0, *v)
            y = space.least_root(_sub4(t, cube_coeffs(a, b, x)))
            if y is not None:
                return x, y
    return None


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


def _scan(
    space: _SearchSpace, t: Coeffs, k: int, outer: int, workers: int = 1
) -> tuple[Coeffs, ...] | None:
    """Least witness of t as a sum of exactly k cubes, or None.

    Level k runs only when t's signature is in S_k (see
    :meth:`_Mod9Tables.sums`).  One cube is the target's least root, and
    two are met in the middle (:func:`_scan_two`).  For k >= 3 the first
    root runs over the outer box's orbit-least roots
    (:meth:`_SearchSpace.outer_roots`) whose class passes the mask
    ``first_root_classes(sig, k)``, so that the remainder is in S_(k-1);
    the mask is empty exactly when the signature is not in S_k.  The
    least (k-1)-cube witness of the remainder completes it.  ``workers`` > 1 splits only level k itself.
    """
    sig = _sig(t)
    if k == 1:
        # exact at any bound, and builds no group
        x = space.least_root(t) if space._tabs.attains(sig, 1) else None
        return None if x is None else (x,)
    if k == 2:
        return _scan_two(space, t)  # which tests S_2 itself
    first_ok = space.first_root_classes(sig, k)
    if not first_ok:
        return None
    if workers > 1:
        return _scan_cells(space, t, k, outer, workers)
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


def _affinity() -> list[int] | None:
    """The CPUs this thread may run on, in order, or None where the
    platform has no affinity set."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def _clamp_workers(requested: int, chunks: int, cpus: list[int] | None) -> int:
    """Processes worth starting for ``requested`` workers over ``chunks``
    chunks: never more than the chunks or the CPUs this process may run
    on (``cpus``, its affinity set from :func:`_affinity`; the CPU count
    where the platform has none), and at least one."""
    n = len(cpus) if cpus is not None else os.cpu_count()
    return max(1, min(requested, n or 1, chunks))


def _pin(cpus) -> None:
    """Keep the calling thread on ``cpus``; where the OS refuses, it
    stays where it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _take_cells(space, t, k, outer, next_cell, least_hit, before_cell=lambda: None):
    """Scan the k-cube cells, the outer roots' (w0, w1) in lexicographic
    order, numbered by the shared counter ``next_cell`` until one hits or
    none is left before ``least_hit``; return ``(cell number, witness)``
    or None, calling ``before_cell`` before each cell is taken.  No lock
    guards the two ints: a race may hand a cell to two processes but
    skips none (the first write past n is n + 1 from a process that read
    n), and may leave ``least_hit`` above the least hit cell, never below it."""
    first_ok = space.first_root_classes(_sig(t), k)
    w1_values = list(space.outer_roots(t, outer))
    while True:
        before_cell()
        n = next_cell.value
        next_cell.value = n + 1
        if n >= least_hit.value:
            return None
        i, j = divmod(n, len(w1_values))
        w0, w1 = i - outer, w1_values[j]
        res = _scan_cell(space, k, t, outer, first_ok, w0, w1, lambda: least_hit.value < n)
        if res is not None:
            least_hit.value = min(n, least_hit.value)
            return n, res


def _cell_worker(params, bound, t, k, outer, next_cell, least_hit, conn, cpu) -> None:
    """A helper process of a parallel level: move to CPU ``cpu`` first
    (None: no affinity set), then send what :func:`_take_cells` returns."""
    if cpu is not None:
        _pin((cpu,))
    conn.send(_take_cells(_SearchSpace(params, bound), t, k, outer, next_cell, least_hit))


def _scan_cells(
    space: _SearchSpace, t: Coeffs, k: int, outer: int, workers: int
) -> tuple[Coeffs, ...] | None:
    """Level k >= 3 of :func:`_scan`, its cells taken by this process and
    at most ``workers - 1`` helpers, started here and joined before it returns.

    Each helper builds the cube groups its cells meet, as a serial scan
    does.  When this process has no other thread (counted by the OS, so
    C threads such as faulthandler's watchdog count too) they are forked:
    no interpreter starts, and they inherit the mod-9 tables built here.
    Otherwise, or where the threads cannot be counted, they are spawned,
    so another thread cannot leave them holding a lock, and a script
    must guard its entry point.  Either way they get only small
    arguments.  No process takes a lock another shares, so the helpers
    can be terminated at any moment.

    Each process gets its own CPUs of this thread's affinity set, read
    once: helper i moves itself to the i-th CPU as it starts, and once
    every helper has started this thread keeps the CPUs no helper took,
    until the level ends, however it ends.  Left to the OS, a forked
    helper shares its parent's CPU for about half a second, longer than
    a small level lasts.  This thread moves only after the helpers have
    started, so a spawned helper's interpreter starts with the whole
    set.  Where the OS refuses a move, that process stays where it was.
    """
    cells = (2 * outer + 1) * len(space.outer_roots(t, outer))
    cpus = _affinity()
    workers = _clamp_workers(workers, cells, cpus)
    if workers == 1:
        return _scan(space, t, k, outer)
    import multiprocessing  # only here, so importing the package stays light

    try:
        single_thread = len(os.listdir("/proc/self/task")) == 1
    except OSError:
        single_thread = False
    ctx = multiprocessing.get_context("fork" if single_thread else "spawn")
    next_cell, least_hit = ctx.RawValue("i", 0), ctx.RawValue("i", cells)
    # clamped to the set, so each helper has a CPU and this thread keeps one;
    # CPython defines sched_getaffinity and sched_setaffinity together
    place = cpus is not None
    procs = []
    try:
        for i in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            # the parent keeps no write end, so a dead worker's pipe reads EOF
            with writer:
                proc = ctx.Process(
                    target=_cell_worker,
                    args=(space.params, space.bound, t, k, outer, next_cell, least_hit, writer,
                          cpus[i] if place else None),
                    daemon=True,
                )
                proc.start()
            procs.append((proc, reader))
        if place:
            _pin(cpus[workers - 1:])
        return _own_cells(space, t, k, outer, next_cell, least_hit, procs)
    finally:
        if place:
            _pin(cpus)
        for proc, _ in procs:
            proc.terminate()
        for proc, reader in procs:
            proc.join()
            reader.close()


def _own_cells(space, t, k, outer, next_cell, least_hit, procs) -> tuple[Coeffs, ...] | None:
    """This process's share of :func:`_scan_cells`, beside the started
    helpers ``procs``, each with the read end of its one-way pipe."""
    from multiprocessing.connection import wait

    # This process takes cells as the workers do.  The cell holding the
    # least witness runs to its end, so the least hit cell gives the serial result.
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

    hits.append(_take_cells(space, t, k, outer, next_cell, least_hit, lambda: collect(0)))
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

    One cube is the target's least root, exact at any bound.  Two cubes
    are met in the middle on the packed pure parts of the box's cubes,
    one stored set per class (±s0, ±s') of signatures mod 9 (172 for the
    513 of ring (1, 1)), each built when a search first meets it; a
    target whose pure part is 0 builds none and scans the box in order.
    k >= 3 cubes scan an outer root (in the outer_bound box) and search
    the remainder with k - 1 cubes.  The module docstring gives the
    pruning, by the sums S_k of cube signatures mod 9 and by the
    target's symmetries, which keeps the least witness.
    ``workers`` > 1 cuts the scan of each stage k >= 3 that runs into
    ``(w0, w1)`` cells of the outer root's first two coefficients, which
    this process and ``workers - 1`` helper ones (no more than the CPUs
    or the cells in all) take in turn; every cell before the least hit
    runs to its end, so the result is identical to a serial run.  The
    helpers start with that stage and end with it, so a witness of 1 or
    2 cubes starts none; :func:`_scan_cells` says how they start and on
    which CPUs each process of the stage runs.  A dying helper is
    reported before this process takes its next cell; a script that
    calls this with ``workers`` > 1 from a process with other threads
    must guard its entry point with ``if __name__ == "__main__":``.  A
    ``workers`` that is not an int raises ``TypeError``, and one below 1
    ``ValueError``, before any level runs.
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    params = alpha.params
    t = alpha.coefficients()
    space = _SearchSpace(params, cfg.coeff_bound)
    for k in range(1, cfg.max_cubes + 1):
        found = _scan(space, t, k, cfg.outer, workers)
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
