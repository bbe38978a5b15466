"""The search's box: the cubes of one (ring, coeff_bound) box and its symmetries.

The pure part of each cube of the box is packed into one int, exactly,
and the packed pure parts are grouped by the cube's mod-9 signature and,
within it, by its parity pattern (coefficients mod 2).  The box's cubes
are closed under negation and under the real flip (c0, c') -> (-c0, c'),
so one stored set serves each class (±s0, ±s') of signatures, built the
first time a search meets it from tables of O(B) entries, never one the
size of the box (see :class:`_SearchSpace`).  A pure part a search hits
gets its box roots back exactly, and a cube its least root, by inverting
the closed form of ``cube_coeffs`` (:meth:`_SearchSpace.pure_roots`,
:meth:`_SearchSpace.least_root`).  A signed permutation of the pure
coefficients that keeps the weights (a, b, ab) of the norm form commutes
with cubing, so one that also fixes the target maps witnesses to
witnesses, and the least witness's outer root is the least of its orbit:
the scans visit only those (:meth:`_SearchSpace.outer_roots`).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations, product
from math import gcd, isqrt

from .mod9 import _digit_diff, _mod9_tables, _parity
from .quat import Coeffs, RingParams, cube_coeffs


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
