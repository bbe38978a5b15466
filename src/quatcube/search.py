"""Bounded search and exhaustive modular verification oracles.

Everything here is deliberately independent of the constructive
decomposition pipeline, so the two can certify each other:

* :func:`min_cubes_search` -- box-bounded minimal-representation search
  by meet-in-the-middle over a table of single cubes;
* :func:`three_cube_residues_mod9` / :func:`two_cube_obstruction` --
  modular enumerators proving the two non-representability witnesses;
* :func:`lemma_residue_check` -- exhaustive certification of the
  congruence recipes and pair tables over whole residue classes.

The cube table packs each cube of the box into one int, exactly (see
:class:`_SearchSpace`), and groups the packed cubes into sets by their
mod-9 signature.  Two cubes meet a target ``T`` by set intersection:
for each pair of signature groups summing to the target's signature,
``big & {T - h for h in small}`` runs in C.  Three cubes scan the outer
root in lexicographic order and meet the remainder; with several
workers, the outer box is cut into ``(w0, w1)`` cells whose results are
taken in order.  The mod-9 patterns of cubes (and of sums of two or
three cubes) prune only regions proven empty, so results are identical
with and without them, and parallel runs return exactly what a serial
run returns.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from dataclasses import dataclass
from itertools import product

from .decompose import cube_root_congruence, select_pair
from .errors import InvalidResidues, MixedRings, QuatcubeError
from .quat import Coeffs, Quaternion, RingParams, cube, cube_coeffs, swap_iso
from .residues import (
    Case,
    CaseTag,
    ResidueClass,
    classify_case,
    in_S,
    in_T2,
    in_T3,
)

_DIV3 = (0, 3)


@dataclass(frozen=True)
class SearchConfig:
    """Box bounds for minimal-representation search.

    Each root coefficient ranges over [-coeff_bound, coeff_bound]; for
    searches with 3 or 4 cubes the outermost root(s) use the (usually
    smaller) outer_bound box, defaulting to coeff_bound.  Absence within
    a box is never a proof of non-representability.
    """

    max_cubes: int
    coeff_bound: int = 10
    outer_bound: int | None = None

    def __post_init__(self) -> None:
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
    """Result of certifying the recipes of one (a mod 6, b mod 6) pair."""

    case: CaseTag
    classes_checked: int
    failures: tuple[ResidueClass, ...]
    pair_targets_checked: int

    @property
    def passed(self) -> bool:
        return not self.failures


def _sig(c: Coeffs) -> Coeffs:
    return (c[0] % 9, c[1] % 9, c[2] % 9, c[3] % 9)


def _encode(s0: int, s1: int, s2: int, s3: int) -> int:
    # base-32 digits keep sums of up to three mod-9 signatures carry-free
    return (s0 << 15) | (s1 << 10) | (s2 << 5) | s3


class _BitGrid:
    """Constant-time bit membership over base-32-encoded signatures."""

    __slots__ = ("_bytes",)

    def __init__(self, mask: int) -> None:
        self._bytes = mask.to_bytes((mask.bit_length() + 7) // 8 or 1, "little")

    def test(self, idx: int) -> bool:
        byte = idx >> 3
        if byte >= len(self._bytes):
            return False
        return (self._bytes[byte] >> (idx & 7)) & 1 == 1


class _Mod9Tables:
    """Attainable mod-9 coefficient patterns of cubes in one ring.

    Depends only on (a mod 9, b mod 9).  ``cube_sig`` maps each root
    signature to its cube's signature; the grids answer whether a target
    signature is attainable as a sum of one, two or three cube
    signatures.
    """

    __slots__ = ("cube_sig", "single", "_pairs", "_triples", "_first_ok_memo")

    def __init__(self, a9: int, b9: int) -> None:
        self.cube_sig: dict[Coeffs, Coeffs] = {
            s: _sig(cube_coeffs(a9, b9, s)) for s in product(range(9), repeat=4)
        }
        self.single = frozenset(self.cube_sig.values())

        codes = sorted({_encode(*s) for s in self.single})
        mask = 0
        for c in codes:
            mask |= 1 << c
        pair = 0
        for c in codes:
            pair |= mask << c
        triple = 0
        for c in codes:
            triple |= pair << c
        self._pairs = _BitGrid(pair)
        self._triples = _BitGrid(triple)
        self._first_ok_memo: dict[Coeffs, frozenset[Coeffs]] = {}

    def pair_attainable(self, s: Coeffs) -> bool:
        test = self._pairs.test
        for u0 in (s[0], s[0] + 9):
            for u1 in (s[1], s[1] + 9):
                for u2 in (s[2], s[2] + 9):
                    for u3 in (s[3], s[3] + 9):
                        if test(_encode(u0, u1, u2, u3)):
                            return True
        return False

    def triple_attainable(self, s: Coeffs) -> bool:
        test = self._triples.test
        for u0 in (s[0], s[0] + 9, s[0] + 18):
            for u1 in (s[1], s[1] + 9, s[1] + 18):
                for u2 in (s[2], s[2] + 9, s[2] + 18):
                    for u3 in (s[3], s[3] + 9, s[3] + 18):
                        if test(_encode(u0, u1, u2, u3)):
                            return True
        return False

    def first_root_classes(self, target_sig: Coeffs) -> frozenset[Coeffs]:
        """Root classes mod 9 whose cube leaves a pair-attainable remainder."""
        got = self._first_ok_memo.get(target_sig)
        if got is None:
            t0, t1, t2, t3 = target_sig
            got = frozenset(
                s
                for s, cs in self.cube_sig.items()
                if self.pair_attainable(
                    ((t0 - cs[0]) % 9, (t1 - cs[1]) % 9, (t2 - cs[2]) % 9, (t3 - cs[3]) % 9)
                )
            )
            self._first_ok_memo[target_sig] = got
        return got


_MOD9_CACHE: dict[tuple[int, int], _Mod9Tables] = {}


def _mod9_tables(params: RingParams) -> _Mod9Tables:
    key = (params.a % 9, params.b % 9)
    tabs = _MOD9_CACHE.get(key)
    if tabs is None:
        tabs = _Mod9Tables(*key)
        _MOD9_CACHE[key] = tabs
    return tabs


class _SearchSpace:
    """Lazily built cube table for one (ring, coeff_bound) box.

    A cube (c0, c1, c2, c3) is stored as the int
    ``((c0*R + c1)*R + c2)*R + c3`` in radix ``R = 4*M + 1``, where M
    bounds every cube coefficient in the box.  Packing is linear, so
    ``pack(t) - pack(c) == pack(t - c)``, and two tuples whose
    coefficients differ by less than R pack equal only when they are
    equal.  A target with a coefficient beyond 2*M is no sum of two box
    cubes and is never packed.  For any other target t and box cubes c
    and g, t - c and g differ by at most 4*M per coefficient, so
    ``pack(t) - pack(c) == pack(g)`` only when t - c == g: no lookup can
    hit by accident.

    Roots are identified by their index in lexicographic order of the
    box, so comparing indices compares roots.
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
        self._keys: list[int] | None = None
        self._least: dict[int, int] | None = None
        self._by_class: dict[Coeffs, set[int]] | None = None
        self._pair_memo: dict[Coeffs, list[tuple[set[int], set[int]]]] = {}

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

    def table(self) -> dict[int, int]:
        """Packed cube -> index of the lexicographically least root
        producing it."""
        if self._least is None:
            a, b, r = self.params.a, self.params.b, self.radix
            rng = range(-self.bound, self.bound + 1)
            # per (x1, x2, x3): the norm part p and the packed (x1, x2, x3),
            # so the cube of x packs to (x0^2 - 3p)x0 R^3 + (3x0^2 - p) low
            tails = [
                (a * x1 * x1 + b * x2 * x2 + a * b * x3 * x3, (x1 * r + x2) * r + x3)
                for x1, x2, x3 in product(rng, repeat=3)
            ]
            keys: list[int] = []
            for x0 in rng:
                sq, hi = x0 * x0, x0 * r**3
                keys.extend([(sq - 3 * p) * hi + (3 * sq - p) * low for p, low in tails])
            # filled from the last root back, so each cube keeps its least root
            self._least = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            self._keys = keys
        return self._least

    def by_class(self) -> dict[Coeffs, set[int]]:
        """Packed cubes grouped by their signature mod 9."""
        if self._by_class is None:
            self.table()
            keys = self._keys
            cube_sig = _mod9_tables(self.params).cube_sig
            rng = range(-self.bound, self.bound + 1)
            tail_classes: dict[tuple[int, int, int], list[int]] = {}
            for pos, (x1, x2, x3) in enumerate(product(rng, repeat=3)):
                tail_classes.setdefault((x1 % 9, x2 % 9, x3 % 9), []).append(pos)
            span = len(rng) ** 3
            grouped: dict[Coeffs, set[int]] = {}
            for i, x0 in enumerate(rng):
                block = keys[i * span:(i + 1) * span]
                for cls, positions in tail_classes.items():
                    sig = cube_sig[(x0 % 9, *cls)]
                    grouped.setdefault(sig, set()).update(map(block.__getitem__, positions))
            self._by_class = grouped
            self._keys = None
        return self._by_class

    def pair_sets(self, target_sig: Coeffs) -> list[tuple[set[int], set[int]]]:
        """(smaller, larger) groups whose signatures sum to target_sig
        mod 9, each unordered pair once."""
        got = self._pair_memo.get(target_sig)
        if got is None:
            grouped = self.by_class()
            t0, t1, t2, t3 = target_sig
            got = []
            for s, group in grouped.items():
                mate_sig = ((t0 - s[0]) % 9, (t1 - s[1]) % 9, (t2 - s[2]) % 9, (t3 - s[3]) % 9)
                mate = grouped.get(mate_sig)
                if mate is not None and s <= mate_sig:
                    got.append((group, mate) if len(group) <= len(mate) else (mate, group))
            self._pair_memo[target_sig] = got
        return got


def _scan_two(space: _SearchSpace, tabs: _Mod9Tables, t: Coeffs) -> tuple[Coeffs, Coeffs] | None:
    """Least (x, y) with x**3 + y**3 = t, both in the coeff box.

    Every hit h of ``big & (T - small)`` is a box cube whose partner
    T - h is one too, and every solution shows up as such a hit, so x is
    the least root cubing to either half of any hit, and y the least
    root cubing to what x's cube leaves.  That is the pair a full
    lexicographic scan would find.
    """
    sig = _sig(t)
    if not tabs.pair_attainable(sig):
        return None
    packed = space.pack(t)
    if packed is None:
        return None
    hits = [
        h
        for small, big in space.pair_sets(sig)
        for h in big.intersection(map(packed.__sub__, small))
    ]
    if not hits:
        return None
    least = space.table()
    x_cube = min((c for h in hits for c in (h, packed - h)), key=least.__getitem__)
    return space.root(least[x_cube]), space.root(least[packed - x_cube])


def _sub4(t: Coeffs, c: Coeffs) -> Coeffs:
    return (t[0] - c[0], t[1] - c[1], t[2] - c[2], t[3] - c[3])


def _scan_three_cell(
    space: _SearchSpace,
    tabs: _Mod9Tables,
    t: Coeffs,
    outer: int,
    first_ok: frozenset[Coeffs],
    w0: int,
    w1: int,
) -> tuple[Coeffs, Coeffs, Coeffs] | None:
    """Least 3-cube witness whose outer root starts with (w0, w1)."""
    a, b = space.params.a, space.params.b
    rng = range(-outer, outer + 1)
    r0, r1 = w0 % 9, w1 % 9
    for w2 in rng:
        for w3 in rng:
            if (r0, r1, w2 % 9, w3 % 9) not in first_ok:
                continue
            w = (w0, w1, w2, w3)
            res = _scan_two(space, tabs, _sub4(t, cube_coeffs(a, b, w)))
            if res is not None:
                return (w, *res)
    return None


def _scan_three_range(
    space: _SearchSpace,
    tabs: _Mod9Tables,
    t: Coeffs,
    outer: int,
    first_ok: frozenset[Coeffs],
    w0_values,
) -> tuple[Coeffs, Coeffs, Coeffs] | None:
    """Least 3-cube witness whose outer root starts with one of w0_values,
    taken in order."""
    for w0 in w0_values:
        for w1 in range(-outer, outer + 1):
            res = _scan_three_cell(space, tabs, t, outer, first_ok, w0, w1)
            if res is not None:
                return res
    return None


def _clamp_workers(requested: int, chunks: int) -> int:
    """Processes worth starting for ``requested`` workers over ``chunks``
    chunks: never more than the CPUs or the chunks, and at least one."""
    return max(1, min(requested, os.cpu_count() or 1, chunks))


# how long to wait for a 3-cube cell before checking that no worker died
_WORKER_POLL_S = 0.1

# the search context of a pool worker process, set once by _init_worker
# when the worker starts; the process that owns the pool never sets it
_worker_ctx: tuple | None = None


def _init_worker(params: RingParams, bound: int, t: Coeffs, outer: int) -> None:
    global _worker_ctx
    tabs = _mod9_tables(params)
    space = _SearchSpace(params, bound)
    space.by_class()
    _worker_ctx = (space, tabs, t, outer, tabs.first_root_classes(_sig(t)))


def _scan_three_chunk(cell: tuple[int, int]):
    return _scan_three_cell(*_worker_ctx, *cell)


def _three_cube_pool(params: RingParams, cfg: SearchConfig, t: Coeffs, workers: int):
    """A process pool for the 3-cube scan, or a null context when that
    scan runs serially or the mod-9 patterns rule it out.

    The pool starts before the 1- and 2-cube stages, so its workers build
    their cube tables while this process builds its own.  Workers are
    spawned, not forked, so a caller's threads cannot leave them holding
    a lock, and they get only small picklable arguments.
    """
    tabs = _mod9_tables(params)
    workers = _clamp_workers(workers, (2 * cfg.outer + 1) ** 2)
    if (
        workers == 1
        or cfg.max_cubes < 3
        or not tabs.triple_attainable(_sig(t))
        or not tabs.first_root_classes(_sig(t))
    ):
        return contextlib.nullcontext()
    return multiprocessing.get_context("spawn").Pool(
        workers, initializer=_init_worker, initargs=(params, cfg.coeff_bound, t, cfg.outer)
    )


def _scan_three(
    space: _SearchSpace,
    tabs: _Mod9Tables,
    t: Coeffs,
    outer: int,
    pool,
) -> tuple[Coeffs, Coeffs, Coeffs] | None:
    if not tabs.triple_attainable(_sig(t)):
        return None
    first_ok = tabs.first_root_classes(_sig(t))
    if not first_ok:
        return None
    rng = range(-outer, outer + 1)
    if pool is None:
        return _scan_three_range(space, tabs, t, outer, first_ok, rng)
    # cells go out and come back in lexicographic order, so the first hit
    # is the least witness, as in a serial run; leaving the pool's context
    # terminates the workers still scanning later cells
    cells = [(w0, w1) for w0 in rng for w1 in rng]
    for res in _watched_imap(pool, _scan_three_chunk, cells):
        if res is not None:
            return res
    return None


def _watched_imap(pool, fn, items: list):
    """``pool.imap(fn, items)``, raising :class:`QuatcubeError` once a
    worker process has died.

    ``multiprocessing.Pool`` silently replaces a dead worker.  A worker
    that dies while starting (the calling script has no ``__main__``
    guard, or building its tables fails) is replaced forever, and a plain
    ``imap`` never returns.  No worker of this pool exits on its own, so
    an exit code on any worker it started with (``pool._pool``, CPython's
    worker list) means one died.  The check runs only while a result is
    late, so results that arrive in time cost nothing extra.
    """
    workers = list(pool._pool)
    results = pool.imap(fn, items)
    for _ in items:
        while True:
            try:
                res = results.next(timeout=_WORKER_POLL_S)
                break
            except multiprocessing.TimeoutError:
                dead = [p.exitcode for p in workers if p.exitcode is not None]
                if dead:
                    raise QuatcubeError(
                        f"a search worker process exited with code {dead[0]}; a script "
                        "that searches with workers > 1 must guard its entry point "
                        "with if __name__ == '__main__':"
                    ) from None
        yield res


def _scan_four(
    space: _SearchSpace,
    tabs: _Mod9Tables,
    t: Coeffs,
    outer: int,
) -> tuple[Coeffs, ...] | None:
    a, b = space.params.a, space.params.b
    rng = range(-outer, outer + 1)
    for w in product(rng, rng, rng, rng):
        t1 = _sub4(t, cube_coeffs(a, b, w))
        if not tabs.triple_attainable(_sig(t1)):
            continue
        first_ok = tabs.first_root_classes(_sig(t1))
        if not first_ok:
            continue
        res = _scan_three_range(space, tabs, t1, outer, first_ok, rng)
        if res is not None:
            return (w, *res)
    return None


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
    and grouped by signature mod 9, are intersected with the target
    minus each cube of a matching group.  Three cubes scan the outer
    root (in the outer_bound box) and meet the remainder.  ``workers``
    > 1 cuts that scan into ``(w0, w1)`` cells of the outer root's first
    two coefficients and hands them to up to ``workers`` processes (no
    more than the CPUs or the cells), taking results back in order, so
    the result is identical to a serial run.  The workers are spawned,
    so a script that calls this with ``workers`` > 1 must guard its
    entry point with ``if __name__ == "__main__":``.
    """
    params = alpha.params
    t = alpha.coefficients()
    space = _SearchSpace(params, cfg.coeff_bound)
    tabs = _mod9_tables(params)

    with _three_cube_pool(params, cfg, t, workers) as pool:
        for k in range(1, cfg.max_cubes + 1):
            found: tuple[Coeffs, ...] | None = None
            if k == 1:
                packed = space.pack(t) if _sig(t) in tabs.single else None
                if packed is not None:
                    idx = space.table().get(packed)
                    if idx is not None:
                        found = (space.root(idx),)
            elif k == 2:
                found = _scan_two(space, tabs, t)
            elif k == 3:
                found = _scan_three(space, tabs, t, cfg.outer, pool)
            else:
                found = _scan_four(space, tabs, t, cfg.outer)
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
    patterns (real mod 9, pures mod 3).
    """
    if target.params != params:
        raise MixedRings("target must belong to the ring under test")
    a9, b9 = params.a % 9, params.b % 9
    patterns = set()
    for x in product(range(9), repeat=4):
        c = cube_coeffs(a9, b9, x)
        patterns.add((c[0] % 9, c[1] % 3, c[2] % 3, c[3] % 3))
    g0 = target.c0 % 9
    g1, g2, g3 = (c % 3 for c in target.imaginary())
    for r, p1, p2, p3 in patterns:
        if ((g0 - r) % 9, (g1 - p1) % 3, (g2 - p2) % 3, (g3 - p3) % 3) in patterns:
            return False
    return True


def _congruences_hold(x: Quaternion, alpha: Quaternion) -> bool:
    c = cube(x)
    return (c.c0 - alpha.c0) % 3 == 0 and all(
        (cc - ac) % 6 == 0 for cc, ac in zip(c.imaginary(), alpha.imaginary())
    )


def _pair_ok(
    first: ResidueClass, second: ResidueClass, target: Quaternion, tag: CaseTag
) -> bool:
    t0, t1, t2, t3 = (c % 6 for c in target.coefficients())
    if tag.case is Case.CASE1:
        if not (in_S(first) and in_S(second)):
            return False
    elif t2 % 3 == 0:
        if not (in_T2(first) and in_T2(second)):
            return False
    elif t3 % 3 == 0:
        if not (in_T3(first) and in_T3(second)):
            return False
    else:
        if not (in_T2(first) and in_T3(second)):
            return False
    return (
        (first.r0 + second.r0 - t0) % 3 == 0
        and (first.r1 + second.r1 - t1) % 6 == 0
        and (first.r2 + second.r2 - t2) % 6 == 0
        and (first.r3 + second.r3 - t3) % 6 == 0
    )


def lemma_residue_check(a6: int, b6: int) -> LemmaReport:
    """Exhaustively certify the congruence recipe and pair tables for one
    (a mod 6, b mod 6) pair.

    For the pair's case this checks, over every residue class in the
    case's set (192 classes for S and for T2 + T3, 48 for case 3), that
    the recipe root's cube matches the class mod 3 on the real part and
    mod 6 on the imaginary parts; for cases 1 and 2 it additionally runs
    the pair selection over all 1296 target classes and validates set
    membership and the sums.  Swapped orientations are certified through
    the mirror-ring isomorphism, exactly as the decomposer uses them.
    """
    if not (0 <= a6 <= 5 and 0 <= b6 <= 5):
        raise InvalidResidues(f"residues must lie in 0..5, got ({a6}, {b6})")
    params = RingParams(a6 if a6 else 6, b6 if b6 else 6)
    tag = classify_case(params)
    failures: list[ResidueClass] = []
    classes_checked = 0
    pair_targets = 0

    def rc(r: Coeffs) -> ResidueClass:
        return ResidueClass(r[0], r[1], r[2], r[3], a6, b6)

    if tag.case is Case.CASE3:
        for r0 in range(6):
            for r in product(_DIV3, repeat=3):
                classes_checked += 1
                alpha = Quaternion(params, r0, r[0], r[1], r[2])
                x = cube_root_congruence(alpha, tag)
                if not _congruences_hold(x, alpha):
                    failures.append(rc((r0, r[0], r[1], r[2])))
    elif not tag.swapped:
        for r in product(range(6), repeat=4):
            cls = rc(r)
            if tag.case is Case.CASE1:
                if not in_S(cls):
                    continue
            elif not (in_T2(cls) or in_T3(cls)):
                continue
            classes_checked += 1
            alpha = cls.lift(params)
            x = cube_root_congruence(alpha, tag)
            if not _congruences_hold(x, alpha):
                failures.append(cls)
        for r in product(range(6), repeat=4):
            pair_targets += 1
            target = Quaternion(params, *r)
            first, second = select_pair(target, tag)
            if not _pair_ok(first, second, target, tag):
                failures.append(rc(r))
    else:
        # swapped 2b/2c: certify the composed route through the isomorphism
        norm_tag = classify_case(params.swapped())
        for r in product(range(6), repeat=4):
            alpha = Quaternion(params, *r)
            alpha_n = swap_iso(alpha)
            cls_n = ResidueClass.of(alpha_n)
            if not (in_T2(cls_n) or in_T3(cls_n)):
                continue
            classes_checked += 1
            x = swap_iso(cube_root_congruence(alpha_n, norm_tag))
            if not _congruences_hold(x, alpha):
                failures.append(rc(r))
        for r in product(range(6), repeat=4):
            pair_targets += 1
            target_n = swap_iso(Quaternion(params, *r))
            first, second = select_pair(target_n, norm_tag)
            if not _pair_ok(first, second, target_n, norm_tag):
                failures.append(rc(r))

    return LemmaReport(tag, classes_checked, tuple(failures), pair_targets)
