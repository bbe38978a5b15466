"""Bounded search and exhaustive modular verification oracles.

The search and the enumerators are deliberately independent of the
constructive decomposition pipeline, so the two can certify each other:

* :func:`min_cubes_search` -- box-bounded minimal-representation search
  by meet-in-the-middle over groups of single cubes;
* :func:`three_cube_residues_mod9` / :func:`two_cube_obstruction` --
  modular enumerators proving the two non-representability witnesses.

The work is split by job.  :mod:`quatcube.mod9`, the residue engine,
holds the cube signatures mod 9, the sets S_k of sums of k of them and
the two enumerators.  :mod:`quatcube.box` holds the box: the packed pure
parts of its cubes, grouped by signature class and parity pattern, the
two-cube meet on them, the exact inversions that give a hit its roots
back, and the outer roots a scan visits.  This module holds the scans
and the workers.

One recursion, :func:`_scan`, searches each number of cubes k, and level
k starts only when its target's signature is in S_k.  One cube is the
target's least root; two cubes meet the packed pure part of a target
by set intersection, in :meth:`_SearchSpace.meet`, over the pairs of
groups whose signatures sum to the target's signature and whose parities
XOR to the target's parity.  A target whose pure part is 0, which every
pure part meets, is scanned in box order instead.
k >= 3 cubes scan the outer root in lexicographic order and search each
remainder at level k - 1, which ends at once when the remainder's
signature is not in S_(k-1).  With N workers, the search's process and
N - 1 helpers, each on its own CPU, take a 3- or 4-cube stage's
``(w0, w1)`` cells of the outer box in turn, and the least cell that
hits gives the witness.  The scans visit only
the outer roots least in their orbit under the target's symmetries
(:meth:`_SearchSpace.outer_roots`).  That symmetry and the mod-9 and
mod-2 patterns of cubes (and the sets S_k) prune only regions proven to
hold no least witness, so results are identical with and without them,
and parallel runs return exactly what a serial run returns.
"""

from __future__ import annotations

import os

from .box import _OuterRows, _SearchSpace
from .errors import QuatcubeError
from .mod9 import _parity, _sig
from .quat import Coeffs, Quaternion, _Frozen, _set, cube_coeffs

# Nothing here calls these.  perfbench reaches them through this module:
# workloads.py imports lemma_residue_check, tracing.py wraps the
# decomposer's names and patches _Mod9Tables and _SearchSpace, and run.py
# clears _MOD9_CACHE, so each is its defining module's own object.  The
# two enumerators also stay public names of this module.
from .decompose import (  # noqa: F401
    classify_case, cube, cube_root_congruence, in_S, in_T2, in_T3,
    lemma_residue_check, select_pair, swap_iso,
)
from .mod9 import (  # noqa: F401
    _MOD9_CACHE, _Mod9Tables, three_cube_residues_mod9, two_cube_obstruction,
)


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


def _scan_two(space: _SearchSpace, t: Coeffs) -> tuple[Coeffs, Coeffs] | None:
    """Least (x, y) with x**3 + y**3 = t, both in the coeff box.

    :meth:`_SearchSpace.meet` meets the box's groups of cubes on the
    packed pure part of t, and gives back one half's pure part of each
    pair of cubes that can sum to t.  The keys hold no real parts, so a
    hit is only a candidate: each root x of its half
    (:meth:`_SearchSpace.pure_roots`) whose remainder t - x**3 has a
    least root y in the box gives the pair (x, y), sorted.  Every
    solution shows up so, and the least pair is the one a full
    lexicographic scan would find.  A target whose pure part is 0 meets
    every stored pure part, so :func:`_real_pair` scans the box in order
    for it instead.  :func:`_scan` calls it only for a t whose signature
    is in S_2.
    """
    packed = space.pack(t)
    if packed is None:
        return None
    if not packed:
        return _real_pair(space, t)
    a, b, least_root = space.params.a, space.params.b, space.least_root
    pairs = []
    for c in space.meet(_sig(t), _parity(t), packed):
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


def _scan(
    space: _SearchSpace, t: Coeffs, k: int, outer: int, workers: int = 1
) -> tuple[Coeffs, ...] | None:
    """Least witness of t as a sum of exactly k cubes, or None.

    Level k runs only when t's signature is in S_k (see
    :meth:`_Mod9Tables.sums`), a test made here for every k and nowhere
    else in the search.  One cube is the target's least root, and
    two are met in the middle (:func:`_scan_two`).  For k >= 3 the first
    root runs over the outer box's orbit-least roots
    (:meth:`_SearchSpace.outer_roots`), and the least (k-1)-cube witness
    of the remainder completes it; level k - 1 rules out a remainder
    whose signature is not in S_(k-1) as it starts.  ``workers`` > 1
    splits only level k itself.
    """
    if not space._tabs.attains(_sig(t), k):
        return None
    if k == 1:
        # exact at any bound, and builds no group
        x = space.least_root(t)
        return None if x is None else (x,)
    if k == 2:
        return _scan_two(space, t)
    if workers > 1:
        return _scan_cells(space, t, k, outer, workers)
    rows = space.outer_roots(t, outer)
    return _scan_three_range(space, k, t, outer, rows, range(-outer, outer + 1))


def _scan_cell(
    space: _SearchSpace,
    k: int,
    t: Coeffs,
    outer: int,
    rows: _OuterRows,
    w0: int,
    w1: int,
    stop=None,
) -> tuple[Coeffs, ...] | None:
    """Least k-cube witness whose first root starts with (w0, w1), its
    pure part taken from the level's orbit-least ``rows``.

    ``stop``, when given, is called before each root; once it returns
    true the cell's result is no longer wanted and None comes back.
    """
    a, b = space.params.a, space.params.b
    for w2, w3 in rows[w1]:
        if stop is not None and stop():
            return None
        w = (w0, w1, w2, w3)
        res = _scan(space, _sub4(t, cube_coeffs(a, b, w)), k - 1, outer)
        if res is not None:
            return (w, *res)
    return None


# named for the 3-cube scan it began as: perfbench/tracing.py wraps it by
# this name and forwards its six arguments, w0_values last
def _scan_three_range(
    space: _SearchSpace,
    k: int,
    t: Coeffs,
    outer: int,
    rows: _OuterRows,
    w0_values,
) -> tuple[Coeffs, ...] | None:
    """Least k-cube witness whose first root starts with one of w0_values,
    taken in order, its pure part from the orbit-least ``rows``."""
    for w0 in w0_values:
        for w1 in rows:
            res = _scan_cell(space, k, t, outer, rows, w0, w1)
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
    """Keep the calling thread on ``cpus``; None (no affinity set) moves
    nothing, and where the OS refuses, it stays where it was."""
    if not cpus:
        return
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
    rows = space.outer_roots(t, outer)
    w1_values = list(rows)
    while True:
        before_cell()
        n = next_cell.value
        next_cell.value = n + 1
        if n >= least_hit.value:
            return None
        i, j = divmod(n, len(w1_values))
        w0, w1 = i - outer, w1_values[j]
        res = _scan_cell(space, k, t, outer, rows, w0, w1, lambda: least_hit.value < n)
        if res is not None:
            least_hit.value = min(n, least_hit.value)
            return n, res


def _cell_worker(params, bound, t, k, outer, next_cell, least_hit, conn, cpus) -> None:
    """A helper process of a parallel level: move to ``cpus`` first (see
    :func:`_pin`), then send what :func:`_take_cells` returns."""
    _pin(cpus)
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
    procs = []
    try:
        for i in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            # the parent keeps no write end, so a dead worker's pipe reads EOF
            with writer:
                proc = ctx.Process(
                    target=_cell_worker,
                    args=(space.params, space.bound, t, k, outer, next_cell, least_hit, writer,
                          cpus and cpus[i:i + 1]),
                    daemon=True,
                )
                proc.start()
            procs.append((proc, reader))
        _pin(cpus and cpus[workers - 1:])
        return _own_cells(space, t, k, outer, next_cell, least_hit, procs)
    finally:
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

    One cube is the target's least root, exact at any bound: a target
    whose norm is no cube is refused at once, and a cube's root is found
    by a scan of its real part that grows with the root's size.  Two cubes
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
