"""Spans and counts taken at layer boundaries, from outside the package.

A traced run swaps module attributes of quatcube (and of the
benchmark's own ``workloads`` module) for wrappers that record a span:
its name, start, end, parent span and op id.  Spans stay in memory, in
flat arrays, until the run ends.  ``Quaternion.__init__`` is only
counted: a span per object would cost more than the construction.
Nothing under ``src/`` is edited; ``restore`` puts every attribute back.

Wrappers add their own cost to each call they time, most visibly for
the tiny residue helpers, so layer self times from a traced run are
upper bounds; the run reports its overhead against an untraced pass.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total ms and self ms (total minus the time
        covered by direct children)."""
        n = len(self.name_id)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(self.names[self.name_id[i]], [0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - covered[i]
        return {
            name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
            for name, (c, t, s) in sorted(out.items())
        }

    def calls_under(self, name: str, parent_name: str) -> int:
        nid, pid = self._ids.get(name), self._ids.get(parent_name)
        return sum(
            1
            for i in range(len(self.name_id))
            if self.name_id[i] == nid and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == pid
        )

    def durations_ms(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [
            (self.end[i] - self.start[i]) / 1e6
            for i in range(len(self.name_id))
            if self.name_id[i] == nid
        ]

    def write(self, path, header: dict) -> None:
        """A JSON header line, then one tab-separated span per line:
        name, start ns, end ns, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "counts": self.counts}) + "\n")
            names = self.names
            for i in range(len(self.name_id)):
                fh.write(f"{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")


_RESIDUE_HELPERS = ("classify_case", "delta", "in_S", "in_T2", "in_T3", "lnr6")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import quatcube.cli as cli
    import quatcube.quat as quat
    import workloads

    # quatcube.decompose on the package is the function; the module is here
    dec = sys.modules["quatcube.decompose"]
    search = sys.modules["quatcube.search"]

    def span(name):
        return lambda fn: tracer.span(name, fn)

    for attr, name in (
        ("parse_quaternion", "parser.parse_quaternion"),
        ("decompose_payload", "cli.decompose_payload"),
        ("format_payload", "cli.format_payload"),
        ("lower_bounds_payload", "cli.lower_bounds_payload"),
        ("lemma_residue_check", "search.lemma_residue_check"),
    ):
        tracer.patch(workloads, attr, span(name))
    for attr, name in (
        ("parse_quaternion", "parser.parse_quaternion"),
        ("search_payload", "cli.search_payload"),
        ("decompose", "decompose.decompose"),
        ("verify", "decompose.verify"),
        ("cube", "quat.cube"),
        ("classify_case", "residues.classify_case"),
        ("min_cubes_search", "search.min_cubes_search"),
        ("two_cube_obstruction", "search.two_cube_obstruction"),
        ("three_cube_residues_mod9", "search.three_cube_residues_mod9"),
    ):
        tracer.patch(cli, attr, span(name))
    for module, attrs in (
        (dec, ("verify", "select_pair", "cube_root_congruence", "cube", "swap_iso")
         + _RESIDUE_HELPERS),
        (search, ("_scan_two", "select_pair", "cube_root_congruence", "cube", "swap_iso",
                  "classify_case", "in_S", "in_T2", "in_T3")),
    ):
        for attr in attrs:
            home = getattr(module, attr).__module__.rsplit(".", 1)[-1]
            tracer.patch(module, attr, span(f"{home}.{attr.lstrip('_')}"))

    def sized(table):
        # also records how many (root, cube) entries the table was built from
        @functools.wraps(table)
        def build(space):
            got = table(space)
            entries = space._entries
            tracer.counts["search.table_entries"] = len(got if entries is None else entries)
            return got

        return tracer.span("search.table", build)

    tracer.patch(search._SearchSpace, "table", sized)
    tracer.patch(search._SearchSpace, "by_class", span("search.by_class"))
    tracer.patch(search._Mod9Tables, "__init__", span("search.mod9_tables"))
    tracer.patch(quat.Quaternion, "__init__", lambda fn: tracer.counter("quat.objects", fn))

    def sliced(scan_range):
        # The serial 3-cube scan walks w0 slices in order and returns the
        # first hit.  Calling it once per slice, the way the parallel pool
        # hands a slice to a worker, returns the same result and times
        # each slice on its own.
        one_slice = tracer.span("search.slice", scan_range)

        def scan_by_slice(space, tabs, t, outer, first_ok, w0_values):
            for w0 in w0_values:
                res = one_slice(space, tabs, t, outer, first_ok, (w0,))
                if res is not None:
                    return res
            return None

        return scan_by_slice

    tracer.patch(search, "_scan_three_range", sliced)
