#!/usr/bin/env python3
"""The quatcube benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload decompose-small --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists and what it should move):
decompose-small, decompose-huge, search-deep, certify; ``--workload all``
runs the four in turn in one process.  Every workload is a closed loop
with one client.  Inputs come from ``--seed`` only.
Every output is checked by ``checker.py``, which shares no arithmetic
with quatcube.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is a separate run: it times an untraced pass, then a
traced pass over the same inputs, and reports the per-layer metrics and
the tracing overhead.  Report lines go to stdout; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("decompose-small", "decompose-huge", "search-deep", "certify")
# (coefficient digits, number of distinct targets the loop cycles through);
# few enough that each target is timed dozens of times in a run
DECOMPOSE_POOL = {"decompose-small": (6, 1024), "decompose-huge": (1000, 256)}
SETUP_PROBES = 7
TRACE_PROBES = 3
# CLI timings: this many distinct inputs per workload, each run CLI_REPEATS
# times; cli_ms is the median over the inputs of each one's best run
CLI_INPUTS = {"decompose-small": 5, "decompose-huge": 5, "certify": 1}
CLI_REPEATS = 5
# p99.9 is left out: on a shared machine its run-to-run spread was wider
# than any bound the benchmark may set.  Below p90 it is no longer a tail.
TAIL_LADDER = (99.0, 95.0, 90.0)
# Printed on report lines but not gated (not in BENCHMARK.json): one-shot
# CLI wall times swing with the shared machine's speed more than any bound
# allows, and a fresh interpreter's cost is gated through setup_s.
REPORTED = {"cli_ms": "ms", "search_s": "s", "search_workers2_s": "s"}


class Tally:
    """Checked outputs: every op attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)
        return False

    def check(self, fn, *args) -> None:
        """Record the verdict fn returns; an exception counts as failed."""
        done, problem = self.run(fn, *args)
        if done:
            self.record(problem)

    def run(self, fn, *args):
        """Call fn; an exception counts as a failed op.  Returns (ok, out)."""
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.record(f"{type(exc).__name__}: {exc}")
            return False, None
        return True, out


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child(NamedTuple):
    wall: float  # seconds from spawn to exit
    first_line: float  # seconds from spawn to the first line on stdout
    code: int
    out: bytes
    err: bytes
    peak_rss_kb: int  # of the child and the descendants it waited for

    def failure(self, what: str) -> str:
        return f"{what} exited {self.code}: {self.err.decode(errors='replace')[-300:]}"


def run_child(cmd: list[str]) -> Child:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.readline()
    first_line = time.perf_counter() - t0
    out += proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall, first_line, proc.returncode, out, err, usage.ru_maxrss)


def run_cli(argv: list[str]) -> Child:
    return run_child([sys.executable, "-m", "quatcube.cli", *argv])


def probe_once(workload: str, item, tally: Tally, setup: list, imports: list) -> None:
    """Spawn a fresh interpreter that imports the package and runs the
    warm-up op on ``item``; append its spawn-to-ready seconds and import ms."""
    probe = run_child([sys.executable, str(Path(__file__).parent / "probe.py"),
                       workload, json.dumps(item)])
    setup.append(probe.first_line)
    try:
        report = json.loads(probe.out)
    except ValueError:
        tally.record(probe.failure("set-up probe"))
        return
    tally.record(report["problem"])
    imports.append(report["import_ms"])


def probe_setup(workload: str, item, count: int, tally: Tally) -> tuple[list, list]:
    setup, imports = [], []
    for _ in range(count):
        probe_once(workload, item, tally, setup, imports)
    return setup, imports


def timed_loop(seconds: float, step, side_tasks: list) -> None:
    """Call step() until ``seconds`` of loop time have passed.  The side
    tasks (set-up probes, CLI runs) run between steps, evenly spaced, and
    their time does not count, so every sample spans the same stretch of
    the machine's varying speed."""
    gap = seconds / (len(side_tasks) + 1)
    start = time.perf_counter()
    paused, done = 0.0, 0
    while (elapsed := time.perf_counter() - start - paused) < seconds:
        if done < len(side_tasks) and elapsed >= gap * (done + 1):
            t0 = time.perf_counter()
            side_tasks[done]()
            paused += time.perf_counter() - t0
            done += 1
        else:
            step()
    for task in side_tasks[done:]:
        task()


def interleave(first: list, second: list) -> list:
    out = []
    for idx in range(max(len(first), len(second))):
        out += first[idx:idx + 1] + second[idx:idx + 1]
    return out


# ---------------------------------------------------------------- statistics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest ladder percentile
    that leaves at least 10 samples beyond it, by nearest rank.  With too
    few samples for any, the slowest sample (100th, 0 beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- end to end


def best_metrics(best_ns: list[float], passes: int, setup: list, cli_best: list) -> tuple[dict, dict]:
    """End-to-end metrics from each input's best time over its repeats.

    The machine is shared, so any op can be slowed by what else runs; an
    input's fastest repeat is the least disturbed reading of its cost.
    Inputs that never passed their check have no best and are left out
    (their failures are already in the tally)."""
    best = [b for b in best_ns if b < math.inf] or [math.nan]
    cli_best = [b for b in cli_best if b < math.inf] or [math.nan]
    pct, worst, beyond = tail(best)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(best) / (sum(best) / 1e9),
        "latency_p50_ms": statistics.median(best) / 1e6,
        "latency_tail_ms": worst / 1e6,
        "cli_ms": statistics.median(cli_best) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "ops_per_s": f"{len(best)} inputs over the sum of their best times",
        "latency_p50_ms": f"median over {len(best)} inputs of each one's best of {passes} repeats",
        "latency_tail_ms": f"p{pct:g} of those bests, {beyond} beyond",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "cli_ms": f"median over {len(cli_best)} inputs of each one's best of {CLI_REPEATS} CLI runs",
    }
    return metrics, notes


def measure_decompose(workload: str, seed: int, seconds: float, tally: Tally):
    import workloads
    from quatcube import RingParams

    digits, size = DECOMPOSE_POOL[workload]
    pool = workloads.decompose_inputs(seed, digits, size)
    tally.check(workloads.warmup, workload, pool[0])
    items = [(RingParams(*ring), text, ring, target) for ring, text, target in pool]
    op, check = workloads.decompose_op, workloads.checker.check_decompose
    clock = time.perf_counter_ns
    best, done_ops, setup = [math.inf] * size, 0, []
    checked: list[str | None] = [None] * size  # each input's first output that passed
    cli_best = [math.inf] * CLI_INPUTS[workload]

    def step():
        # a repeat that returns the checked output again needs no new check
        nonlocal done_ops
        idx = done_ops % size
        params, text, ring, target = items[idx]
        t0 = clock()
        done, out = tally.run(op, params, text)
        elapsed = clock() - t0
        done_ops += 1
        if done and tally.record(None if out == checked[idx] else check(out, ring, target)):
            checked[idx] = out
            best[idx] = min(best[idx], elapsed)

    def cli(idx):
        ring, text, target = pool[idx]
        run = run_cli(workloads.decompose_cli_argv(ring, text))
        expect = (op(RingParams(*ring), text) + "\n").encode()
        if run.code != 0:
            tally.record(run.failure("decompose CLI"))
        elif run.out != expect:
            tally.record("decompose CLI stdout differs from the in-process payload")
        elif tally.record(check(run.out.decode(), ring, target)):
            cli_best[idx] = min(cli_best[idx], run.wall)

    probes = [lambda: probe_once(workload, pool[0], tally, setup, [])] * SETUP_PROBES
    clis = [lambda idx=idx: cli(idx) for _ in range(CLI_REPEATS) for idx in range(len(cli_best))]
    timed_loop(seconds, step, interleave(clis, probes))
    return best_metrics(best, done_ops // size, setup, cli_best)


def measure_certify(workload: str, seed: int, seconds: float, tally: Tally):
    import workloads

    units = workloads.certify_inputs(seed)
    tally.check(workloads.warmup, "certify", units)
    clock = time.perf_counter_ns
    best, passes, setup, cli_best = [math.inf] * len(units), 0, [], [math.inf]

    def step():
        # one certification pass, each unit timed on its own; the pass is
        # checked as a whole, so its units' times count only if it passes
        nonlocal passes
        outs, times = [], []
        for kind, arg in units:
            t0 = clock()
            done, out = tally.run(workloads.certify_op, kind, arg)
            times.append(clock() - t0)
            if not done:
                return
            outs.append(out)
        passes += 1
        if tally.record(workloads.check_certify_pass(units, outs)):
            best[:] = map(min, best, times)

    def cli():
        run = run_cli(["check-lemmas", "--json"])
        if run.code != 0:
            tally.record(run.failure("check-lemmas"))
        elif tally.record(workloads.checker.check_lemmas_cli(run.out)):
            cli_best[0] = min(cli_best[0], run.wall)

    probes = [lambda: probe_once("certify", units, tally, setup, [])] * SETUP_PROBES
    timed_loop(seconds, step, interleave([cli] * CLI_REPEATS, probes))
    metrics, notes = best_metrics(best, passes, setup, cli_best)
    notes["ops_per_s"] = (f"one op is one of the {len(units)} certification units; "
                          "units over the sum of their best times")
    notes["cli_ms"] = f"best of {CLI_REPEATS} check-lemmas runs"
    return metrics, notes


def measure_search(workload: str, seed: int, seconds: float, tally: Tally):
    import workloads

    setup, _ = probe_setup("search-deep", workloads.search_warmup_input(seed), SETUP_PROBES, tally)
    workers = min(2, os.cpu_count() or 1)
    runs = [run_cli(workloads.FLAGSHIP_ARGV),
            run_cli(workloads.FLAGSHIP_ARGV + ["--workers", str(workers)])]
    problem = next((run.failure("search CLI") for run in runs if run.code != 0), None)
    if problem is None:
        problem = workloads.checker.check_search(runs[0].out, runs[1].out)
    ok = sum(tally.record(problem) for _ in runs)  # the two runs are checked together
    walls = [run.wall for run in runs]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": max(walls) * 1e3,
        "peak_rss_mb": max(run.peak_rss_kb for run in runs) / 1024,
        "search_s": walls[0],
        "search_workers2_s": walls[1],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, each building the search tables",
        "ops_per_s": "one op is one flagship CLI search",
        "latency_tail_ms": "slowest of the 2 ops (p100, 0 beyond)",
        "peak_rss_mb": "largest CLI child, pool workers included",
        "search_s": "the serial run",
        "search_workers2_s": f"the --workers {workers} run",
    }
    return metrics, notes


# ---------------------------------------------------------------- traced run

def layer_metrics(summary: dict, counts: dict, ops: int) -> dict:
    """Per-op figures every workload shares; layers it never calls read 0."""

    def s(name, key):
        return summary.get(name, {}).get(key, 0)

    residues = [v for k, v in summary.items() if k.startswith("residues.")]
    return {
        "cli.payload_self_ms": s("cli.decompose_payload", "self_ms") / ops,
        "parser.self_ms": s("parser.parse_quaternion", "self_ms") / ops,
        "quat.objects": counts.get("quat.objects", 0) / ops,
        "quat.cube_calls": s("quat.cube", "calls") / ops,
        "quat.cube_ms": s("quat.cube", "total_ms") / ops,
        "decompose.self_ms": s("decompose.decompose", "self_ms") / ops,
        "decompose.verify_calls": s("decompose.verify", "calls") / ops,
        "decompose.verify_ms": s("decompose.verify", "total_ms") / ops,
        "residues.calls": sum(v["calls"] for v in residues) / ops,
        "residues.self_ms": sum(v["self_ms"] for v in residues) / ops,
    }


@contextlib.contextmanager
def traced():
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def digit_count(text: str) -> int:
    return sum(text.count(d) for d in "0123456789")


def trace_decompose(workload: str, seed: int, tally: Tally):
    import workloads
    from quatcube import RingParams

    digits, size = DECOMPOSE_POOL[workload]
    pool = workloads.decompose_inputs(seed, digits, size)
    _, imports = probe_setup(workload, pool[0], TRACE_PROBES, tally)
    tally.check(workloads.warmup, workload, pool[0])
    items = [(RingParams(*ring), text, ring, target) for ring, text, target in pool]
    check = workloads.checker.check_decompose

    def one_pass(tracer=None) -> tuple[int, list]:
        busy, outs = 0, []
        for idx, (params, text, ring, target) in enumerate(items):
            if tracer is not None:
                tracer.current_op = idx
            t0 = time.perf_counter_ns()
            done, out = tally.run(workloads.decompose_op, params, text)
            busy += time.perf_counter_ns() - t0
            if done and tally.record(check(out, ring, target)):
                outs.append((ring, out))
        return busy, outs

    untraced_ns, _ = one_pass()
    with traced() as tracer:
        traced_ns, outs = one_pass(tracer)
    summary = tracer.summary()

    routes = {"reduced": 0, "case3": 0, "pair": 0, "swapped": 0}
    out_digits = 0
    for ring, out in outs:
        payload = json.loads(out)
        routes[{4: "reduced", 5: "case3", 6: "pair"}[payload["count"]]] += 1
        if payload["case"] in ("Case2b", "Case2c") and ring[0] % 3 == 0:
            routes["swapped"] += 1
        out_digits += digit_count(out)

    metrics = layer_metrics(summary, tracer.counts, size)
    metrics.update({f"decompose.route.{k}": v for k, v in routes.items()})
    metrics["cli.import_ms"] = statistics.median(imports or [0.0])
    metrics["cli.format_digits"] = out_digits / size
    metrics["parser.digits"] = sum(digit_count(text) for _, text, _ in pool) / size
    metrics["trace.overhead_pct"] = (traced_ns / untraced_ns - 1) * 100
    return metrics, summary, tracer, {"ops": size}


def trace_certify(workload: str, seed: int, tally: Tally):
    import workloads

    units = workloads.certify_inputs(seed)
    _, imports = probe_setup("certify", units, TRACE_PROBES, tally)
    tally.check(workloads.warmup, "certify", units)

    def one_pass(tracer=None) -> tuple[int, list]:
        outs = []
        t0 = time.perf_counter_ns()
        for idx, (kind, arg) in enumerate(units):
            if tracer is not None:
                tracer.current_op = idx
            outs.append(workloads.certify_op(kind, arg))
        return time.perf_counter_ns() - t0, outs

    untraced_ns, outs = one_pass()
    tally.record(workloads.check_certify_pass(units, outs))
    with traced() as tracer:
        traced_ns, outs = one_pass(tracer)
    tally.record(workloads.check_certify_pass(units, outs))
    summary = tracer.summary()
    reports = [out for (kind, _), out in zip(units, outs) if kind == "lemma"]

    def total(*names):
        return sum(summary.get(n, {}).get("total_ms", 0) for n in names)

    metrics = layer_metrics(summary, tracer.counts, 1)
    metrics.update({
        "cli.import_ms": statistics.median(imports or [0.0]),
        "certify.lemma_ms": total("search.lemma_residue_check"),
        "certify.obstruction_ms": total("search.two_cube_obstruction",
                                        "search.three_cube_residues_mod9"),
        "certify.recipe_calls": sum(summary.get(n, {}).get("calls", 0) for n in
                                    ("decompose.cube_root_congruence", "decompose.select_pair")),
        "certify.classes_checked": sum(r.classes_checked for r in reports),
        "certify.pair_targets": sum(r.pair_targets_checked for r in reports),
        "trace.overhead_pct": (traced_ns / untraced_ns - 1) * 100,
    })
    return metrics, summary, tracer, {"ops": 1, "units": len(units)}


def trace_search(workload: str, seed: int, tally: Tally):
    import quatcube.cli as cli
    import workloads

    _, imports = probe_setup("search-deep", workloads.search_warmup_input(seed), TRACE_PROBES, tally)
    search = sys.modules["quatcube.search"]

    def flagship() -> tuple[float, bytes]:
        search._MOD9_CACHE.clear()  # so each run builds its mod-9 tables
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(workloads.FLAGSHIP_ARGV))
        wall = time.perf_counter() - t0
        tally.record(None if code == 0 else f"in-process search returned {code}")
        return wall, buf.getvalue().encode()

    untraced_s, plain = flagship()
    with traced() as tracer:
        traced_s, out = flagship()
    summary = tracer.summary()
    tally.record(workloads.checker.check_search(plain, out))

    def s(name, key):
        return summary.get(name, {}).get(key, 0)

    # outer candidates up to and including the witness's outer root, from
    # its lexicographic position in the outer box
    outer = workloads.FLAGSHIP_OUTER
    visited = 1 + sum((c + outer) * (2 * outer + 1) ** (3 - i)
                      for i, c in enumerate(workloads.checker.FLAGSHIP_ROOTS[0]))
    slices = tracer.durations_ms("search.slice")
    in_slices = tracer.calls_under("search.scan_two", "search.slice")
    metrics = layer_metrics(summary, tracer.counts, 1)
    metrics.update({
        "cli.import_ms": statistics.median(imports or [0.0]),
        "search.mod9_build_ms": s("search.mod9_tables", "total_ms"),
        "search.table_build_ms": s("search.table", "total_ms"),
        "search.table_entries": tracer.counts.get("search.table_entries", 0),
        "search.class_group_ms": s("search.by_class", "total_ms"),
        "search.outer_visited": visited,
        "search.scan_two_calls": s("search.scan_two", "calls"),
        "search.sieve_pass_ratio": in_slices / visited,
        "search.scan_two_ms": s("search.scan_two", "self_ms"),
        "search.scan_two_us_per_call": (s("search.scan_two", "self_ms") * 1e3
                                        / max(1, s("search.scan_two", "calls"))),
        "search.slices": len(slices),
        "search.slice_ms_max": max(slices, default=0.0),
        "trace.overhead_pct": (traced_s / untraced_s - 1) * 100,
    })
    return metrics, summary, tracer, {"ops": 1, "scan_two_in_slices": in_slices}


# ---------------------------------------------------------------- report


def provenance() -> dict:
    files = sorted((SRC / "quatcube").glob("*.py"))
    lines = {f.name: len(f.read_bytes().splitlines()) for f in files}
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "wc_l_src_quatcube": {**lines, "total": sum(lines.values())},
        "note": (f"{nproc}-core machine shared with other tenants, so timings are noisy; "
                 "system-wide tracing and dropping the page cache are not allowed there, "
                 "so layers are timed by wrappers inside the benchmark process"),
    }


MEASURE = {"decompose-small": measure_decompose, "decompose-huge": measure_decompose,
           "search-deep": measure_search, "certify": measure_certify}
TRACE = {"decompose-small": trace_decompose, "decompose-huge": trace_decompose,
         "search-deep": trace_search, "certify": trace_certify}


def run_workload(workload: str, args, units: dict, tally: Tally) -> dict:
    """Run one workload, print its report lines and return its metrics."""
    print(f"quatcube benchmark: workload {workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    failed_before, attempted_before = tally.failed, tally.attempted
    if args.trace:
        layer, summary, tracer, extra = TRACE[workload](workload, args.seed, tally)
        metrics = {name: layer.get(name, 0) for name in units}
        print(f"  {'span':36} {'calls':>9} {'total ms':>12} {'self ms':>12}")
        for name, agg in summary.items():
            print(f"  {name:36} {agg['calls']:>9} {agg['total_ms']:>12.3f} {agg['self_ms']:>12.3f}")
        for name, value in {**metrics, **layer}.items():
            print(f"  {name:32} {value}{'' if name in units else '  (not in BENCHMARK.json)'}")
        path = OUT / f"trace-{workload}-seed{args.seed}.tsv.gz"
        tracer.write(path, {"workload": workload, "seed": args.seed, **extra,
                            "metrics": metrics, "provenance": provenance()})
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        measured, notes = MEASURE[workload](workload, args.seed, args.seconds, tally)
        for name, value in measured.items():
            gate = "" if name in units else "(not gated) "
            print(f"  {name:17} {value:>14.4f} {units.get(name) or REPORTED[name]:5} "
                  f"{gate}{notes.get(name, '')}")
        metrics = {name: measured[name] for name in units}
    failed = tally.failed - failed_before
    attempted = tally.attempted - attempted_before
    ratio = failed / attempted if attempted else 1.0
    print(f"  fail_ratio {ratio:.6f} ({failed} of {attempted} checked ops failed)")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all four in turn in this process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "quatcube" / "__init__.py").is_file():
        print(f"error: no quatcube package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quatcube

    if Path(quatcube.__file__).resolve().parent != (SRC / "quatcube").resolve():
        print(f"error: imported quatcube from {quatcube.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally = Tally()
    if args.workload == "all":
        # one result line for all four, its metrics named workload/metric
        metrics = {f"{workload}/{name}": (value, units[name])
                   for workload in WORKLOADS
                   for name, value in run_workload(workload, args, units, tally).items()}
    else:
        metrics = {name: (value, units[name])
                   for name, value in run_workload(args.workload, args, units, tally).items()}

    for problem in tally.problems:
        print(f"    {problem}")
    print("provenance " + json.dumps(provenance()))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        # a metric no op could measure (every one failed) reads null
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
