"""Failures that must surface as errors, checked in fresh interpreters.

The verification gates must hold under ``python -O``, which strips
``assert`` statements, a parallel search whose worker processes die
must fail instead of waiting for results that never come, and a
parallel search must always shut its workers down, whether it forked
them or spawned them.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
# the CPUs this process may run on, as _clamp_workers counts them
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _env():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _run(argv, timeout=120):
    return subprocess.run(
        [sys.executable, *argv], env=_env(), capture_output=True, text=True, timeout=timeout
    )


def _run_in_session(argv, timeout, what):
    """Run a script in its own session, so that a hang, its workers
    included, can be killed and fail the test instead of stalling it;
    return the process and its stdout and stderr."""
    proc = subprocess.Popen(
        [sys.executable, *argv], env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{what} did not end in {timeout} s")
    return proc, out, err


def _last_line_first(err):
    """An assertion message for a script's stderr: its last line, which
    names the failed check, then the whole of it, so that a cut log
    still keeps the line."""
    lines = err.strip().splitlines()
    return f"{lines[-1] if lines else '(no stderr)'}\n{err}"


_OPTIMIZED = """
import sys
if __debug__:
    sys.exit("assert statements are still enabled")
import quatcube.cli as cli
from quatcube import Decomposition, Quaternion, RingParams, SearchConfig, VerificationFailed
"""

# each body breaks one result and must end in VerificationFailed
_BROKEN = {
    "wrong cube formula in the decomposer": """
def wrong_cube(a, b, c):
    c0, c1, c2, c3 = c
    p = a * c1 * c1 + b * c2 * c2 + a * b * c3 * c3
    f = c0 * c0 - p  # the closed form has 3 * c0 * c0 - p
    return ((c0 * c0 - 3 * p) * c0, f * c1, f * c2, f * c3)

sys.modules["quatcube.decompose"].cube_coeffs = wrong_cube
run = lambda: cli.decompose_payload(Quaternion(RingParams(2, 1), 7, 1, 2, 3))
""",
    "cube-sum kernel that skips the last root, under an intact recipe": """
from quatcube.quat import cube_sum

sys.modules["quatcube.decompose"].cube_sum = lambda a, b, roots: cube_sum(a, b, roots[:-1])
run = lambda: cli.decompose_payload(Quaternion(RingParams(2, 1), 7, 1, 2, 3))
""",
    "cube-sum kernel that skips the last root, reaching the search payload": """
from quatcube.quat import cube_sum

sys.modules["quatcube.decompose"].cube_sum = lambda a, b, roots: cube_sum(a, b, roots[:-1])
run = lambda: cli.search_payload(Quaternion(RingParams(1, 1), 3, 3, 0, 0), SearchConfig(3, 10, 6))
""",
    "perturbed root reaching the decompose payload": """
decompose = cli.decompose

def tampered(alpha):
    dec = decompose(alpha)
    return Decomposition(dec.target, dec.roots[:-1] + (dec.roots[-1] + 1,), dec.case)

cli.decompose = tampered
run = lambda: cli.decompose_payload(Quaternion(RingParams(3, 2), 7, 1, 2, 3))
""",
    "wrong roots reaching the search payload": """
cli.min_cubes_search = lambda alpha, cfg, workers=1: [Quaternion(alpha.params, 1, 0, 0, 0)]
run = lambda: cli.search_payload(Quaternion(RingParams(1, 1), 3, 3, 0, 0), SearchConfig(3))
""",
    "flagship witness in another ring reaching the search payload": """
witness = [(-5, -4, -4, -2), (5, 2, 6, 3), (6, 1, 0, 0)]
cli.min_cubes_search = lambda alpha, cfg, workers=1: [
    Quaternion(RingParams(2, 1), *c) for c in witness
]
run = lambda: cli.search_payload(Quaternion(RingParams(1, 1), 3, 3, 0, 0), SearchConfig(3))
""",
}

_EXPECT_FAILURE = """
try:
    run()
except VerificationFailed:
    sys.exit(0)
sys.exit("the broken result was not refused")
"""


@pytest.mark.parametrize("broken", sorted(_BROKEN))
def test_verification_holds_under_python_O(broken):
    proc = _run(["-O", "-c", _OPTIMIZED + _BROKEN[broken] + _EXPECT_FAILURE])
    assert proc.returncode == 0, proc.stderr


_FAILING_VERIFY = """
import runpy
import sys

import quatcube

quatcube.verify = lambda dec: False
sys.argv = [sys.argv[1], "--count", "1"]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_reproduce_bounds_fails_on_an_unverified_decomposition_under_python_O():
    script = str(ROOT / "scripts" / "reproduce_bounds.py")
    proc = _run(["-O", "-c", _FAILING_VERIFY, script])
    assert proc.returncode == 1, proc.stderr
    assert "(1,1): the decomposition of" in proc.stderr
    assert "all decompositions verified" not in proc.stdout


_WRONG_WITNESS = """
import runpy
import sys

import quatcube

quatcube.min_cubes_search = lambda alpha, cfg, workers=1: [
    quatcube.Quaternion(alpha.params, 1, 0, 0, 0)
]
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_minimal_representations_fails_on_a_wrong_witness_under_python_O():
    script = str(ROOT / "scripts" / "minimal_representations.py")
    proc = _run(["-O", "-c", _WRONG_WITNESS, script])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.count("FAILS the exact check") == 4
    assert "error: a witness above fails the exact cube-sum check" in proc.stdout


_UNGUARDED = """
import sys
import threading

from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search

if sys.argv[1:] == ["thread"]:
    # a second thread makes the search spawn its workers, not fork them
    threading.Thread(target=threading.Event().wait, daemon=True).start()
# no `if __name__ == "__main__":` guard, so every spawned worker dies
# starting; a forked one does not run this script again
print(min_cubes_search(
    Quaternion(RingParams(1, 1), 3, 3, 0, 0),
    SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=1),
    workers=2,
))
"""


@pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
def test_dying_search_workers_raise_instead_of_hanging(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    proc = _run([str(script), "thread"], timeout=60)
    assert proc.returncode != 0
    assert "QuatcubeError" in proc.stderr
    assert "__main__" in proc.stderr


@pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
def test_unguarded_single_threaded_search_forks_and_finds_the_serial_witness(tmp_path):
    from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search

    serial = min_cubes_search(Quaternion(RingParams(1, 1), 3, 3, 0, 0), SearchConfig(3, 2, 1))
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    proc = _run([str(script)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{serial}\n"


# records each process started, the search's worker processes among them,
# and its arguments, which starting it drops
_RECORD_STARTS = """
import multiprocessing.process

started, started_args = [], []
_start = multiprocessing.process.BaseProcess.start


def _recorded(proc):
    started_args.append(proc._args)
    _start(proc)
    started.append(proc)


multiprocessing.process.BaseProcess.start = _recorded
"""

_START_METHOD = _RECORD_STARTS + """
import faulthandler
import json
import multiprocessing
import sys
import threading
from multiprocessing import resource_tracker

from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search

if __name__ == "__main__":
    if sys.argv[1] == "thread":
        threading.Thread(target=threading.Event().wait, daemon=True).start()
    elif sys.argv[1] == "watchdog":
        # a C thread, which the threading module does not see
        faulthandler.dump_traceback_later(600)
    # the witness's outer root sits in cell 22 of 25
    target = Quaternion(RingParams(2, 1), -192, -16, -16, 0)
    cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
    same = min_cubes_search(target, cfg, workers=2) == min_cubes_search(target, cfg)
    print(json.dumps({
        "same": same,
        "methods": [proc._start_method for proc in started],
        "tracker": resource_tracker._resource_tracker._pid is not None,
        "children": len(multiprocessing.active_children()),
    }))
"""


@pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
@pytest.mark.parametrize("other_thread, method, tracker", [
    ("none", "fork", False), ("thread", "spawn", True), ("watchdog", "spawn", True),
])
def test_workers_fork_only_when_the_search_has_no_other_thread(
    tmp_path, other_thread, method, tracker
):
    # a forked helper needs no new interpreter and no resource tracker; a
    # process with another thread spawns, as a fork could copy a held lock;
    # either way two workers are two helpers
    script = tmp_path / "start_method.py"
    script.write_text(_START_METHOD)
    proc = _run([str(script), other_thread], timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"same": True, "methods": [method] * 2, "tracker": tracker, "children": 0}


_KILLED_WORKER = """
import multiprocessing
import os
import signal
import sys
import threading
import time

from quatcube import QuatcubeError, Quaternion, RingParams, SearchConfig, min_cubes_search


def kill_one_worker():
    # with two workers two processes are spawned; wait for one, then for
    # it to build its first groups
    while not multiprocessing.active_children():
        time.sleep(0.01)
    time.sleep(0.5)
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)


if __name__ == "__main__":
    threading.Thread(target=kill_one_worker, daemon=True).start()
    try:
        # no witness in this box: about 2.5 s on two workers, more once
        # one is killed
        min_cubes_search(
            Quaternion(RingParams(1, 1), 4001, 2999, -1234, 777),
            SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=4),
            workers=2,
        )
    except QuatcubeError as exc:
        print(exc)
        left = multiprocessing.active_children()
        sys.exit(f"worker processes left: {left}" if left else 0)
    sys.exit("the search returned although a worker was killed")
"""


@pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
def test_search_worker_killed_mid_scan_raises(tmp_path):
    script = tmp_path / "killed_worker.py"
    script.write_text(_KILLED_WORKER)
    proc, out, err = _run_in_session([str(script)], 60, "a search with a killed worker")
    assert proc.returncode == 0, _last_line_first(err)
    assert "exited with code -9" in out


_KILLED_FORKED_WORKER = _RECORD_STARTS + """
import multiprocessing
import os
import signal
import sys
import time

from quatcube import QuatcubeError, Quaternion, RingParams, SearchConfig, min_cubes_search


def _killing(proc):
    _recorded(proc)
    # no thread may kill it, or the search would spawn it: wait for the
    # worker to build its first groups, then kill it from here
    time.sleep(0.5)
    os.kill(proc.pid, signal.SIGKILL)


multiprocessing.process.BaseProcess.start = _killing

# no witness in either box; in ring (3, 3) S_3 leaves out the target's
# signature, so its first worker starts at level 4
SEARCHES = {
    "3": (RingParams(1, 1), (4001, 2999, -1234, 777), SearchConfig(3, 10, 4)),
    "4": (RingParams(3, 3), (1003, 300, 600, -900), SearchConfig(4, 3, 2)),
}

if __name__ == "__main__":
    params, coeffs, cfg = SEARCHES[sys.argv[1]]
    try:
        min_cubes_search(Quaternion(params, *coeffs), cfg, workers=2)
    except QuatcubeError as exc:
        # the worker's arguments are (params, bound, t, k, ...)
        print(exc, started[0]._start_method, started_args[0][3])
        left = multiprocessing.active_children()
        sys.exit(f"worker processes left: {left}" if left else 0)
    sys.exit("the search returned although a worker was killed")
"""


@pytest.mark.skipif(CPUS < 2, reason="search workers need two CPUs")
@pytest.mark.parametrize("level", ["3", "4"])
def test_forked_search_worker_killed_mid_scan_raises(tmp_path, level):
    # as above, for a worker forked from a process with no other thread,
    # at the 3-cube and at the 4-cube stage
    script = tmp_path / "killed_forked_worker.py"
    script.write_text(_KILLED_FORKED_WORKER)
    proc, out, err = _run_in_session(
        [str(script), level], 60, "a search with a killed forked worker"
    )
    assert proc.returncode == 0, _last_line_first(err)
    assert "exited with code -9" in out and out.endswith(f" fork {level}\n")


_THREADED_SEARCHES = """
import sys
import threading

from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search

if __name__ == "__main__":
    cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
    targets = [Quaternion(RingParams(2, 1), -192, -16, -16, 0),
               Quaternion(RingParams(1, 1), -66, 8, 8, 10)]
    expected = [min_cubes_search(t, cfg) for t in targets]
    for _ in range(int(sys.argv[1])):
        results = [None, None]

        def run(i):
            results[i] = min_cubes_search(targets[i], cfg, workers=2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if results != expected:
            sys.exit(f"parallel results {results} differ from serial {expected}")
"""


@pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
def test_repeated_parallel_searches_from_threads_never_hang(tmp_path):
    # Stopping the workers once a hit is found must not hang the search,
    # not even in a fraction of a percent of searches, so many rounds run.
    script = tmp_path / "threaded_searches.py"
    script.write_text(_THREADED_SEARCHES)
    proc, _, err = _run_in_session(
        [str(script), "30"], 180, "30 rounds of two threaded parallel searches"
    )
    assert proc.returncode == 0, _last_line_first(err)


_FORKED_SEARCHES = _RECORD_STARTS + """
import multiprocessing
import signal
import sys

from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search

if __name__ == "__main__":
    cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
    # the third target is a sum of two cubes, found before a worker starts
    targets = [Quaternion(RingParams(2, 1), -192, -16, -16, 0),
               Quaternion(RingParams(1, 1), -66, 8, 8, 10),
               Quaternion(RingParams(1, 1), -39, -13, 17, -3)]
    expected = [min_cubes_search(t, cfg) for t in targets]
    rounds = int(sys.argv[1])
    for _ in range(rounds):
        for target, want in zip(targets, expected):
            got = min_cubes_search(target, cfg, workers=2)
            if got != want:
                sys.exit(f"parallel result {got} differs from serial {want}")
            left = multiprocessing.active_children()
            if left:
                sys.exit(f"worker processes left: {left}")
    # two of the three targets reach the 3-cube stage, which forks two helpers
    if [proc._start_method for proc in started] != ["fork"] * 4 * rounds:
        sys.exit("the workers were not all forked, or a 2-cube search started one")
    if not any(proc.exitcode == -signal.SIGTERM for proc in started):
        sys.exit("no worker was terminated")
"""


@pytest.mark.skipif(CPUS < 2, reason="3-cube workers need two CPUs")
def test_repeated_forked_parallel_searches_never_hang(tmp_path):
    # The single-threaded counterpart of the test above: every search that
    # reaches the 3-cube stage forks its helpers there and terminates them,
    # often mid-scan, once a hit is found.  The session also lets any
    # process left behind be found by its group.
    script = tmp_path / "forked_searches.py"
    script.write_text(_FORKED_SEARCHES)
    proc, _, err = _run_in_session(
        [str(script), "50"], 180, "50 rounds of three forked parallel searches"
    )
    assert proc.returncode == 0, _last_line_first(err)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# logs, from every process of each parallel level, the CPUs a helper
# inherits and the CPUs each process scans its cells on
_PLACEMENT = """
import json
import os
import sys
import threading

from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search, search

LOG = sys.argv[1]


def record(what):
    with open(LOG, "a") as f:
        f.write(json.dumps([what, os.getpid(), sorted(os.sched_getaffinity(0))]) + "\\n")


# patched outside the guard, so a spawned helper, which runs this file
# again, logs too
cell_worker, take_cells = search._cell_worker, search._take_cells


def recorded_worker(*args):
    record("inherited")
    cell_worker(*args)


def recorded_take(*args):
    record("scan")
    return take_cells(*args)


search._cell_worker, search._take_cells = recorded_worker, recorded_take

if __name__ == "__main__":
    if sys.argv[2] == "thread":
        # a second thread makes the search spawn its helpers
        threading.Thread(target=threading.Event().wait, daemon=True).start()
    cfg = SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=2)
    # a hit in cell 22 of 25, then no witness in the box
    for coeffs in [(-192, -16, -16, 0), (3, 37, -3, 0)]:
        target = Quaternion(RingParams(2, 1), *coeffs)
        if min_cubes_search(target, cfg, workers=int(sys.argv[3])) != min_cubes_search(target, cfg):
            sys.exit("the parallel result differs from the serial one")
        record("after")
    print(os.getpid())
"""


@pytest.mark.skipif(CPUS < 2, reason="placement needs two CPUs")
@pytest.mark.parametrize(
    "other_thread, workers",
    [("none", 2), ("thread", 2)] + ([("none", min(CPUS, 4))] if CPUS > 2 else []),
)
def test_each_process_of_a_parallel_level_scans_on_its_own_cpus(tmp_path, other_thread, workers):
    # helpers start with the caller's whole set and helper i of n moves to
    # every n-th CPU of it from the i-th on; the caller scans no cell and
    # never moves
    script, log = tmp_path / "placement.py", tmp_path / "placement.log"
    script.write_text(_PLACEMENT)
    before = sorted(os.sched_getaffinity(0))
    proc = _run([str(script), str(log), other_thread, str(workers)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    caller = int(proc.stdout)
    levels = [[]]
    for what, pid, cpus in map(json.loads, log.read_text().splitlines()):
        if what == "after":
            assert (pid, cpus) == (caller, before)
            levels.append([])
        else:
            levels[-1].append((what, pid, cpus))
    assert len(levels) == 3 and levels[-1] == []
    for level in levels[:-1]:
        inherited = {pid: cpus for what, pid, cpus in level if what == "inherited"}
        scans = {pid: cpus for what, pid, cpus in level if what == "scan"}
        assert len(inherited) == workers and caller not in inherited
        assert list(inherited.values()) == [before] * workers
        assert set(scans) == set(inherited)
        assert sorted(map(tuple, scans.values())) == [tuple(before[i::workers]) for i in range(workers)]


# logs the (w0, w1) cell of each outer root that any process of the
# parallel level scans, and prints the search's result and its own pid
_CELLS = """
import json
import os
import sys
import threading

from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search, search

LOG = sys.argv[1]
scan_cell = search._scan_cell


def recorded(space, k, t, outer, rows, w0, w1, stop=None):
    with open(LOG, "a") as f:
        f.write(json.dumps([os.getpid(), w0, w1]) + "\\n")
    return scan_cell(space, k, t, outer, rows, w0, w1, stop)


# patched outside the guard, so a spawned helper, which runs this file
# again, logs too
search._scan_cell = recorded

if __name__ == "__main__":
    if sys.argv[2] == "thread":
        threading.Thread(target=threading.Event().wait, daemon=True).start()
    # no witness in this box of 81 cells, so no cell stops early
    target = Quaternion(RingParams(2, 1), 3, 37, -3, 0)
    print(json.dumps([min_cubes_search(target, SearchConfig(3, 2, 4), workers=2), os.getpid()]))
"""


@pytest.mark.skipif(CPUS < 2, reason="search workers need two CPUs")
@pytest.mark.parametrize("other_thread", ["none", "thread"])
def test_helpers_scan_every_cell_of_a_level_with_no_witness(tmp_path, other_thread):
    # forked or spawned, the two helpers' cells together cover the level,
    # and the search's own process scans none of them
    from quatcube import RingParams
    from quatcube.box import _SearchSpace

    script, log = tmp_path / "cells.py", tmp_path / "cells.log"
    script.write_text(_CELLS)
    proc = _run([str(script), str(log), other_thread], timeout=60)
    assert proc.returncode == 0, _last_line_first(proc.stderr)
    found, caller = json.loads(proc.stdout)
    rows = _SearchSpace(RingParams(2, 1), 2).outer_roots((3, 37, -3, 0), 4)
    cells = {(w0, w1) for w0 in range(-4, 5) for w1 in rows}
    scanned = [tuple(entry) for entry in map(json.loads, log.read_text().splitlines())]
    by_pid = {pid for pid, _, _ in scanned}
    assert found is None and len(cells) == 81
    # a race may give one cell to both helpers, but skips none
    assert {(w0, w1) for _, w0, w1 in scanned} == cells
    assert by_pid and caller not in by_pid and len(by_pid) <= 2


_DEAD_HELPER_CPUS = _RECORD_STARTS + """
import json
import os
import signal
import sys

from quatcube import QuatcubeError, Quaternion, RingParams, SearchConfig, min_cubes_search


def _killing(proc):
    _recorded(proc)
    os.kill(proc.pid, signal.SIGKILL)


multiprocessing.process.BaseProcess.start = _killing

if __name__ == "__main__":
    before = sorted(os.sched_getaffinity(0))
    try:
        # no witness in this box of 81 cells
        min_cubes_search(
            Quaternion(RingParams(2, 1), 3, 37, -3, 0), SearchConfig(3, 2, 4), workers=2
        )
    except QuatcubeError as exc:
        print(json.dumps([str(exc), before, sorted(os.sched_getaffinity(0))]))
        sys.exit(0)
    sys.exit("the search returned although its helper was killed")
"""


@pytest.mark.skipif(CPUS < 2, reason="placement needs two CPUs")
def test_search_with_a_dead_helper_leaves_the_caller_on_its_cpus(tmp_path):
    script = tmp_path / "dead_helper_cpus.py"
    script.write_text(_DEAD_HELPER_CPUS)
    proc = _run([str(script)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    message, before, after = json.loads(proc.stdout)
    assert "exited with code -9" in message
    assert after == before == sorted(os.sched_getaffinity(0))
