"""Failures that must surface as errors, checked in fresh interpreters.

The verification gates must hold under ``python -O``, which strips
``assert`` statements, a parallel search whose worker processes die
must fail instead of waiting for results that never come, and a
parallel search must always shut its workers down.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _run(argv, timeout=120):
    return subprocess.run(
        [sys.executable, *argv], env=_env(), capture_output=True, text=True, timeout=timeout
    )


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


_UNGUARDED = """
from quatcube import Quaternion, RingParams, SearchConfig, min_cubes_search

# no `if __name__ == "__main__":` guard, so every spawned worker dies starting
min_cubes_search(
    Quaternion(RingParams(1, 1), 3, 3, 0, 0),
    SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=1),
    workers=2,
)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a 3-cube pool needs two CPUs")
def test_dying_search_workers_raise_instead_of_hanging(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    proc = _run([str(script)], timeout=60)
    assert proc.returncode != 0
    assert "QuatcubeError" in proc.stderr
    assert "__main__" in proc.stderr


_KILLED_WORKER = """
import multiprocessing
import os
import signal
import sys
import threading
import time

from quatcube import QuatcubeError, Quaternion, RingParams, SearchConfig, min_cubes_search


def kill_one_worker():
    # with two workers one process is spawned; wait for it, then for it
    # to build its first groups
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


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="3-cube workers need two CPUs")
def test_search_worker_killed_mid_scan_raises(tmp_path):
    # The script runs in its own session so that a hang, workers included,
    # can be killed and fail the test instead of stalling it.
    script = tmp_path / "killed_worker.py"
    script.write_text(_KILLED_WORKER)
    proc = subprocess.Popen(
        [sys.executable, str(script)], env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a search with a killed worker did not end in 60 s")
    assert proc.returncode == 0, err
    assert "exited with code -9" in out


_THREADED_POOLS = """
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


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a 3-cube pool needs two CPUs")
def test_repeated_parallel_searches_from_threads_never_hang(tmp_path):
    # Killing pool workers once a hit is found could leave a queue lock
    # held and hang the pool's shutdown, in a fraction of a percent of
    # searches, so many rounds run.
    # The searches run in their own session so that a hang, workers
    # included, can be killed and fail the test instead of stalling it.
    script = tmp_path / "threaded_pools.py"
    script.write_text(_THREADED_POOLS)
    proc = subprocess.Popen(
        [sys.executable, str(script), "30"], env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("30 rounds of two threaded parallel searches did not end in 180 s")
    assert proc.returncode == 0, err
