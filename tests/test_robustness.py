"""Failures that must surface as errors, checked in fresh interpreters.

The verification gates must hold under ``python -O``, which strips
``assert`` statements, and a parallel search whose worker processes die
must fail instead of waiting for results that never come.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(argv, timeout=120):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
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
