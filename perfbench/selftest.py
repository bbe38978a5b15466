"""Self-tests of the benchmark's checker, accounting and tracer.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Each test feeds a known-bad output (a perturbed root, altered search
bytes, a failed recipe report) through the same path the benchmark uses
and asserts that it is counted as a failed op.  None of them runs the
25-second search.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quatcube import RingParams  # noqa: E402

FLAGSHIP_STDOUT = (
    b'{"ring":["1","1"],"target":["3","3","0","0"],"max_cubes":3,"coeff_bound":10,'
    b'"outer_bound":6,"found":true,"count":3,"roots":[["-5","-4","-4","-2"],'
    b'["5","2","6","3"],["6","1","0","0"]],"verified":true}\n'
)


def _decomposition(digits: int = 6):
    ring, text, target = workloads.decompose_inputs(7, digits, 32)[1]
    return ring, target, workloads.decompose_op(RingParams(*ring), text)


def _perturb_root(out: str, root: int, coeff: int) -> str:
    payload = json.loads(out)
    payload["roots"][root][coeff] = str(int(payload["roots"][root][coeff]) + 1)
    return json.dumps(payload, separators=(",", ":"))


def test_correct_decompositions_pass():
    for digits in (6, 1000):
        ring, target, out = _decomposition(digits)
        assert checker.check_decompose(out, ring, target) is None


def test_perturbed_root_counts_as_failed():
    ring, target, out = _decomposition()
    for root in range(len(json.loads(out)["roots"])):
        for coeff in range(4):
            tally = run.Tally()
            assert not tally.record(checker.check_decompose(
                _perturb_root(out, root, coeff), ring, target))
            assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_count_or_flag_counts_as_failed():
    ring, target, out = _decomposition()
    payload = json.loads(out)
    unverified = dict(payload, verified=False)
    extra_root = dict(payload, roots=payload["roots"] + [["0", "0", "0", "0"]],
                      count=payload["count"] + 1)
    for bad in (unverified, extra_root):
        assert checker.check_decompose(json.dumps(bad), ring, target) is not None
    assert checker.check_decompose("not json", ring, target) is not None


def test_cube_sum_matches_the_ring_relations():
    # (i)^3 = -a*i and (j)^3 = -b*j in the ring i^2 = -a, j^2 = -b
    assert checker.cube_sum(2, 3, [(0, 1, 0, 0)]) == (0, -2, 0, 0)
    assert checker.cube_sum(2, 3, [(0, 0, 1, 0)]) == (0, 0, -3, 0)
    assert checker.cube_sum(1, 1, checker.FLAGSHIP_ROOTS) == checker.FLAGSHIP_TARGET


def test_search_outputs():
    assert checker.check_search(FLAGSHIP_STDOUT, FLAGSHIP_STDOUT) is None
    altered = FLAGSHIP_STDOUT.replace(b'"6","1"', b'"6","2"')
    spaced = FLAGSHIP_STDOUT.replace(b",", b", ")
    for serial, parallel in ((FLAGSHIP_STDOUT, spaced), (spaced, FLAGSHIP_STDOUT),
                             (altered, altered), (FLAGSHIP_STDOUT, altered)):
        tally = run.Tally()
        assert not tally.record(checker.check_search(serial, parallel))
        assert tally.failed == 1


def test_certify_outputs():
    units = workloads.certify_inputs(3)
    assert len(units) == 47
    kind, arg = next(u for u in units if u[0] == "lemma")
    report = workloads.certify_op(kind, arg)
    assert workloads.check_certify(kind, arg, report) is None
    assert checker.check_lemma(*arg, False, report.classes_checked,
                               report.pair_targets_checked) is not None
    assert checker.check_lemma(*arg, True, report.classes_checked + 1,
                               report.pair_targets_checked) is not None
    assert checker.check_lower_bounds({"checks": [{"holds": False}], "passed": True})


def test_exceptions_count_as_failed():
    tally = run.Tally()
    done, _ = tally.run(workloads.decompose_op, RingParams(1, 1), "1+")
    assert not done and (tally.attempted, tally.failed) == (1, 1)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail(list(range(1, 1001))) == (99.0, 990, 10)
    assert run.tail(list(range(1, 20001))) == (99.0, 19800, 200)
    assert run.tail([5.0, 1.0]) == (100.0, 5.0, 0)
    assert run.tail(list(range(1, 51))) == (100.0, 50, 0)  # never the median


def test_tracing_restores_the_package_and_keeps_outputs():
    import quatcube.cli as cli
    import quatcube.quat as quat

    dec = sys.modules["quatcube.decompose"]
    before = (cli.decompose, dec.cube, quat.Quaternion.__init__, workloads.parse_quaternion)
    ring, target, out = _decomposition()
    text = workloads.decompose_inputs(7, 6, 32)[1][1]
    with run.traced() as tracer:
        tracer.current_op = 0
        assert workloads.decompose_op(RingParams(*ring), text) == out
    summary = tracer.summary()
    assert summary["cli.decompose_payload"]["calls"] == 1
    assert summary["decompose.decompose"]["self_ms"] <= summary["decompose.decompose"]["total_ms"]
    assert tracer.counts["quat.objects"] > 0
    assert (cli.decompose, dec.cube, quat.Quaternion.__init__, workloads.parse_quaternion) == before


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
