"""Golden outputs: decompose, search, check-lemmas and check-lower-bounds
bytes, every subcommand's text and ``--json`` forms with their exit
codes, parser error messages.

The expected values were recorded from the object-based decomposer and
the character-by-character parser that preceded the tuple core and the
regex parser, from the search whose cube groups were split by signature
mod 9 alone, from the lemma check that certified the recipes through
``Quaternion`` and ``ResidueClass`` objects, and from the lower-bound
check while the shared mod-9 tables still memoised first-root masks.
All are part of the CLI's contract, so any change to them is a change
of behaviour, not a refactor.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quatcube import (
    ParseError, Quaternion, RingParams, SearchConfig, cube, decompose, parse_quaternion,
)
from quatcube.cli import decompose_payload, main, search_payload

# All five cases, with both orientations of 2b ((2,3)/(3,2)) and 2c ((1,3)/(3,1)).
SHOWCASE_RINGS = [
    (1, 1), (2, 1), (1, 2), (4, 4), (2, 3), (3, 2), (1, 3), (3, 1),
    (3, 3), (3, 6), (6, 9),
]
MAGNITUDES = (10**6, 10**30, 10**1000)
GOLDEN_TARGETS = 297
GOLDEN_SHA256 = "ccb2b4730a896eda235bee221181bcc9b785a530cdb98add5ea28f13a3258315"


def _golden_targets():
    """Seeded targets covering the reduced route (real part 0 and 3 mod 6),
    the case-3 single-root route and the two-root pair route."""
    rng = random.Random(20261018)
    for a, b in SHOWCASE_RINGS:
        case3 = a % 3 == 0 and b % 3 == 0
        for m in MAGNITUDES:
            for kind in range(9):
                c = [rng.randint(-m, m) for _ in range(4)]
                if kind == 0:
                    c = [6 * (x // 6) for x in c]
                elif kind == 1:
                    c = [6 * (c[0] // 6) + 3] + [6 * (x // 6) for x in c[1:]]
                elif case3:
                    c[1:] = [3 * (x // 3) for x in c[1:]]
                yield RingParams(a, b), c


def _payload_bytes(params, c):
    payload = decompose_payload(Quaternion(params, *c))
    return json.dumps(payload, separators=(",", ":")).encode()


def test_decompose_json_bytes_match_recorded_hash():
    lines = [_payload_bytes(params, c) for params, c in _golden_targets()]
    assert len(lines) == GOLDEN_TARGETS
    assert hashlib.sha256(b"\n".join(lines)).hexdigest() == GOLDEN_SHA256


def test_library_and_payload_give_the_same_roots():
    # decompose() wraps the tuple core's roots in Quaternions and the
    # payload prints them; both edges must show the same decomposition
    for params, c in _golden_targets():
        alpha = Quaternion(params, *c)
        library = [r.coefficients() for r in decompose(alpha).roots]
        payload = [tuple(map(int, r)) for r in decompose_payload(alpha)["roots"]]
        assert payload == library


# (text, message, position) for malformed input; (text, coefficients) for
# text that parses, since whitespace is ignored everywhere
PARSE_ERRORS = [
    ("", "empty expression", 0),
    ("  ", "empty expression", 0),
    ("1+", "expected a term", 2),
    ("2x", "expected '+' or '-' between terms", 1),
    ("+-i", "expected a digit or one of i, j, k", 1),
    ("i j", "expected '+' or '-' between terms", 2),
    ("3−−k", "expected a digit or one of i, j, k", 2),
    ("\t1\t+\t", "expected a term", 5),
    ("\t2\tx", "expected '+' or '-' between terms", 3),
    ("1 +\t2 i\t-\t3j  k", "expected '+' or '-' between terms", 14),
    (" 1 +", "expected a term", 4),
    ("k\n\n-", "expected a term", 4),
    ("--1", "expected a digit or one of i, j, k", 1),
    ("1+-", "expected a digit or one of i, j, k", 2),
    ("i2", "expected '+' or '-' between terms", 1),
    ("12ij", "expected '+' or '-' between terms", 3),
    ("ii", "expected '+' or '-' between terms", 1),
    ("+", "expected a term", 1),
    ("−", "expected a term", 1),
]
PARSES = [
    ("1 2", (12, 0, 0, 0)),
    ("1\t\t2", (12, 0, 0, 0)),
    ("\t-k + 2j - k ", (0, 0, 2, -2)),
    ("−3 + i", (-3, 1, 0, 0)),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_quaternion(text, RingParams(1, 1))
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize("text, coeffs", PARSES)
def test_whitespace_is_ignored_everywhere(text, coeffs):
    assert parse_quaternion(text, RingParams(1, 1)).coefficients() == coeffs


# search --json payloads: seeded two- and three-cube sums and plain
# random targets in every showcase ring, in small boxes
SEARCH_GOLDEN_TARGETS = 176
SEARCH_GOLDEN_SHA256 = "ebd39e06f3eb9e54b93d29ed46335b73398126965d54124f7d7fa35d737b7006"


def _search_golden_cases():
    rng = random.Random(20261019)

    def box_root(params, bound):
        return Quaternion(params, *(rng.randint(-bound, bound) for _ in range(4)))

    for a, b in SHOWCASE_RINGS:
        params = RingParams(a, b)
        for _ in range(6):
            target = cube(box_root(params, 3)) + cube(box_root(params, 3))
            yield target, SearchConfig(max_cubes=2, coeff_bound=3)
        for _ in range(6):
            x, y, z = box_root(params, 1), box_root(params, 2), box_root(params, 2)
            target = cube(x) + cube(y) + cube(z)
            yield target, SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=1)
        for _ in range(4):
            target = Quaternion(params, *(rng.randint(-30, 30) for _ in range(4)))
            yield target, SearchConfig(max_cubes=3, coeff_bound=2, outer_bound=1)


def test_search_json_bytes_match_recorded_hash():
    lines = [
        json.dumps(search_payload(target, cfg), separators=(",", ":")).encode()
        for target, cfg in _search_golden_cases()
    ]
    assert len(lines) == SEARCH_GOLDEN_TARGETS
    assert hashlib.sha256(b"\n".join(lines)).hexdigest() == SEARCH_GOLDEN_SHA256


# search --json payloads at max_cubes=4: seeded four-cube sums, the
# scalars 4 and -5 and plain random targets, in rings of every case
# and both rings whose a and b are multiples of 3 (recorded before the
# per-k scans became one)
FOUR_CUBE_RINGS = [(1, 1), (2, 3), (3, 3), (2, 9), (3, 9)]
FOUR_CUBE_GOLDEN_TARGETS = 40
FOUR_CUBE_GOLDEN_SHA256 = "d1d799100325ff9c9284b7a04e22dd9f18a6c8de31d3ef9612e84b69e5a5a086"


def _four_cube_golden_cases():
    rng = random.Random(20261020)

    def box_root(params, bound):
        return Quaternion(params, *(rng.randint(-bound, bound) for _ in range(4)))

    for a, b in FOUR_CUBE_RINGS:
        params = RingParams(a, b)
        for _ in range(4):
            x, y = box_root(params, 1), box_root(params, 1)
            z, w = box_root(params, 2), box_root(params, 2)
            yield cube(x) + cube(y) + cube(z) + cube(w), SearchConfig(4, 2, 1)
        for n in (4, -5):
            yield Quaternion.scalar(params, n), SearchConfig(4, 1, 1)
        for _ in range(2):
            target = Quaternion(params, *(rng.randint(-30, 30) for _ in range(4)))
            yield target, SearchConfig(4, 2, 1)


def test_four_cube_search_json_bytes_match_recorded_hash():
    cases = list(_four_cube_golden_cases())
    payloads = [search_payload(target, cfg) for target, cfg in cases]
    # found with 2, 3 and 4 cubes, and not found
    assert {p["count"] if p["found"] else None for p in payloads} == {2, 3, 4, None}
    lines = [json.dumps(p, separators=(",", ":")).encode() for p in payloads]
    assert len(lines) == FOUR_CUBE_GOLDEN_TARGETS
    assert hashlib.sha256(b"\n".join(lines)).hexdigest() == FOUR_CUBE_GOLDEN_SHA256
    # the same bytes with --workers 2, from a fresh interpreter with no
    # other thread, so its workers are forked as the CLI's are; here a
    # spawned worker per search would cost about 0.25 s each
    specs = [
        [t.params.a, t.params.b, list(t.coefficients()), cfg.max_cubes, cfg.coeff_bound, cfg.outer]
        for t, cfg in cases
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _PARALLEL_PAYLOADS], input=json.dumps(specs), env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == b"\n".join(lines) + b"\n"


_PARALLEL_PAYLOADS = """
import json, sys
from quatcube import Quaternion, RingParams, SearchConfig
from quatcube.cli import search_payload
for a, b, c, k, bound, outer in json.load(sys.stdin):
    payload = search_payload(Quaternion(RingParams(a, b), *c), SearchConfig(k, bound, outer), 2)
    print(json.dumps(payload, separators=(",", ":")))
"""


# check-lemmas output, text and --json, for all 36 (a mod 6, b mod 6) pairs
LEMMAS_SHA256 = "a445c6806af4c44a83a820d1dab03354c2b60c2527e397bcd64c0dda40699aee"
LEMMAS_JSON_SHA256 = "c66d6fe0eabed6705c32e9deef59ff65175eacbad2e365c27dc2ad958f8e2fcd"


@pytest.mark.parametrize("flags, digest", [((), LEMMAS_SHA256), (("--json",), LEMMAS_JSON_SHA256)])
def test_check_lemmas_bytes_match_recorded_hash(capsys, flags, digest):
    assert main(["check-lemmas", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# check-lower-bounds output, text and --json, for every ring (a, b) with
# a and b in 1..9: all 81 classes mod 9, each run's output in turn
LOWER_BOUNDS_SHA256 = "9636926826fd7f0124169d94dc11f2bedbd5dcee1df96ad8f9636e3d182a025a"
LOWER_BOUNDS_JSON_SHA256 = "5f656a0a83ddb77ba84f386e78cdde9dd5d3df7276da1e54ad0f2eae71d5748c"


@pytest.mark.parametrize(
    "flags, digest", [((), LOWER_BOUNDS_SHA256), (("--json",), LOWER_BOUNDS_JSON_SHA256)]
)
def test_check_lower_bounds_bytes_match_recorded_hash(capsys, flags, digest):
    out = []
    for a in range(1, 10):
        for b in range(1, 10):
            assert main(["check-lower-bounds", "--ring", f"{a},{b}", *flags]) == 0
            out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


# every subcommand's other outputs: (argv, exit code, then the sha256 of
# stdout and the stderr text, first in text form and then with --json);
# the exit code does not depend on --json
_EMPTY = hashlib.sha256(b"").hexdigest()
CLI_OUTPUTS = [
    (["decompose", "--ring", "1,1", "6"], 0,
     ("332396feeb069f689f4b91274f62e5b9d3865699e2fa8fa08b79ed5f127fa43d", ""),
     ("41098f296d407334183200eec782fab72b5b26a03614bb86ed9695313555f2ea", "")),
    (["decompose", "--ring", "3,6", "5+3i-9j+300k"], 0,
     ("21c4a8acf38cfce83f803aab30ba8cd5b537be8144eecf731fecd578e0f1119c", ""),
     ("ac64bde112c58229a682e8088111578d64471c0a72e3580531b7ccbfdbcdebb8", "")),
    (["decompose", "--ring", "3,3", "1+i"], 1,
     (_EMPTY, "error: 1+i is not in the cube subgroup of (3,3)\n"),
     ("b5d5ea4dde585679d0f9735074715d397b3c09961002052f9133a052d4760b1e", "")),
    (["cube", "--ring", "2,3", "1+i+j+k"], 0,
     ("d93cdf75f88f11b3a8d3f78284dd9033414420c754eb15452899b6d7ac65bf04", ""),
     ("d8e2e1eb7fe31afd78fdec7c7cf8fb7b44e2bc12326ebcb0fc6a5e0e0616a669", "")),
    (["member", "--ring", "2,1", "1+i"], 0,
     ("a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74", ""),
     ("d461ea6050146f96407e05f904ca0a94d761a1df9cdecbeda9e2427acb07c2c1", "")),
    (["member", "--ring", "3,3", "1+i"], 1,
     ("2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0", ""),
     ("6ba606535769982148d1b10b65503adb64640a0a1b6f6e69df5a9a59aca7fbd2", "")),
    (["search", "--ring", "1,1", "--max-cubes", "3", "--bound", "10", "--outer-bound", "6",
      "3+3i"], 0,
     ("68d43be2a98396066be2ff0e78703142f6774ff901e0228ab190f953aa05acae", ""),
     ("e3e0db55b6a03db956c7ede809ce74fc8a65d69cfb961e92606f0246cbe5f538", "")),
    (["search", "--ring", "1,1", "--max-cubes", "2", "--bound", "3", "3+3i"], 1,
     ("033a65f435afb0a1bf9155a6ed292fc072d6d2fdfaedb415d63598aca14f6544", ""),
     ("67fd2a7b26a284396c414296488f2adb93e9fe20a44ecc9302112039ac4f9cae", "")),
    (["search", "--ring", "1,1", "--workers", "0", "3+3i"], 2,
     (_EMPTY, "usage error: --workers must be at least 1, got 0\n"),
     (_EMPTY, "usage error: --workers must be at least 1, got 0\n")),
    (["search", "--ring", "1,1", "--max-cubes", "9", "3+3i"], 2,
     (_EMPTY, "usage error: max_cubes must be in 1..4, got 9\n"),
     (_EMPTY, "usage error: max_cubes must be in 1..4, got 9\n")),
]


@pytest.mark.parametrize("argv, code, text, as_json", CLI_OUTPUTS)
def test_cli_outputs_match_recorded_hashes(capsys, argv, code, text, as_json):
    for flags, (digest, err) in (((), text), (("--json",), as_json)):
        assert main([*argv, *flags]) == code
        got = capsys.readouterr()
        assert (hashlib.sha256(got.out.encode()).hexdigest(), got.err) == (digest, err)
