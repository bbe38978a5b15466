"""Golden outputs: decompose JSON bytes and parser error messages.

The expected values were recorded from the object-based decomposer and
the character-by-character parser that preceded the tuple core and the
regex parser.  Both are part of the CLI's contract, so any change to
them is a change of behaviour, not a refactor.
"""

import hashlib
import json
import random

import pytest

from quatcube import ParseError, Quaternion, RingParams, parse_quaternion
from quatcube.cli import decompose_payload

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
