"""Seeded inputs, the op each workload times, and how each op is checked.

Every op calls quatcube only through the module-level names imported
below, so a traced run can wrap them (see ``tracing.py``) without any
change to the package.
"""

from __future__ import annotations

import json
import random

from quatcube import Quaternion, RingParams, SearchConfig, parse_quaternion
from quatcube.cli import decompose_payload, lower_bounds_payload, search_payload
from quatcube.search import lemma_residue_check

import checker

# All five cases, with both orientations of 2b and 2c: (2,3)/(3,2) and (1,3)/(3,1).
SHOWCASE_RINGS = [
    (1, 1), (2, 1), (1, 2), (4, 4), (2, 3), (3, 2), (1, 3), (3, 1),
    (3, 3), (3, 6), (6, 9),
]
# One target in eight is already reduced, so the 4-root identity route runs too.
REDUCED_EVERY = 8

FLAGSHIP_BOUND = 10
FLAGSHIP_OUTER = 6
FLAGSHIP_ARGV = [
    "search", "--ring", "1,1", "--max-cubes", "3", "--bound", str(FLAGSHIP_BOUND),
    "--outer-bound", str(FLAGSHIP_OUTER), "--json", "3+3i",
]


def _toward_zero(x: int, m: int) -> int:
    # the multiple of m nearest x on the side of 0, so |result| <= |x|
    return m * (x // m) if x >= 0 else -m * (-x // m)


def quaternion_text(c: tuple) -> str:
    return f"{c[0]}{c[1]:+d}i{c[2]:+d}j{c[3]:+d}k"


def decompose_inputs(seed: int, digits: int, size: int) -> list[tuple]:
    """(ring, text, target) triples with coefficients in +-10**digits."""
    rng = random.Random(seed)
    bound = 10**digits
    out = []
    for idx in range(size):
        ring = SHOWCASE_RINGS[idx % len(SHOWCASE_RINGS)]
        c = [rng.randint(-bound, bound) for _ in range(4)]
        if idx % REDUCED_EVERY == 0:
            c = [_toward_zero(c[0], 3)] + [_toward_zero(x, 6) for x in c[1:]]
        elif checker.is_case3(*ring):
            # stay inside the cube subgroup
            c[1:] = [_toward_zero(x, 3) for x in c[1:]]
        out.append((ring, quaternion_text(c), tuple(c)))
    rng.shuffle(out)
    return out


def format_payload(payload: dict) -> str:
    """The bytes ``quatcube decompose --json`` prints, without the newline."""
    return json.dumps(payload, separators=(",", ":"))


def decompose_op(params: RingParams, text: str) -> str:
    return format_payload(decompose_payload(parse_quaternion(text, params)))


def decompose_cli_argv(ring: tuple, text: str) -> list[str]:
    # "--" keeps argparse from reading a target such as "-5+3i..." as an option
    return ["decompose", "--ring", f"{ring[0]},{ring[1]}", "--json", "--", text]


def certify_inputs(seed: int) -> list[tuple]:
    """One certification pass in seeded order: ("lemma", (a6, b6)) for all
    36 residue pairs and ("bounds", ring) for the 11 showcase rings."""
    units = [("lemma", (a6, b6)) for a6 in range(6) for b6 in range(6)]
    units += [("bounds", ring) for ring in SHOWCASE_RINGS]
    random.Random(seed).shuffle(units)
    return units


def certify_op(kind: str, arg: tuple):
    if kind == "lemma":
        return lemma_residue_check(*arg)
    return lower_bounds_payload(RingParams(*arg))


def check_certify(kind: str, arg: tuple, out) -> str | None:
    if kind == "lemma":
        return checker.check_lemma(*arg, out.passed, out.classes_checked,
                                   out.pair_targets_checked)
    return checker.check_lower_bounds(out)


def certify_pass(units: list) -> list:
    return [certify_op(kind, arg) for kind, arg in units]


def check_certify_pass(units: list, outs: list) -> str | None:
    """Every unit passes, and the pass totals equal the recorded ones."""
    for (kind, arg), out in zip(units, outs):
        problem = check_certify(kind, arg, out)
        if problem:
            return problem
    reports = [out for (kind, _), out in zip(units, outs) if kind == "lemma"]
    classes = sum(r.classes_checked for r in reports)
    pairs = sum(r.pair_targets_checked for r in reports)
    if (classes, pairs) != (checker.PASS_CLASSES, checker.PASS_PAIR_TARGETS):
        return f"pass totals {classes} classes and {pairs} pair targets"
    return None


def search_warmup_input(seed: int) -> tuple:
    """Two roots in the flagship box; their cube sum is a two-cube target."""
    rng = random.Random(seed)
    b = FLAGSHIP_BOUND
    return tuple(tuple(rng.randint(-b, b) for _ in range(4)) for _ in range(2))


def search_warmup(roots: tuple) -> str | None:
    """An in-process search in the flagship ring and box, which builds the
    mod-9 tables, the cube table and the class grouping."""
    target = checker.cube_sum(1, 1, roots)
    alpha = Quaternion(RingParams(1, 1), *target)
    payload = search_payload(alpha, SearchConfig(max_cubes=2, coeff_bound=FLAGSHIP_BOUND))
    if not payload["found"]:
        return "two-cube target not found"
    got = [tuple(int(c) for c in r) for r in payload["roots"]]
    if len(got) > 2 or checker.cube_sum(1, 1, got) != target:
        return "root cubes do not sum to the target"
    return None


def warmup(workload: str, item) -> str | None:
    """Run one untimed op of the workload on ``item`` (as decoded from
    JSON, so lists stand for tuples) and check it."""
    if workload == "search-deep":
        return search_warmup(tuple(tuple(r) for r in item))
    if workload == "certify":
        units = [(kind, tuple(arg)) for kind, arg in item]
        return check_certify_pass(units, certify_pass(units))
    ring, text, target = tuple(item[0]), item[1], tuple(item[2])
    return checker.check_decompose(decompose_op(RingParams(*ring), text), ring, target)
