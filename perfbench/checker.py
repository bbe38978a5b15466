"""Output checks that share no arithmetic with quatcube.

Cubes are computed here by multiplying coefficient tuples with the ring's
defining relations (i^2 = -a, j^2 = -b, ij = -ji = k), never through
``quatcube.cube`` or ``verify``.  Each check returns ``None`` when the
output is right and a one-line reason when it is not, so the caller can
count the op as failed.
"""

from __future__ import annotations

import json

# The flagship search: quatcube search --ring 1,1 --max-cubes 3 --bound 10
# --outer-bound 6 "3+3i" finds this lexicographically least witness.
FLAGSHIP_ROOTS = ((-5, -4, -4, -2), (5, 2, 6, 3), (6, 1, 0, 0))
FLAGSHIP_TARGET = (3, 3, 0, 0)

# Recorded totals of one full certification pass over all 36 (a mod 6,
# b mod 6) pairs: 4 case-3 pairs check 48 classes each, the other 32
# check 192 classes and 1296 pair targets each.
PASS_CLASSES = 6336
PASS_PAIR_TARGETS = 41472


def qmul(a: int, b: int, x: tuple, y: tuple) -> tuple:
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - a * x1 * y1 - b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 + b * (x2 * y3 - x3 * y2),
        x0 * y2 + x2 * y0 + a * (x3 * y1 - x1 * y3),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def cube_sum(a: int, b: int, roots) -> tuple:
    total = (0, 0, 0, 0)
    for r in roots:
        c = qmul(a, b, qmul(a, b, r, r), r)
        total = tuple(s + v for s, v in zip(total, c))
    return total


def is_case3(a: int, b: int) -> bool:
    return a % 3 == 0 and b % 3 == 0


def is_reduced(coeffs: tuple) -> bool:
    return coeffs[0] % 3 == 0 and all(c % 6 == 0 for c in coeffs[1:])


def expected_count(ring: tuple, target: tuple) -> int:
    """4 roots for reduced targets, else 5 in case 3 and 6 otherwise."""
    if is_reduced(target):
        return 4
    return 5 if is_case3(*ring) else 6


def _ints(values) -> tuple:
    return tuple(int(v) for v in values)


def check_decompose(text: str, ring: tuple, target: tuple) -> str | None:
    """A decompose JSON payload for ``target`` in ``ring``."""
    try:
        p = json.loads(text)
        a, b = ring
        if _ints(p["ring"]) != ring or _ints(p["target"]) != target:
            return "ring or target not echoed"
        if p["verified"] is not True:
            return "not verified"
        roots = [_ints(r) for r in p["roots"]]
        if p["count"] != len(roots) or len(roots) != expected_count(ring, target):
            return f"count {p['count']} with {len(roots)} roots"
        if any(len(r) != 4 for r in roots):
            return "root without four coefficients"
        if cube_sum(a, b, roots) != target:
            return "root cubes do not sum to the target"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed payload: {exc!r}"
    return None


def check_search(serial: bytes, parallel: bytes) -> str | None:
    """Stdout of the serial and parallel flagship search runs."""
    if serial != parallel:
        return "serial and parallel stdout differ"
    try:
        p = json.loads(serial)
        if (p["found"], p["count"], p["verified"]) != (True, 3, True):
            return "witness not reported as found and verified"
        if (_ints(p["ring"]), _ints(p["target"])) != ((1, 1), FLAGSHIP_TARGET):
            return "ring or target not echoed"
        if (p["max_cubes"], p["coeff_bound"], p["outer_bound"]) != (3, 10, 6):
            return "search box not echoed"
        roots = tuple(_ints(r) for r in p["roots"])
        if roots != FLAGSHIP_ROOTS:
            return f"witness {roots} is not the recorded least witness"
        if cube_sum(1, 1, roots) != FLAGSHIP_TARGET:
            return "witness cubes do not sum to 3+3i"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed payload: {exc!r}"
    return None


def lemma_expectation(a6: int, b6: int) -> tuple[int, int]:
    """(classes checked, pair targets checked) for one residue pair."""
    return (48, 0) if is_case3(a6, b6) else (192, 1296)


def check_lemma(a6: int, b6: int, passed: bool, classes: int, pairs: int) -> str | None:
    if not passed:
        return f"recipe check failed for ({a6},{b6})"
    if (classes, pairs) != lemma_expectation(a6, b6):
        return f"({a6},{b6}) checked {classes} classes and {pairs} pair targets"
    return None


def check_lower_bounds(payload: dict) -> str | None:
    if not payload.get("checks") or payload.get("passed") is not True:
        return "lower-bound check failed"
    if not all(c["holds"] is True for c in payload["checks"]):
        return "a lower-bound statement does not hold"
    return None


def check_lemmas_cli(text: bytes) -> str | None:
    """Stdout of ``check-lemmas --json`` over all 36 pairs."""
    try:
        p = json.loads(text)
        results = p["results"]
        if p["passed"] is not True or len(results) != 36:
            return "check-lemmas did not pass all 36 pairs"
        for r in results:
            why = check_lemma(r["a6"], r["b6"], not r["failures"],
                              r["classes_checked"], r["pair_targets_checked"])
            if why:
                return why
        classes = sum(r["classes_checked"] for r in results)
        pairs = sum(r["pair_targets_checked"] for r in results)
        if (classes, pairs) != (PASS_CLASSES, PASS_PAIR_TARGETS):
            return f"totals {classes} classes and {pairs} pair targets"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed payload: {exc!r}"
    return None
