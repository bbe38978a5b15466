"""Command-line front end.

Subcommands: decompose, cube, member, search, check-lemmas,
check-lower-bounds.  Exit codes: 0 on success, 1 on a failed check or an
unrepresentable target, 2 on usage or parse errors, 141 when the reader
of stdout goes away before the output is written.  ``--json`` switches
to a machine-readable form in which all coefficients are decimal strings
(the integers here routinely exceed what JSON consumers parse exactly).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .decompose import Decomposition, decompose, lemma_residue_check, member_cube_subgroup, verify
from .errors import NotRepresentable, ParseError, QuatcubeError, VerificationFailed
from .parser import parse_quaternion
from .quat import Coeffs, Quaternion, RingParams, coeffs_text, cube
from .residues import Case, classify_case
from .search import (
    SearchConfig,
    min_cubes_search,
    three_cube_residues_mod9,
    two_cube_obstruction,
)


# a token such as "-5+3i" or "-k+2j" is a target, never an option
_SIGNED_TARGET = re.compile(r"-\s*[0-9ijk]")


class _Parser(argparse.ArgumentParser):
    """Reads a quaternion that starts with a minus sign as a positional
    argument, so it needs no ``--`` before it.  Every option of this CLI
    starts with ``--`` or is ``-h``, so no option looks like a target."""

    def _parse_optional(self, arg_string):
        if _SIGNED_TARGET.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        # one stderr line and exit 2, like every other usage error here
        sys.exit(_usage_error(message))


# a refused argument is echoed up to this many characters
_ECHO_CHARS = 40
# the text of a decimal int, as int() reads it
_INT_TEXT = re.compile(r"\s*[+-]?([0-9]+)\s*")


def _echo(text: str) -> str:
    return repr(text) if len(text) <= _ECHO_CHARS else f"{text[:_ECHO_CHARS]!r}..."


def _int_pair(text: str, expected: str) -> tuple[int, int]:
    # "A,B" as two ints; anything else is refused with what was expected,
    # and an integer int() will not read for its length is refused as such
    parts = text.split(",")
    try:
        a, b = parts
        return int(a), int(b)
    except ValueError:
        pass
    limit = sys.get_int_max_str_digits()
    for part in parts:
        m = _INT_TEXT.fullmatch(part)
        if m and limit and len(m[1]) > limit:
            raise argparse.ArgumentTypeError(
                f"integer of {len(m[1])} digits exceeds the limit of {limit} digits, "
                f"got {_echo(text)}"
            )
    raise argparse.ArgumentTypeError(f"expected {expected}, got {_echo(text)}")


def _ring(text: str) -> RingParams:
    a, b = _int_pair(text, "A,B with positive integers")
    try:
        return RingParams(a, b)
    except ValueError:
        # RingParams' message would echo both ints in full
        raise argparse.ArgumentTypeError(
            f"ring parameters must be positive integers, got {_echo(text)}"
        ) from None


def _residue_pair(text: str) -> tuple[int, int]:
    a6, b6 = _int_pair(text, "a6,b6 in 0..5")
    if not (0 <= a6 <= 5 and 0 <= b6 <= 5):
        raise argparse.ArgumentTypeError(f"residues must lie in 0..5, got {_echo(text)}")
    return a6, b6


def _too_many_digits() -> QuatcubeError:
    return QuatcubeError(
        f"a coefficient has more than {sys.get_int_max_str_digits()} digits, too many to print"
    )


def _strs(c: Coeffs) -> list[str]:
    try:
        return [str(c[0]), str(c[1]), str(c[2]), str(c[3])]
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise _too_many_digits() from None


def _coeffs(q: Quaternion) -> list[str]:
    return _strs(q.coefficients())


def _text(q: Quaternion) -> str:
    try:
        return str(q)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise _too_many_digits() from None


def _ring_json(params: RingParams) -> list[str]:
    return [str(params.a), str(params.b)]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def decompose_payload(alpha: Quaternion) -> dict:
    """The decompose JSON payload, formatted from the decomposition's
    ``root_coeffs``, so no ``Quaternion`` is built between the parsed
    target and the JSON.  The decomposition is re-verified here, never
    assumed."""
    dec = decompose(alpha)
    if not verify(dec):
        raise VerificationFailed("decompose returned an unverified decomposition")
    try:
        roots = [[str(c0), str(c1), str(c2), str(c3)] for c0, c1, c2, c3 in dec.root_coeffs]
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise _too_many_digits() from None
    return {
        "ring": _ring_json(alpha.params),
        "target": _coeffs(alpha),
        "case": str(dec.case),
        "roots": roots,
        "count": len(roots),
        "verified": True,
    }


def search_payload(alpha: Quaternion, cfg: SearchConfig, workers: int = 1) -> dict:
    """The search JSON payload; deliberately independent of ``workers`` so
    serial and parallel runs emit identical bytes.  A witness is checked
    with :func:`verify`, never assumed."""
    roots = min_cubes_search(alpha, cfg, workers=workers)
    found = roots is not None
    verified = None
    if found:
        verified = verify(Decomposition(alpha, roots, classify_case(alpha.params)))
        if not verified:
            raise VerificationFailed("search returned roots that do not sum to the target")
    return {
        "ring": _ring_json(alpha.params),
        "target": _coeffs(alpha),
        "max_cubes": cfg.max_cubes,
        "coeff_bound": cfg.coeff_bound,
        "outer_bound": cfg.outer,
        "found": found,
        "count": len(roots) if found else None,
        "roots": [_coeffs(r) for r in roots] if found else None,
        "verified": verified,
    }


def lower_bounds_payload(params: RingParams) -> dict:
    """The check-lower-bounds JSON payload for the ring's case."""
    tag = classify_case(params)
    checks = []
    if tag.case is Case.CASE3:
        residues = three_cube_residues_mod9()
        checks.append({
            "statement": "4 not a sum of 3 cubes: mod-9 obstruction",
            "holds": 4 not in residues,
            "detail": f"attainable cube-triple residues mod 9: {sorted(residues)}",
        })
    else:
        target = Quaternion(params, 3, 3, 0, 0)
        checks.append({
            "statement": "3+3i not a sum of 2 cubes: mod-9/mod-3 obstruction",
            "holds": two_cube_obstruction(params, target),
            "detail": "coefficient system unsolvable over all residue tuples",
        })
    return {
        "ring": _ring_json(params),
        "case": str(tag),
        "checks": checks,
        "passed": all(c["holds"] for c in checks),
    }


def _print_roots(roots: list[list[str]]) -> None:
    for idx, r in enumerate(roots, 1):
        print(f"  root {idx}: {coeffs_text(tuple(map(int, r)))}")


def _cmd_decompose(args) -> int:
    alpha = parse_quaternion(args.quaternion, args.ring)
    try:
        payload = decompose_payload(alpha)
    except NotRepresentable as exc:
        if args.json:
            _emit({
                "ring": _ring_json(args.ring),
                "target": _coeffs(alpha),
                "error": "NotRepresentable",
            })
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit(payload)
    else:
        print(f"ring: ({args.ring.a},{args.ring.b})   case: {payload['case']}")
        print(f"target: {_text(alpha)}")
        _print_roots(payload["roots"])
        print(f"count: {payload['count']}   verified: {str(payload['verified']).lower()}")
    return 0


def _cmd_cube(args) -> int:
    x = parse_quaternion(args.quaternion, args.ring)
    c = cube(x)
    if args.json:
        _emit({
            "ring": _ring_json(args.ring),
            "input": _coeffs(x),
            "cube": _coeffs(c),
        })
    else:
        print(f"({_text(x)})^3 = {_text(c)}")
    return 0


def _cmd_member(args) -> int:
    alpha = parse_quaternion(args.quaternion, args.ring)
    ok = member_cube_subgroup(alpha)
    if args.json:
        _emit({
            "ring": _ring_json(args.ring),
            "target": _coeffs(alpha),
            "member": ok,
        })
    else:
        print(str(ok).lower())
    return 0 if ok else 1


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _cmd_search(args) -> int:
    if args.workers < 1:
        return _usage_error(f"--workers must be at least 1, got {args.workers}")
    try:
        cfg = SearchConfig(
            max_cubes=args.max_cubes,
            coeff_bound=args.bound,
            outer_bound=args.outer_bound,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    alpha = parse_quaternion(args.quaternion, args.ring)
    payload = search_payload(alpha, cfg, workers=args.workers)
    found = payload["found"]
    if args.json:
        _emit(payload)
    else:
        if found:
            print(f"{_text(alpha)} is a sum of {payload['count']} cubes within the box:")
            _print_roots(payload["roots"])
            print(f"verified: {str(payload['verified']).lower()}")
        else:
            print(
                f"no representation with at most {cfg.max_cubes} cubes in the box "
                f"(bound {cfg.coeff_bound}, outer {cfg.outer}); "
                "absence within a box is not a proof of non-representability"
            )
    return 0 if found else 1


def _cmd_check_lemmas(args) -> int:
    if args.residues is not None:
        pairs = [args.residues]
    else:
        pairs = [(a6, b6) for a6 in range(6) for b6 in range(6)]
    results = []
    all_passed = True
    for a6, b6 in pairs:
        report = lemma_residue_check(a6, b6)
        all_passed = all_passed and report.passed
        results.append((a6, b6, report))
    if args.json:
        _emit({
            "results": [
                {
                    "a6": a6,
                    "b6": b6,
                    "case": str(rep.case),
                    "swapped": rep.case.swapped,
                    "classes_checked": rep.classes_checked,
                    "pair_targets_checked": rep.pair_targets_checked,
                    "failures": [list(f.residues()) for f in rep.failures],
                }
                for a6, b6, rep in results
            ],
            "passed": all_passed,
        })
    else:
        for a6, b6, rep in results:
            status = "ok" if rep.passed else f"FAILED ({len(rep.failures)} classes)"
            print(
                f"(a,b) = ({a6},{b6}) mod 6  [{rep.case}"
                f"{', swapped' if rep.case.swapped else ''}]: "
                f"{rep.classes_checked} recipe classes, "
                f"{rep.pair_targets_checked} pair targets: {status}"
            )
        print("all residue checks passed" if all_passed else "residue checks FAILED")
    return 0 if all_passed else 1


def _cmd_check_lower_bounds(args) -> int:
    payload = lower_bounds_payload(args.ring)
    if args.json:
        _emit(payload)
    else:
        print(f"ring: ({args.ring.a},{args.ring.b})   case: {payload['case']}")
        for check in payload["checks"]:
            status = "holds" if check["holds"] else "FAILED"
            print(f"  {check['statement']}: {status} ({check['detail']})")
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quatcube",
        description="Sums of cubes in integer quaternion rings with "
        "i^2 = -a, j^2 = -b, ij = -ji = k.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring(p):
        p.add_argument("--ring", type=_ring, required=True, metavar="A,B",
                       help="ring parameters, positive integers")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("decompose", help="write a target as a sum of at most 6 (or 5) cubes")
    add_ring(p)
    add_json(p)
    p.add_argument("quaternion", help='target, e.g. "3+3i" or "-k + 2j - k"')
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("cube", help="cube a quaternion")
    add_ring(p)
    add_json(p)
    p.add_argument("quaternion")
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("member", help="test membership in the cube subgroup")
    add_ring(p)
    add_json(p)
    p.add_argument("quaternion")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("search", help="bounded search for a minimal representation")
    add_ring(p)
    add_json(p)
    p.add_argument("quaternion")
    p.add_argument("--max-cubes", type=int, default=3, metavar="K")
    p.add_argument("--bound", type=int, default=10, metavar="B",
                   help="coefficient box |c| <= B for each root")
    p.add_argument("--outer-bound", type=int, default=None, metavar="B1",
                   help="reduced box for the outermost root (3- and 4-cube searches)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="processes for the 3- and 4-cube stages, at most one per CPU; "
                   "output is identical to a serial run")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("check-lemmas", help="certify the residue-class recipes")
    add_json(p)
    p.add_argument("--residues", type=_residue_pair, default=None, metavar="a6,b6",
                   help="restrict to one (a mod 6, b mod 6) pair; default: all 36")
    p.set_defaults(func=_cmd_check_lemmas)

    p = sub.add_parser("check-lower-bounds", help="run the mod-9 obstruction for the ring's case")
    add_ring(p)
    add_json(p)
    p.set_defaults(func=_cmd_check_lower_bounds)

    return parser


# the status a shell reports for a writer killed by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except QuatcubeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone (say `quatcube check-lemmas | head -1`);
        # what is still buffered goes to devnull, so the flush at shutdown
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
