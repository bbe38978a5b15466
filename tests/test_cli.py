import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcube import ParseError, Quaternion, RingParams, parse_quaternion
from quatcube.cli import decompose_payload, main

LIPSCHITZ = RingParams(1, 1)


class TestParser:
    def test_simple(self):
        assert parse_quaternion("3+3i", LIPSCHITZ) == Quaternion(LIPSCHITZ, 3, 3, 0, 0)

    def test_repeated_units_summed(self):
        assert parse_quaternion("-k + 2j - k", LIPSCHITZ) == Quaternion(LIPSCHITZ, 0, 0, 2, -2)

    def test_bare_units_and_signs(self):
        assert parse_quaternion("i", LIPSCHITZ) == Quaternion(LIPSCHITZ, 0, 1, 0, 0)
        assert parse_quaternion("-i+j-k", LIPSCHITZ) == Quaternion(LIPSCHITZ, 0, -1, 1, -1)
        assert parse_quaternion("+5", LIPSCHITZ) == Quaternion(LIPSCHITZ, 5, 0, 0, 0)

    def test_unicode_minus(self):
        assert parse_quaternion("−2i", LIPSCHITZ) == Quaternion(LIPSCHITZ, 0, -2, 0, 0)

    def test_huge_coefficients(self):
        n = 10**40 + 7
        assert parse_quaternion(f"{n}k", LIPSCHITZ) == Quaternion(LIPSCHITZ, 0, 0, 0, n)

    def test_malformed_double_plus(self):
        with pytest.raises(ParseError) as exc:
            parse_quaternion("3 + + i", LIPSCHITZ)
        assert exc.value.position == 4

    def test_parse_error_pickles_and_copies(self):
        with pytest.raises(ParseError) as exc:
            parse_quaternion("3 + + i", LIPSCHITZ)
        err = exc.value
        for dup in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
            assert type(dup) is ParseError
            assert (str(dup), dup.position, dup.message) == (str(err), 4, err.message)
            assert dup.args == err.args

    def test_malformed_cases(self):
        for text in ["", "  ", "3x", "ij", "2i3j", "3+", "-", "1 2i 3"]:
            with pytest.raises(ParseError):
                parse_quaternion(text, LIPSCHITZ)

    @given(st.tuples(*(st.integers(-10**9, 10**9),) * 4))
    @settings(deadline=None)
    def test_round_trip(self, c):
        x = Quaternion(LIPSCHITZ, *c)
        assert parse_quaternion(str(x), LIPSCHITZ) == x


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliDecompose:
    def test_six(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "1,1", "--json", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["roots"] == [["2", "0", "0", "0"], ["0", "0", "0", "0"],
                                    ["-1", "0", "0", "0"], ["-1", "0", "0", "0"]]
        assert payload["verified"] is True
        assert payload["count"] == 4

    def test_case_and_ring_fields(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "3,6", "--json", "5+3i-9j+300k")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "Case3"
        assert payload["ring"] == ["3", "6"]
        assert payload["count"] <= 5

    def test_not_representable_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--ring", "3,3", "1+i")
        assert code == 1

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "2,1", "7+i+j+k")
        assert code == 0
        assert "verified: true" in out

    @pytest.mark.parametrize("text, target", [("-5+3i", ["-5", "3", "0", "0"]),
                                              ("-k+2j", ["0", "0", "2", "-1"])])
    def test_target_starting_with_minus(self, capsys, text, target):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "1,1", text, "--json")
        assert code == 0
        assert json.loads(out)["target"] == target


class TestCliMember:
    def test_member_false_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--ring", "3,3", "1+i")
        assert code == 1
        assert out.strip() == "false"

    def test_member_true_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--ring", "2,1", "--json", "1+i")
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_target_starting_with_minus(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--ring", "3,3", "-1+i")
        assert code == 1
        assert out.strip() == "false"


class TestCliCube:
    def test_cube(self, capsys):
        code, out, _ = run_cli(capsys, "cube", "--ring", "1,1", "--json", "1+i+j+k")
        assert code == 0
        assert json.loads(out)["cube"] == ["-8", "0", "0", "0"]

    def test_target_starting_with_minus(self, capsys):
        code, out, _ = run_cli(capsys, "cube", "--ring", "1,1", "--json", "-i")
        assert code == 0
        assert json.loads(out)["cube"] == ["0", "1", "0", "0"]


class TestCliSearch:
    def test_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--ring", "1,1", "--json", "--max-cubes", "1",
            "--bound", "2", "-8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["roots"] == [["-2", "0", "0", "0"]]
        assert payload["verified"] is True

    @pytest.mark.parametrize("target, root", [("1", "1"), ("-27", "-3")])
    def test_one_cube_search_at_a_huge_bound(self, capsys, target, root):
        # one cube is the target's exact least root: no table of the box is built
        code, out, err = run_cli(
            capsys, "search", "--ring", "1,1", "--max-cubes", "1",
            "--bound", "9" * 20, "--", target,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [f"  root 1: {root}", "verified: true"]

    def test_one_cube_search_at_a_huge_bound_with_a_non_real_root(self, capsys):
        # 8 = (-1-i-j-k)^3: the root's pure part is read from the norm form, not a list of the box
        code, out, err = run_cli(
            capsys, "search", "--ring", "1,1", "--max-cubes", "1",
            "--bound", "9" * 20, "--json", "8",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["roots"] == [["-1", "-1", "-1", "-1"]]

    def test_absent_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--ring", "3,3", "--json", "--max-cubes", "3",
            "--bound", "20", "4",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["found"] is False
        assert payload["roots"] is None

    def test_target_starting_with_minus(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--ring", "1,1", "--json", "--max-cubes", "1",
            "--bound", "2", "-8-i",
        )
        assert code == 1
        assert json.loads(out)["target"] == ["-8", "-1", "0", "0"]

    @pytest.mark.parametrize("flag, value", [("--bound", "-1"), ("--outer-bound", "-1"),
                                             ("--max-cubes", "7"), ("--workers", "0")])
    def test_bad_search_arguments_exit_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "search", "--ring", "1,1", flag, value, "3+3i")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_workers_flag_same_output(self, capsys):
        argv = ["search", "--ring", "2,1", "--json", "--max-cubes", "3",
                "--bound", "3", "--outer-bound", "2", "4+5i+j+2k"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv, "--workers", "2")
        assert (code1, out1) == (code2, out2)


class TestCliChecks:
    def test_check_lemmas_single_pair(self, capsys):
        code, out, _ = run_cli(capsys, "check-lemmas", "--json", "--residues", "2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["results"][0]["classes_checked"] == 192

    def test_check_lower_bounds_case3(self, capsys):
        code, out, _ = run_cli(capsys, "check-lower-bounds", "--ring", "3,3")
        assert code == 0
        assert "4 not a sum of 3 cubes: mod-9 obstruction" in out

    def test_check_lower_bounds_case1(self, capsys):
        code, out, _ = run_cli(capsys, "check-lower-bounds", "--ring", "2,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"][0]["holds"] is True
        assert "3+3i" in payload["checks"][0]["statement"]


class TestCliErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--ring", "1,1", "3 + + i")
        assert code == 2
        assert "parse error" in err

    def test_bad_ring_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--ring", "0,1", "6"])
        assert exc.value.code == 2

    def test_missing_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["decompose", "--ring", "a,b", "6"],
        ["decompose", "--ring", "1", "6"],
        ["decompose", "--ring", "0,1", "6"],
        ["search", "--ring", "1,1", "--bound", "x", "3+3i"],
        ["decompose", "--ring", "1,1"],
        [],
        ["nope"],
        ["check-lemmas", "--residues", "6,0"],
        ["decompose", "--ring", "1,1", "--nope", "6"],
        ["decompose", "--ring", "0," + "9" * 4000, "6"],
    ])
    def test_bad_argument_is_one_usage_line(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("usage error:")
        assert "Traceback" not in err and "invalid literal" not in err

    def test_malformed_ring_names_the_expected_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["decompose", "--ring", "a,b", "6"])
        assert capsys.readouterr().err == (
            "usage error: argument --ring: expected A,B with positive integers, got 'a,b'\n"
        )

    @pytest.mark.parametrize("ring, echo", [
        ("0,1", "'0,1'"),
        ("-1,7", "'-1,7'"),
        ("0," + "9" * 4000, repr("0," + "9" * 38) + "..."),
    ])
    def test_non_positive_ring_echoes_at_most_a_prefix(self, capsys, ring, echo):
        # a part within the digit limit that is not positive is refused with
        # the argument as typed, cut to a prefix, not with both ints in full
        if 0 < sys.get_int_max_str_digits() < len(ring):
            pytest.skip("the int/str digit limit refuses this part first")
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--ring", ring, "6"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err == (
            f"usage error: argument --ring: ring parameters must be positive integers, got {echo}\n"
        )


_DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="int/str conversion has no digit limit")
class TestCliDigitLimit:
    def test_literal_beyond_the_limit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--ring", "1,1", "1" * (_DIGIT_LIMIT + 700))
        assert code == 2
        assert out == ""
        assert err == (
            f"parse error: integer of {_DIGIT_LIMIT + 700} digits exceeds the limit of "
            f"{_DIGIT_LIMIT} digits (at position 0)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["decompose", "--ring", "1,{}", "6"],
        ["decompose", "--ring", "-{},1", "6"],
        ["check-lemmas", "--residues", "{},0"],
    ])
    def test_argument_beyond_the_limit_is_one_short_usage_line(self, capsys, argv):
        # the message names the limit and echoes only a prefix of the argument
        nines = "9" * (_DIGIT_LIMIT + 700)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(nines) for arg in argv])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith(
            f"usage error: argument {argv[1]}: integer of {_DIGIT_LIMIT + 700} digits "
            f"exceeds the limit of {_DIGIT_LIMIT} digits, got '"
        )
        assert err.count("\n") == 1 and len(err) < 200

    def test_literal_at_the_limit_parses(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "1,1", "--json", "1" * _DIGIT_LIMIT)
        assert code == 0
        assert json.loads(out)["target"][0] == "1" * _DIGIT_LIMIT

    @pytest.mark.parametrize("flags", [("--json",), ()])
    def test_result_beyond_the_limit_exit_1(self, capsys, flags):
        # the cube of a coefficient with n digits has about 3n digits
        text = "7" * (_DIGIT_LIMIT // 3 + 100) + "+i"
        code, out, err = run_cli(capsys, "cube", "--ring", "1,1", *flags, text)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(_DIGIT_LIMIT) in err

    @pytest.mark.parametrize("flags", [("--json",), ()])
    def test_unrepresentable_sum_beyond_the_limit_exit_1(self, capsys, flags):
        # each literal is at the limit, but their sum has one digit more,
        # and 3 divides both parameters, so the target is not representable
        nines = "9" * _DIGIT_LIMIT
        code, out, err = run_cli(capsys, "decompose", "--ring", "3,3", *flags, f"{nines}+{nines}+i")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unrepresentable_message_names_a_printable_target(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--ring", "3,3", "1+i")
        assert (code, out) == (1, "")
        assert err == "error: 1+i is not in the cube subgroup of (3,3)\n"


def _src_env():
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # only a parallel search needs multiprocessing, so no command pays for
    # importing it up front; nor does the package import threading (site
    # may have imported it already)
    code = ("import sys; before = set(sys.modules); import quatcube.cli; "
            "print(sorted({'multiprocessing', 'threading'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_two_cube_search_leaves_a_huge_outer_box_alone(workers):
    # only the 3- and 4-cube stages scan the outer box; its 4001**3 pure
    # parts would take hours to enumerate
    argv = ["search", "--ring", "1,1", "--max-cubes", "2", "--bound", "3",
            "--outer-bound", "2000", "--workers", workers, "3+3i"]
    proc = subprocess.run([sys.executable, "-m", "quatcube.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("no representation with at most 2 cubes")


def test_json_stable_across_runs(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "2,3", "--json", "123-45i+6j-789k")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ["check-lemmas", "--residues", "1,3"],
    ["decompose", "--ring", "1,1", "--json", "7+i+2j+3k"],
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE, as under `quatcube check-lemmas | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "quatcube.cli", *argv], env=_src_env(),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


# one target per decomposer route, with the root count the route gives
PAYLOAD_ROUTES = [
    ((1, 1), (6, 12, -18, 6), 4),  # already reduced
    ((3, 3), (7, 3, -6, 9), 5),  # case 3, one congruence root
    ((2, 1), (7, 1, 2, 3), 6),  # a pair of congruence roots
    ((2, 3), (7, 1, 2, 3), 6),  # case 2b in normalized orientation
    ((3, 2), (7, 1, 2, 3), 6),  # case 2b through the mirror ring
]


@pytest.mark.parametrize("ring, coeffs, count", PAYLOAD_ROUTES)
def test_decompose_payload_builds_no_quaternion(monkeypatch, ring, coeffs, count):
    alpha = Quaternion(RingParams(*ring), *coeffs)
    built = []
    init = Quaternion.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counted)
    payload = decompose_payload(alpha)
    monkeypatch.undo()
    assert payload["count"] == count
    assert built == []
