import argparse
import ast
import contextlib
import gc
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from linecells import (
    ConstructionSpec,
    cli_main,
    construct_F,
    lower_bound_value,
    parse_family,
    serialize_family,
    upper_bound_value,
)
from linecells import cli, constructions

import oracles
from conftest import subfamily


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_family(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, _, _ = run(
        capsys, "generate", "--kind", "recursive_pq", "--p", "3", "--q", "3",
        "--l", "3", "-o", str(out),
    )
    assert code == 0
    fam = parse_family(out.read_text())
    assert len(fam) == 6
    assert dict(fam.provenance)["kind"] == "recursive_pq"


def test_generate_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "pencil", "--n", "3")
    assert code == 0
    assert len(parse_family(out)) == 3


def test_generate_epsilon_scale_tag(capsys):
    code, out, _ = run(
        capsys, "generate", "--kind", "base_pq2", "--p", "2", "--l", "3",
        "--epsilon-scale", "1/3",
    )
    assert code == 0
    fam = parse_family(out)
    assert dict(fam.provenance)["epsilon_scale"] == "1/3"
    assert ConstructionSpec.from_provenance(fam.provenance).build().lines == fam.lines


def test_generate_missing_param_exits_2(capsys):
    code, _, err = run(capsys, "generate", "--kind", "recursive_pq", "--p", "3")
    assert code == 2
    assert "error" in err.lower()


def test_generate_bad_kind_exits_2(capsys):
    code, _, _ = run(capsys, "generate", "--kind", "mystery")
    assert code == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--kind", "figure10", "--l", "3", "--p", "5"], "p"),
        (["--kind", "pencil", "--n", "4", "--epsilon-scale", "1/3"], "epsilon_scale"),
    ],
    ids=["figure10-p", "pencil-epsilon-scale"],
)
def test_generate_rejects_a_parameter_its_kind_does_not_take(capsys, argv, name):
    code, out, err = run(capsys, "generate", *argv)
    assert (code, out) == (2, "")
    assert f"takes no {name}" in err


def test_generate_parity_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "generate", "--kind", "thm12_even", "--l", "3", "--n", "5")
    assert code == 2
    assert "thm12_even" in err


LARGE_SCALE_GENERATES = (
    (["--kind", "recursive_pq", "--p", "4", "--q", "4", "--l", "6", "--epsilon-scale", "30"],
     ["--l", "6", "--p", "4", "--q", "4"]),
    (["--kind", "base_pq2", "--p", "8", "--l", "6", "--epsilon-scale", "100"],
     ["--l", "6", "--p", "8", "--q", "2"]),
    # figure10's contract: fewer than 6 concurrent, no 5 in convex position
    (["--kind", "figure10", "--l", "6", "--epsilon-scale", "30"],
     ["--l", "6", "--p", "12", "--q", "12", "--k", "5", "--no-convex", "5"]),
)


@pytest.mark.parametrize("gen_argv, verify_argv", LARGE_SCALE_GENERATES)
def test_generate_large_epsilon_scale(tmp_path, capsys, gen_argv, verify_argv):
    fam_path = tmp_path / "f.txt"
    code, _, err = run(capsys, "generate", *gen_argv, "-o", str(fam_path))
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "verify", str(fam_path), *verify_argv)
    assert code == 0, out


def test_generate_exits_1_when_certification_fails(capsys, monkeypatch):
    # bundles left uncontracted overlap, so the first join fails its
    # order test
    monkeypatch.setattr(constructions, "_clog", lambda a, b: 0)
    code, out, err = run(
        capsys, "generate", "--kind", "recursive_pq", "--p", "3", "--q", "3", "--l", "4",
    )
    assert (code, out) == (1, "")
    assert "join order" in err


def test_generate_exits_1_on_a_convex_position_witness(tmp_path, capsys):
    fam_path = tmp_path / "F"
    code, out, err = run(
        capsys, "generate", "--kind", "thm12_odd", "--l", "3", "--n", "7", "-o", str(fam_path),
    )
    assert (code, out) == (1, "")
    assert "no 7 in convex position" in err
    assert not fam_path.exists()


def test_verify_pass_and_fail(tmp_path, capsys):
    fam_path = tmp_path / "p.txt"
    code, out, _ = run(capsys, "generate", "--kind", "pencil", "--n", "4", "-o", str(fam_path))
    assert code == 0
    code, out, _ = run(
        capsys, "verify", str(fam_path), "--l", "5", "--p", "2", "--q", "2"
    )
    assert code == 0
    assert "result: PASS" in out
    # the pencil of l lines is the canonical counterexample at threshold l
    code, out, _ = run(
        capsys, "verify", str(fam_path), "--l", "4", "--p", "2", "--q", "2"
    )
    assert code == 1
    assert "check concurrency < 4: FAIL" in out


def test_verify_checks_a_repeated_side_once(capsys):
    fam = str(Path(__file__).resolve().parents[1] / "bench" / "families" / "fig8.txt")
    code, out, _ = run(
        capsys, "verify", fam, "--l", "3", "--p", "4", "--q", "4",
        "--check-unbounded", "right", "--check-unbounded", "left",
        "--check-unbounded", "right",
    )
    checks = [line for line in out.splitlines() if "unbounded" in line]
    assert checks == [
        "check no 4-cell unbounded right: FAIL",
        "check no 4-cell unbounded left: FAIL",
    ]
    assert code == 1


def test_verify_no_convex_option(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "recursive_pq", "--p", "3", "--q", "3",
        "--l", "3", "-o", str(fam_path))
    code, out, _ = run(
        capsys, "verify", str(fam_path), "--l", "3", "--p", "3", "--q", "3",
        "--no-convex", "7",
    )
    assert code == 0
    assert "check no 7 in convex position: pass" in out


F334_REPORT = """\
family size: 8
max concurrency: 3 at (-3, -1)
longest cup: 3 lines [0, 1, 4]
longest cap: 3 lines [0, 1, 2]
check concurrency < {l}: {conc}
check longest cup <= 3: pass
check longest cap <= 3: pass
check no 4-cell unbounded right: pass
check no {n} in convex position: {convex}
result: {result}
"""


@pytest.mark.parametrize(
    "l, n, conc, convex, code",
    [
        (4, 7, "pass", "pass", 0),
        # four lines of F(3, 3, 4) lie in convex position
        (4, 4, "pass", "FAIL", 1),
        # three lines meet at (-3, -1)
        (3, 7, "FAIL", "pass", 1),
    ],
)
def test_verify_no_convex_verdict(capsys, l, n, conc, convex, code):
    family = str(Path(__file__).resolve().parents[1] / "bench" / "families" / "F334.txt")
    got = run(capsys, "verify", family, "--l", str(l), "--p", "3", "--q", "3",
              "--no-convex", str(n))
    result = "PASS" if code == 0 else "FAIL"
    out = F334_REPORT.format(l=l, n=n, conc=conc, convex=convex, result=result)
    assert got == (code, out, "")


def test_verify_bad_no_convex_exits_2_before_any_output(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "recursive_pq", "--p", "3", "--q", "3",
        "--l", "3", "-o", str(fam_path))
    code, out, err = run(
        capsys, "verify", str(fam_path), "--l", "3", "--p", "3", "--q", "3",
        "--no-convex", "1",
    )
    assert (code, out) == (2, "")
    assert "need 2 <= n" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--l", "3", "--n", "4", "--p", "3", "--q", "2"], "q must be >= 3"),
        (["--l", "3", "--n", "5", "--c", "0"], "c must be >= 1"),
        # --c is checked for every n, though n = 2 prints no value it scales
        (["--l", "3", "--n", "2", "--c", "0"], "c must be >= 1"),
        # --p and --q are read together, so one alone names the other
        (["--l", "3", "--n", "5", "--p", "2"], "--q is missing"),
        (["--l", "3", "--n", "5", "--q", "3"], "--p is missing"),
    ],
    ids=["bad_q", "bad_c", "bad_c_for_two_lines", "p_without_q", "q_without_p"],
)
def test_bounds_bad_value_exits_2_before_any_output(capsys, argv, message):
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_garbage_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a family\n")
    code, _, err = run(capsys, "verify", str(bad), "--l", "3", "--p", "2", "--q", "2")
    assert code == 2
    assert "line 1" in err


def test_verify_zero_denominator_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1/00 1\n")
    code, _, err = run(capsys, "verify", str(bad), "--l", "3", "--p", "2", "--q", "2")
    assert code == 2
    assert "line 1" in err


def test_generate_zero_denominator_epsilon_scale_exits_2(capsys):
    code, _, err = run(
        capsys, "generate", "--kind", "base_pq2", "--p", "2", "--l", "3",
        "--epsilon-scale", "1/00",
    )
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize("scale", ["-1", "0"])
def test_generate_pencil_non_positive_epsilon_scale_exits_2(capsys, scale):
    # pencil ignores the scale, but the spec checks it for every kind
    code, out, err = run(
        capsys, "generate", "--kind", "pencil", "--n", "3", "--epsilon-scale", scale
    )
    assert code == 2
    assert out == ""
    assert "epsilon_scale must be positive" in err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = run(
        capsys, "verify", str(tmp_path / "nope.txt"), "--l", "3", "--p", "2", "--q", "2"
    )
    assert code == 2


def test_search_found_and_not(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "recursive_pq", "--p", "3", "--q", "3",
        "--l", "3", "-o", str(fam_path))
    code, out, _ = run(capsys, "search", str(fam_path), "--n", "4")
    assert code == 1
    assert "found 4 lines in convex position" in out
    code, out, _ = run(capsys, "search", str(fam_path), "--largest")
    assert code == 0
    assert "largest convex position subset" in out


def test_search_none_found(tmp_path, capsys):
    fam_path = tmp_path / "p.txt"
    run(capsys, "generate", "--kind", "pencil", "--n", "5", "-o", str(fam_path))
    code, out, _ = run(capsys, "search", str(fam_path), "--n", "3")
    assert code == 0
    assert "no 3 lines in convex position" in out


FIG8_FILE = Path(__file__).resolve().parents[1] / "bench" / "families" / "fig8.txt"

SEARCHES = (
    ("F434", ["--n", "7"]),
    ("F434", ["--n", "8"]),
    ("F434", ["--largest"]),
    # the largest subset (4) stays below the cup+cap bound (8), so both
    # searches sweep anchors until no bound is left above the best
    ("fig8", ["--largest"]),
    ("fig8", ["--n", "5"]),
)


@pytest.mark.parametrize(
    "family, argv", SEARCHES,
    ids=["F434-n7", "F434-n8", "F434-largest", "fig8-largest", "fig8-n5"],
)
def test_search_prints_the_first_witness(tmp_path, capsys, family, argv):
    # the exit code and the size are the walk oracle's, and the printed
    # witness is that many lines that the 2^n scan finds in convex position
    if family == "F434":
        fam_path = tmp_path / "f434.txt"
        fam_path.write_text(serialize_family(construct_F(4, 3, 4)))
    else:
        fam_path = FIG8_FILE
    fam = parse_family(fam_path.read_text())
    code, out, err = run(capsys, "search", str(fam_path), *argv)
    if argv == ["--largest"]:
        size = oracles.walk_largest(fam)
        want_code, head = 0, f"largest convex position subset: {size} lines "
    else:
        size = int(argv[1])
        if not oracles.convex_walk(fam, size, size):
            assert (code, out, err) == (0, f"no {size} lines in convex position\n", "")
            return
        want_code, head = 1, f"found {size} lines in convex position: "
    assert (code, err) == (want_code, "")
    assert out.startswith(head)
    witness = ast.literal_eval(out[len(head):])
    assert out == f"{head}{witness}\n"
    assert len(witness) == size and witness == sorted(set(witness))
    assert oracles.convex_position_cell(subfamily(fam, witness)) is not None


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--l", "3", "--n", "6")
    assert code == 0
    assert "lower: 8" in out
    assert "upper: 560" in out
    code, out, _ = run(capsys, "bounds", "--l", "3", "--n", "3")
    assert "exact: 3" in out
    code, out, _ = run(capsys, "bounds", "--l", "3", "--n", "5", "--p", "3", "--q", "3")
    assert "f_L upper: 10" in out


@pytest.mark.parametrize("n", [5000, 100000])
def test_bounds_prints_values_past_the_int_to_str_limit(capsys, n):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bounds", "--l", "3", "--n", str(n))
    assert (code, err) == (0, "")
    # the limit is lifted only while bounds formats its values
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = f"lower: {lower_bound_value(3, n)}\nupper: {upper_bound_value(3, n)}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == want


def test_bounds_for_two_lines_prints_only_the_exact_value(capsys):
    code, out, _ = run(capsys, "bounds", "--l", "3", "--n", "2")
    assert (code, out) == (0, "exact: 2\n")


def test_main_freezes_the_heap_once_per_process(capsys):
    # the first call in this process froze it; a later call freezes nothing
    # more, so the objects made since stay in the collector's generations
    run(capsys, "bounds", "--l", "3", "--n", "5")
    frozen = gc.get_freeze_count()
    assert frozen > 0
    garbage = [[] for _ in range(1000)]
    run(capsys, "bounds", "--l", "3", "--n", "5")
    assert gc.get_freeze_count() == frozen
    del garbage


def test_render_svg_file(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "pencil", "--n", "3", "-o", str(fam_path))
    out_path = tmp_path / "f.svg"
    code, _, _ = run(
        capsys, "render", str(fam_path), "-o", str(out_path),
        "--highlight-lines", "0,2", "--width", "400",
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<svg ")
    assert text.count('stroke="#dc2626"') == 2


def test_render_viewport_and_readme_highlight(tmp_path, capsys):
    # README's example: a sign string that starts with a minus needs the = form
    fam_path = tmp_path / "f334.txt"
    run(capsys, "generate", "--kind", "recursive_pq", "--p", "3", "--q", "3",
        "--l", "4", "-o", str(fam_path))
    code, out, _ = run(capsys, "render", str(fam_path), "--highlight-cell=----++++")
    assert code == 0
    assert out.count("<polygon ") == 1
    code, out, _ = run(capsys, "render", str(fam_path), "--viewport=-2,-2,2,3")
    assert code == 0
    assert out.startswith("<svg ") and out.count("<line ") > 0


def test_render_negative_viewport_needs_the_equals_form(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "pencil", "--n", "3", "-o", str(fam_path))
    out_path = tmp_path / "f.svg"
    code, out, _ = run(
        capsys, "render", str(fam_path), "--viewport=-2,-2,2,3", "-o", str(out_path)
    )
    assert (code, out) == (0, "")
    assert out_path.read_text().count("<line ") == 3
    out_path.unlink()
    # after a space, argparse reads -2,-2,2,3 as an option, not as the value
    code, out, err = run(
        capsys, "render", str(fam_path), "--viewport", "-2,-2,2,3", "-o", str(out_path)
    )
    assert (code, out) == (2, "")
    assert "--viewport: expected one argument" in err
    assert not out_path.exists()


# calls that give an option the value '--', and the option named in the error
DASHDASH_CALLS = [
    (["render", "F444.txt", "--output=--"], "-o/--output"),
    (["generate", "--kind=--"], "--kind"),
    (["search", "F444.txt", "--n=--"], "--n"),
    (["render", "F444.txt", "-o--"], "-o/--output"),
    (["render", "F444.txt", "--out=--"], "-o/--output"),
    (["verify", "F444.txt", "--l", "4", "--p", "4", "--q", "4", "--check-unbounded=--"],
     "--check-unbounded"),
    (["render", "F444.txt", "--output=--", "--output=f.svg"], "-o/--output"),
]


@pytest.mark.parametrize(
    "argv, flag", DASHDASH_CALLS, ids=[" ".join(argv) for argv, _ in DASHDASH_CALLS]
)
def test_an_option_given_the_value_dashdash_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, flag
):
    # argparse drops a '--' from an option's values, which then reached the
    # command as [] and failed there with a TypeError and exit 1
    shutil.copy(Path(__file__).resolve().parents[1] / "bench" / "families" / "F444.txt", tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: expected one argument\n")
    assert [path.name for path in tmp_path.iterdir()] == ["F444.txt"]


def test_render_three_value_viewport_exits_2(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "pencil", "--n", "3", "-o", str(fam_path))
    code, out, err = run(capsys, "render", str(fam_path), "--viewport", "0,0,1")
    assert (code, out) == (2, "")
    assert "viewport needs 4" in err


@pytest.mark.parametrize(
    "viewport, message",
    [
        ("1000,-2,1001,-1", "no line of the family is visible in viewport (1000, -2, 1001, -1)"),
        ("0,0,0,0", "degenerate viewport: (0, 0, 0, 0)"),
        ("1/2,-3/6,2/4,1", "degenerate viewport: (1/2, -1/2, 1/2, 1)"),
    ],
    ids=["empty", "degenerate", "degenerate_rationals"],
)
def test_render_viewport_errors_print_the_box(tmp_path, capsys, viewport, message):
    fam_path = tmp_path / "f.txt"
    fam_path.write_text("1 0\n2 5\n3 1\n")
    code, out, err = run(capsys, "render", str(fam_path), f"--viewport={viewport}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_render_bad_cell_spec_exits_2(tmp_path, capsys):
    fam_path = tmp_path / "f.txt"
    run(capsys, "generate", "--kind", "pencil", "--n", "3", "-o", str(fam_path))
    code, _, err = run(capsys, "render", str(fam_path), "--highlight-cell", "+x-")
    assert code == 2
    assert "cell spec" in err


def test_stdin_roundtrip(tmp_path, capsys, monkeypatch):
    import io

    code, out, _ = run(capsys, "generate", "--kind", "pencil", "--n", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "verify", "-", "--l", "4", "--p", "2", "--q", "2")
    assert code == 0
    assert "result: PASS" in out2


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_no_command_exits_2(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()


COMMANDS = ("generate", "verify", "search", "bounds", "render")


def full_parser_output(capsys, argv):
    """What the parser with all five commands' arguments prints for argv
    that it refuses or answers with help."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        [],
        ["frobnicate"],
        ["--bogus", "bounds", "--l", "3", "--n", "5"],
        ["search", "x", "--n", "3", "--bogus"],
        *([command, "--help"] for command in COMMANDS),
        ["generate", "--kind", "nope"],
        ["verify", "x", "--check-unbounded", "up"],
        ["search", "x"],
        ["bounds", "--l", "x", "--n", "5"],
        ["render", "x", "--width"],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_cli_text_matches_the_full_parser(capsys, argv):
    expected = full_parser_output(capsys, argv)
    assert expected[0] == (0 if "-h" in argv or "--help" in argv else 2)
    assert run(capsys, *argv) == expected


def test_cli_reads_argv_from_sys_argv(capsys, monkeypatch):
    expected = full_parser_output(capsys, ["search", "x", "--n", "3", "--bogus"])
    monkeypatch.setattr("sys.argv", ["linecells", "search", "x", "--n", "3", "--bogus"])
    assert cli_main() == expected[0]
    assert capsys.readouterr() == expected[1:]
    monkeypatch.setattr("sys.argv", ["linecells", "bounds", "--l", "3", "--n", "2"])
    assert cli_main() == 0
    assert capsys.readouterr().out == "exact: 2\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_no_other_commands_arguments(capsys, monkeypatch, command):
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def spy(container, *args, **kwargs):
        calls.append(args)
        return add_argument(container, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    cli._build_parser()
    # each parser's -h comes first: the top level's, then each command's
    starts = [i for i, args in enumerate(calls) if args == ("-h", "--help")]
    assert len(starts) == 1 + len(COMMANDS)
    segments = [calls[a:b] for a, b in zip(starts, starts[1:] + [len(calls)])]
    expected = segments[0] + segments[1 + COMMANDS.index(command)]
    calls.clear()
    assert cli_main([command, "--help"]) == 0
    capsys.readouterr()
    assert calls == expected


def argparse_reading(argv):
    """vars() of what the command's argparse parser makes of argv, or None
    where it exits for help or a usage error; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser(argv[0]).parse_args(argv))
        except SystemExit:
            return None


# each command's option strings, then forms that only argparse reads:
# abbreviations, help, '--', a short option's '=' and attached values
FLAGS = {
    "generate": ("--kind", "--p", "--q", "--l", "--k", "--n", "--epsilon-scale", "-o", "--output"),
    "verify": ("--l", "--max-concurrency", "--p", "--q", "--check-unbounded", "--k", "--no-convex"),
    "search": ("--n", "--largest"),
    "bounds": ("--l", "--n", "--c", "--p", "--q"),
    "render": ("-o", "--output", "--viewport", "--highlight-cell", "--highlight-lines", "--width"),
}
ODD_FLAGS = (
    "--ki", "--eps", "--out", "--max", "--check", "--no", "--lar", "--view", "--high",
    "-h", "--help", "--", "-o=x", "-ox", "--bogus",
)
WORDS = (
    "3", "4", "-3", "", "--", " 4", "4_0", "x", "f.txt", "-", "pencil", "nope",
    "left", "right", "up", "1/3", "-2,-2,2,3", "++-", "0,1",
)
# the words of each argument of a well-formed call of each command
WELL_FORMED = {
    "generate": [("--kind", "pencil"), ("--n", "4"), ("--epsilon-scale=1/3",), ("--output", "-")],
    "verify": [
        ("f.txt",), ("--l", "3"), ("--p", "3"), ("--q", "3"),
        ("--check-unbounded", "left"), ("--check-unbounded=right",), ("--k", "4_0"),
    ],
    "search": [("-",), ("--n", "8")],
    "bounds": [("--l", "3"), ("--n", "6"), ("--c", " 4"), ("--p=3",)],
    "render": [
        ("f.txt",), ("--highlight-cell=-+",), ("--viewport=-2,-2,2,3",), ("-o", "x.svg"),
        ("--width", "800"),
    ],
}


@st.composite
def command_lines(draw):
    """A well-formed call with each argument kept, dropped, given another
    word, respelled or repeated, and a few stray arguments among them."""
    command = draw(st.sampled_from(COMMANDS))
    word = st.sampled_from(WORDS)
    items = []
    for words in WELL_FORMED[command]:
        how = draw(st.sampled_from(("keep",) * 3 + ("drop", "reword", "respell", "repeat")))
        if how == "reword":
            head, equals, _ = words[-1].rpartition("=")
            words = (*words[:-1], f"{head}={draw(word)}" if equals else draw(word))
        elif how == "respell" and len(words) == 2:
            words = (f"{words[0]}={words[1]}",)
        elif how == "respell":
            # '--flag=value' as two words; a lone word is given a value
            flag, equals, value = words[0].partition("=")
            words = (flag, value) if equals else (f"{flag}={draw(word)}",)
        items += [words] * {"drop": 0, "repeat": 2}.get(how, 1)
    flag = st.sampled_from(FLAGS[command] + ODD_FLAGS)
    stray = st.one_of(
        st.tuples(flag, word),
        st.builds("{}={}".format, flag, word).map(lambda token: (token,)),
        st.tuples(flag),
        st.tuples(word),
    )
    items = draw(st.permutations(items + draw(st.lists(stray, max_size=2))))
    return [command, *(token for words in items for token in words)]


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_the_table_reader_agrees_with_argparse(argv):
    # where argparse exits, the reader hands argv to it
    fast = cli._parse(argv)
    event("handed to argparse" if fast is None else "read from the table")
    assert fast is None or vars(fast) == argparse_reading(argv)


FAST_CALLS = [
    ["generate", "--kind", "recursive_pq", "--p", "3", "--q", "3", "--l", "4", "-o", "f334.txt"],
    ["generate", "--kind=pencil", "--n", "3", "--epsilon-scale", "1/3", "--output", "-"],
    ["verify", "f334.txt", "--l", "4", "--p", "3", "--q", "3", "--no-convex", "7"],
    ["verify", "-", "--max-concurrency", "4", "--p", "3", "--q", "3", "--check-unbounded",
     "left", "--check-unbounded=right", "--k", "3"],
    ["search", "bench/families/F434.txt", "--n", "8"],
    ["search", "--largest", "f334.txt"],
    ["bounds", "--l", "3", "--n", "6", "--c", "2", "--p", "3", "--q", "3"],
    ["render", "f334.txt", "-o", "f334.svg", "--highlight-cell=----++++",
     "--highlight-lines", "0,1", "--width", "800"],
    ["render", "f334.txt", "--viewport=-2,-2,2,3"],
]


@pytest.mark.parametrize("argv", FAST_CALLS, ids=" ".join)
def test_well_formed_calls_are_read_from_the_table(argv):
    assert vars(cli._parse(argv)) == argparse_reading(argv)


# calls that the table reader hands to argparse, which reads them as it
# always has: help, usage errors, and forms the reader does not take
ARGPARSE_CALLS = [
    [],
    ["--help"],
    ["frobnicate"],
    ["search", "f", "--n", "8", "-h"],
    ["generate", "--ki", "pencil"],
    ["verify", "f", "--l", "3", "--p", "3", "--q", "3", "--"],
    ["render", "f", "-o=x"],
    ["render", "f", "-ox"],
    ["bounds", "--l", "3", "--n", "-3"],
    ["render", "f", "--viewport", "-2,-2,2,3"],
    ["generate", "--kind", "pencil", "--n", ""],
    ["render", "f", "--output="],
    ["render", "f", "--output=--"],
    ["render", "f", "--output"],
    ["search", "f", "--n", "3", "--n", "4"],
    ["verify", "f", "--l", "3", "--max-concurrency", "3", "--p", "3", "--q", "3"],
    ["search", "f", "--largest", "--largest"],
    ["search", "f", "--largest=x"],
    ["search", "f", "--n", "3", "--largest"],
    ["search", "f"],
    ["generate", "--kind", "nope"],
    ["verify", "f", "--l", "3", "--p", "3", "--q", "3", "--check-unbounded", "up"],
    ["verify", "f", "--l", "x", "--p", "3", "--q", "3"],
    ["verify", "f", "--l", "3", "--p", "3"],
    ["verify", "--l", "3", "--p", "3", "--q", "3"],
    ["verify", "f", "g", "--l", "3", "--p", "3", "--q", "3"],
    ["bounds", "--l", "3", "--n", "5", "--width", "3"],
]


@pytest.mark.parametrize("argv", ARGPARSE_CALLS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_other_calls_are_handed_to_argparse(argv):
    assert cli._parse(argv) is None


def test_well_formed_calls_import_neither_argparse_nor_locale(tmp_path):
    # a fresh interpreter, since this one has imported both
    root = Path(__file__).resolve().parents[1]
    f334, svg = str(tmp_path / "f334.txt"), str(tmp_path / "f334.svg")
    calls = [
        ["generate", "--kind", "recursive_pq", "--p", "3", "--q", "3", "--l", "4", "-o", f334],
        ["verify", f334, "--l", "4", "--p", "3", "--q", "3"],
        ["search", "bench/families/F434.txt", "--n", "8"],
        ["search", f334, "--largest"],
        ["bounds", "--l", "3", "--n", "6"],
        ["render", f334, "-o", svg, "--highlight-cell=----++++"],
        ["render", f334, "-o", svg, "--viewport=-2,-2,2,3"],
    ]
    script = f"""
import sys
import linecells
assert "argparse" not in sys.modules, "import linecells imported argparse"
for argv in {calls!r}:
    assert linecells.cli_main(argv) in (0, 1), argv
    imported = {{"argparse", "locale"}} & set(sys.modules)
    assert not imported, (argv, imported)
"""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
