"""Command-line behavior: happy paths, exit codes, artifact stability."""

import argparse
import contextlib
import hashlib
import io
import itertools
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffca import cli, render
from diffca.cli import build_parser, main
from diffca.eca import eca_evolve, impulse_row
from diffca.engine import evolve
from diffca.fixtures import FIXTURE_IDS, load_fixture
from diffca.patterns import highlight_pyramid
from diffca.render import RenderSpec, render_pbm


def run_cli(*argv):
    return main(list(argv))


# ----------------------------------------------------------------- run


def test_run_prints_the_triangle(capsys):
    assert run_cli("run", "--input", "2-0-1-4") == 0
    out = capsys.readouterr().out
    assert out == "2 0 1 4\n 2 1 3\n  1 2\n   1\n"


def test_run_reads_expressions_from_files(tmp_path, capsys):
    source = tmp_path / "row.txt"
    source.write_text("2-0\n", encoding="utf-8")
    assert run_cli("run", "--file", str(source)) == 0
    assert capsys.readouterr().out == "2 0\n 2\n"


def test_run_missing_file_exits_1(tmp_path, capsys):
    assert run_cli("run", "--file", str(tmp_path / "absent.txt")) == 1
    assert "error: io:" in capsys.readouterr().err


def test_run_uses_fixtures(capsys):
    assert run_cli("run", "--fixture", "p1") == 0
    assert capsys.readouterr().out.splitlines()[0] == "2 0 1 7 2 0 1 8"


def test_run_symmetric_doubles_the_row(capsys):
    assert run_cli("run", "--input", "1-5", "--symmetric") == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 5 5 1"


def test_run_caps_generations(capsys):
    assert run_cli("run", "--input", "2-0-1-4", "--max-generations", "1") == 0
    assert capsys.readouterr().out == "2 0 1 4\n 2 1 3\n"


def test_run_highlights_patterns(capsys):
    assert run_cli("run", "--input", "1-1", "--pattern", "1-") == 0
    assert capsys.readouterr().out == "# #\n 0\n"


def test_run_writes_pbm_files(tmp_path):
    out = tmp_path / "mask.pbm"
    assert run_cli("run", "--input", "2-0-1-7", "--pattern", "1-",
                   "--format", "pbm", "--out", str(out)) == 0
    expected = render_pbm(highlight_pyramid(evolve([2, 0, 1, 7]), [1]))
    assert out.read_bytes() == expected


def test_run_artifacts_are_byte_stable(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    argv = ("run", "--fixture", "p1", "--pattern", "0-", "--format", "svg")
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_writes_a_text_figure_without_copying_it(tmp_path):
    out = tmp_path / "p.svg"
    row = "-".join(str((i * 7) % 10) for i in range(300))
    tracemalloc.start()
    try:
        assert run_cli("run", "--input", row, "--format", "svg", "--out", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the document, its encoding and the render's own working set; not a second copy
    assert peak < 2.5 * out.stat().st_size


def test_run_shades_the_full_cell_range_as_pgm(capsys):
    assert run_cli("run", "--input", "18446744073709551615-0", "--format", "pgm") == 0
    assert capsys.readouterr().out == "P2\n2 2\n255\n0 255\n0 255\n"


def test_run_rejects_parse_errors_with_exit_1(capsys):
    assert run_cli("run", "--input", "2-x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression:")
    assert run_cli("run", "--input", "9" * 5000) == 1  # past int()'s 4300-digit limit
    assert capsys.readouterr().err.startswith("error: expression:")
    assert run_cli("run", "--fixture", "nope") == 1
    assert "error: fixture:" in capsys.readouterr().err


def test_oversized_pyramids_and_figures_fail_with_exit_1(capsys, monkeypatch):
    assert run_cli("run", "--input", "-".join(["0"] * 10_000)) == 1
    assert capsys.readouterr().err.startswith("error: size:")
    assert run_cli("run", "--input", "-".join(["0"] * 2400), "--format", "svg") == 1
    assert capsys.readouterr().err.startswith("error: size:")
    assert run_cli("eca", "--rule", "90", "--generations", "1700", "--format", "svg") == 1
    assert capsys.readouterr().err.startswith("error: size:")
    assert run_cli("run", "--input", "1-2-3", "--format", "pgm",
                   "--cell-px", "1000000000") == 1
    assert capsys.readouterr().err.startswith("error: size:")
    assert run_cli("compare", "--fixture", "a1", "--pattern", "1-", "--rule", "90",
                   "--format", "pbm", "--cell-px", "100000000") == 1
    assert capsys.readouterr().err.startswith("error: size:")
    assert run_cli("eca", "--rule", "90", "--generations", "1000000000") == 1
    assert capsys.readouterr().err.startswith("error: size:")
    assert run_cli("eca", "--rule", "90", "--generations", "20000000", "--initial", "0-1-0") == 1
    assert capsys.readouterr().err.startswith("error: size:")
    # no fixture is wide enough to reach the SVG byte budget, so shrink it
    monkeypatch.setattr(render, "MAX_CANVAS_PIXELS", 1000)
    assert run_cli("compare", "--fixture", "a1", "--pattern", "1-", "--rule", "90",
                   "--format", "svg") == 1
    assert capsys.readouterr().err.startswith("error: size:")


def test_run_rejects_bad_flag_combinations_with_exit_2(capsys):
    assert run_cli("run", "--input", "2-0", "--format", "pbm") == 2
    assert "usage error" in capsys.readouterr().err
    assert run_cli("run", "--input", "2-0", "--pattern", "0-", "--format", "pgm") == 2
    capsys.readouterr()


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--input", "2-0", "--bogus")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("run")  # no input source
    assert exc.value.code == 2
    capsys.readouterr()


# ----------------------------------------------------------------- eca


def test_eca_prints_the_diagram(capsys):
    assert run_cli("eca", "--rule", "90", "--generations", "2") == 0
    assert capsys.readouterr().out == "..#..\n.#.#.\n#...#\n"


def test_eca_accepts_explicit_width_and_initial(capsys):
    assert run_cli("eca", "--rule", "90", "--generations", "1", "--width", "3") == 0
    assert capsys.readouterr().out == ".#.\n#.#\n"
    assert run_cli("eca", "--rule", "110", "--generations", "1",
                   "--initial", "0-1-1-0") == 0
    assert capsys.readouterr().out == ".##.\n###.\n"


def test_eca_initial_and_width_conflict(capsys):
    assert run_cli("eca", "--rule", "90", "--generations", "1",
                   "--initial", "0-1-0", "--width", "5") == 2
    assert "usage error" in capsys.readouterr().err


def test_eca_rejects_bad_rule_and_rows(capsys):
    assert run_cli("eca", "--rule", "300", "--generations", "1") == 1
    assert "error: rule:" in capsys.readouterr().err
    assert run_cli("eca", "--rule", "90", "--generations", "1",
                   "--initial", "0-2-0") == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("eca", "--rule", "90", "--generations", "-1") == 1
    capsys.readouterr()


def test_eca_periodic_boundary(capsys):
    assert run_cli("eca", "--rule", "90", "--generations", "1",
                   "--initial", "1-0-0-1", "--boundary", "periodic") == 0
    assert capsys.readouterr().out == "#..#\n####\n"


# ------------------------------------------------------------- compare


def test_compare_reports_impulse_agreement(capsys, tmp_path):
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--fixture", "a1", "--pattern", "1-",
                   "--rule", "90", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "in-cone agreement vs binomial parity: 1.000000" in stdout
    assert "in-cone complement agreement: 0.000000" in stdout
    text = out.read_text(encoding="utf-8")
    assert "rule 90" in text and "a1" in text


def test_compare_complement_pattern_flips_the_ratios(capsys, tmp_path):
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--fixture", "a1", "--pattern", "0-",
                   "--rule", "182", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "in-cone agreement vs binomial parity: 0.000000" in stdout
    assert "in-cone complement agreement: 1.000000" in stdout


def test_compare_is_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    argv = ("compare", "--fixture", "a2", "--pattern", "1-", "--rule", "110",
            "--format", "pbm")
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"P1\n")


def test_compare_panels_have_matching_heights(tmp_path, capsys):
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--fixture", "a2", "--pattern", "1-",
                   "--rule", "110", "--out", str(out)) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    top, bottom = text.split("\n\n")
    expr = load_fixture("a2")
    assert len(top.splitlines()) == 1 + len(expr)  # label + diagram rows
    assert len(bottom.splitlines()) == 1 + len(expr)  # label + pyramid rows


def test_compare_non_binary_fixture_uses_an_impulse(tmp_path, capsys):
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--fixture", "default-p", "--pattern", "0-",
                   "--rule", "90", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "agreement" not in stdout  # ratios only make sense for impulses
    top = out.read_text(encoding="utf-8").split("\n\n")[0]
    width = len(load_fixture("default-p"))
    expected = eca_evolve(impulse_row(width), 90, width - 1)
    first = top.splitlines()[1]
    assert first == "".join("#" if v else "." for v in expected.rows[0])


def test_compare_unknown_fixture_exits_1(capsys):
    assert run_cli("compare", "--fixture", "zz", "--pattern", "1-", "--rule", "90") == 1
    assert "error: fixture:" in capsys.readouterr().err


# ------------------------------------------------- selfcheck, fixtures


def test_selfcheck_passes_and_reports(capsys):
    assert run_cli("selfcheck") == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 5
    assert "FAIL" not in out
    assert out.rstrip().endswith("all checks passed")


def test_fixtures_lists_every_id(capsys):
    assert run_cli("fixtures") == 0
    out = capsys.readouterr().out
    for fid in FIXTURE_IDS:
        assert fid in out
    assert "2-0-1-7-2-0-1-8 " not in out  # serialized rows have no stray blanks


def test_fixture_rows_match_the_listing(capsys):
    assert run_cli("fixtures") == 0
    lines = capsys.readouterr().out.splitlines()
    by_id = {line.split()[0]: line.split()[-1] for line in lines}
    assert by_id["p1"] == "2-0-1-7-2-0-1-8"
    assert by_id["a1"].count("1") == 1
    assert load_fixture("a1").sum() == 1


# ---------------------------------------------------------- transcripts

# sha256 of (stdout, stderr, exit status) for each argv, as the CLI printed
# them when these pins were taken: the fixture listing, the selfcheck lines,
# the agreement ratios and the error text, next to one figure per format
TRANSCRIPTS = {
    "run --input 2-0-1-7-0-4":
        "a46ca207a8d29b607bdc7312f92025af951371d91947384e545298c73ebbea4a",
    "run --fixture p1 --pattern 0- --format pbm":
        "d0d1ef66db16a96da7e0bdf045003199456bb3ec59a80b5720cb43f381d631a3",
    "run --fixture default-p --format pgm --cell-px 2":
        "4740abf1cb79fa15221386ca22e706fb877ad715af2553a931b6821f152fb130",
    "run --input 1-5-2 --symmetric --pattern 5- --format svg":
        "0ee9dae08c14a861fe364979b4e603a8d54ecf543a687e01a92fe06bd6dc3016",
    "run --fixture a2 --symmetric --pattern 1- --palette mask":
        "f94f8a68d8f45b13a58bc2b6ed9104b4cd0fa48bcaa4f8fda2dccf16f0884368",
    "run --fixture p1-new --pattern 1-0- --align left --max-generations 6":
        "d1beef7e7a51e228c6ab921ea336749009331ca8c670bb2286aaa6ce72345580",
    "eca --rule 90 --generations 8":
        "9b946831d61b16a2194a961f3fff660eb124eadf3c04db5f74090d751a25c705",
    "eca --rule 110 --generations 5 --initial 0-1-1-0-1-0-0 --format svg --cell-px 3":
        "f5354c63bb525b13a5eaad445f03c47ab90a651d7389c3dcc8454616d3dc803e",
    "compare --fixture a1 --pattern 1- --rule 90":
        "4f0590b10397fc0f63a9247ac3b6cfd52ef9ac890883155fdaf619538e8cd194",
    "compare --fixture a1 --pattern 0- --rule 182 --format pbm":
        "a7e980debe2ee8f5fd5a5b397993ece87c6472dc0cd0cb8f7e5a3733407fc9a4",
    "compare --fixture a2 --pattern 1- --rule 110":
        "5269d8889e7b42b37c539d3127216b4fcb04532733f4f6d2638c28e66dd79793",
    "compare --fixture a2 --pattern 9- --rule 30 --format svg":
        "ddaef8a840499da7208adc52eb70b3de242dfef58e322511bc8f4aa2e7cf48e1",
    "fixtures":
        "17e56f59af068b7b2c76935d2077c8f6bbc682adf0ee1ddc2a6773033a5e3b1e",
    "selfcheck":
        "2223a4d5945bcec1884c94b9f0eca019884e70e19fe7e96ee85a3fabdac46e5f",
    "run --input 2--1":
        "4921c131b1c87b8d01c9bf8f545fe1051393ef7c50af99df77eba54ecbc1db57",
    "eca --rule 90 --generations 1 --initial 0-2-0":
        "11544677194631fdb57db576b78b2af39484b753cb4dd8dd6a048ed4caac4a40",
}


def transcript(argv, capsysbinary):
    code = run_cli(*argv.split())
    out, err = capsysbinary.readouterr()
    return hashlib.sha256(b"\0".join([out, err, str(code).encode()])).hexdigest()


@pytest.mark.parametrize("argv", list(TRANSCRIPTS))
def test_cli_transcripts_are_pinned(argv, capsysbinary):
    assert transcript(argv, capsysbinary) == TRANSCRIPTS[argv]


# -------------------------------------------------------- parser reuse


def test_one_parser_serves_every_call_in_a_process(capsysbinary):
    for argv in TRANSCRIPTS:
        assert transcript(argv, capsysbinary) == TRANSCRIPTS[argv], argv
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--input", "1", "--format", "bmp")
    assert exc.value.code == 2
    assert capsysbinary.readouterr().err.startswith(b"usage: diffca run")
    assert run_cli("run", "--input", "1", "--format", "pbm") == 2
    assert capsysbinary.readouterr().err.startswith(b"usage error: ")
    for argv in reversed(TRANSCRIPTS):
        assert transcript(argv, capsysbinary) == TRANSCRIPTS[argv], argv


def test_a_later_call_builds_no_parser(monkeypatch):
    assert run_cli("fixtures") == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli("run", "--input", "2-0-1-4") == 0
    assert built == []
    build_parser()
    assert built  # the count sees a build


def test_build_parser_returns_a_fresh_parser():
    parser = build_parser()
    assert parser is not build_parser()
    parser.add_argument("--extra")  # a caller's change reaches no other parser
    assert parser.parse_args(["--extra", "1", "fixtures"]).extra == "1"
    with pytest.raises(SystemExit) as exc:
        run_cli("--extra", "1", "fixtures")
    assert exc.value.code == 2


def parser_tree(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action.choices, dict):  # a subcommand's parser, by name
            for sub in action.choices.values():
                yield from parser_tree(sub)


def test_no_default_in_the_parser_tree_is_mutable():
    # parse_args puts each default into its Namespace as it is: a mutable one
    # (an action="append" list, say) would carry values from call to call
    parsers = list(parser_tree(build_parser()))
    assert len(parsers) == 6
    for parser in parsers:
        defaults = [action.default for action in parser._actions] + list(parser._defaults.values())
        assert not any(isinstance(d, (list, dict, set)) for d in defaults), parser.prog


# ------------------------------------------------ contract over the grammar

SUBCOMMANDS = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
ROWS = st.lists(st.sampled_from([*range(10), 2**64 - 1]), min_size=1, max_size=12).map(
    lambda terms: "-".join(map(str, terms)))
EXPRESSIONS = ROWS | ROWS.map("[{}]".format) | st.sampled_from(
    ["", "[]", "()", "[1-2", "-1", "1--2", "1-", "2-x", str(2**64), "0" * 30 + "1", "9" * 5000])
# small enough that a figure stays within a few MB; the hostile values must fail early
INTS = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 2**64, 10**12])
# "{tmp}" is a directory holding row.txt, a good expression, and bad.txt, a bad one
VALUES = {
    "input": EXPRESSIONS,
    "pattern": EXPRESSIONS,
    "initial": EXPRESSIONS,
    "fixture": st.sampled_from([*FIXTURE_IDS, "nope", ""]),
    "file": st.sampled_from(["{tmp}", "{tmp}/absent.txt", "{tmp}/row.txt", "{tmp}/bad.txt"]),
    "out": st.sampled_from(["{tmp}", "{tmp}/absent/out", "{tmp}/out"]),
    "rule": st.sampled_from([0, 30, 90, 110, 150, 182, 255, -1, 256, 2**64]),
}


def values(action):
    if action.choices:
        return st.sampled_from([*action.choices, "bmp"])
    return (INTS if action.type is int else VALUES[action.dest]).map(str)


@st.composite
def argvs(draw):
    """A subcommand and its flags, each present or absent, in any order."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = []
    for action in SUBCOMMANDS[name]._actions:
        odds = 1 if isinstance(action, argparse._HelpAction) else 18 if action.required else 10
        if draw(st.integers(0, 19)) < odds:
            flag = [draw(st.sampled_from(action.option_strings))]
            flags.append(flag if action.nargs == 0 else [*flag, draw(values(action))])
    return [name, *itertools.chain.from_iterable(draw(st.permutations(flags)))]


def outcome(parse, argv):
    """What a parser makes of ``argv``: its Namespace, or the status it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def places(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "row.txt").write_text("2-0-1-4\n", encoding="utf-8")
    (tmp / "bad.txt").write_text("[1-x]\n", encoding="utf-8")
    return str(tmp)


@given(argvs())
@settings(max_examples=200, deadline=None)
def test_every_argv_in_the_grammar_keeps_the_exit_contract(places, argv):
    argv = [arg.replace("{tmp}", places) for arg in argv]
    out, err = io.BytesIO(), io.BytesIO()
    stdout, stderr = io.TextIOWrapper(out, encoding="utf-8"), io.TextIOWrapper(err, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stdout.flush()
        stderr.flush()
        text = err.getvalue().decode()
        assert b"Traceback" not in out.getvalue()
    assert "Traceback" not in text
    assert code in (0, 1, 2)
    if code == 0:
        assert text == ""
    elif code == 1:
        assert re.match(r"error: \w[\w ]*: ", text), text
    else:
        assert text.startswith(("usage error: ", "usage: diffca")), text
    # the one parser main keeps still parses as a new one does
    assert outcome(cli._parser().parse_args, argv) == outcome(build_parser().parse_args, argv)


# ------------------------------------------------------------ README


def _readme_commands() -> list[list[str]]:
    """Each ``diffca …`` line of README's command-line block, split as a shell would."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("diffca ")]


def test_readme_command_block_shows_every_subcommand():
    assert {argv[1] for argv in _readme_commands()} == set(SUBCOMMANDS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_every_readme_command_runs_and_leaves_an_artifact(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "diffca"
    assert main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert out.strip()
