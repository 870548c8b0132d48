"""Command-line behavior: happy paths, exit codes, artifact stability."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from diffca import render
from diffca.cli import main
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


@pytest.mark.parametrize("argv", list(TRANSCRIPTS))
def test_cli_transcripts_are_pinned(argv, capsysbinary):
    code = run_cli(*argv.split())
    out, err = capsysbinary.readouterr()
    digest = hashlib.sha256(b"\0".join([out, err, str(code).encode()])).hexdigest()
    assert digest == TRANSCRIPTS[argv]
