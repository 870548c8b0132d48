"""Command-line behavior: happy paths, exit codes, artifact stability."""

import numpy as np
import pytest

from diffca.cli import main
from diffca.eca import eca_evolve, impulse_row
from diffca.engine import evolve
from diffca.fixtures import fixture_ids, load_fixture
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


def test_run_shades_the_full_cell_range_as_pgm(capsys):
    assert run_cli("run", "--input", "18446744073709551615-0", "--format", "pgm") == 0
    assert capsys.readouterr().out == "P2\n2 2\n255\n0 255\n0 255\n"


def test_run_rejects_parse_errors_with_exit_1(capsys):
    assert run_cli("run", "--input", "2-x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression:")
    assert run_cli("run", "--fixture", "nope") == 1
    assert "error: fixture:" in capsys.readouterr().err


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
    for fid in fixture_ids():
        assert fid in out
    assert "2-0-1-7-2-0-1-8 " not in out  # serialized rows have no stray blanks


def test_fixture_rows_match_the_listing(capsys):
    assert run_cli("fixtures") == 0
    lines = capsys.readouterr().out.splitlines()
    by_id = {line.split()[0]: line.split()[-1] for line in lines}
    assert by_id["p1"] == "2-0-1-7-2-0-1-8"
    assert by_id["a1"].count("1") == 1
    assert np.array_equal(load_fixture("a1").row().sum(), 1)
